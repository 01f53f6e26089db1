#include "tracer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace mlcbench {

namespace {

/** Spans one thread may buffer; later ones are counted, not kept,
 *  so a runaway traced run cannot exhaust memory. A run that drops
 *  any fails its no_spans_dropped check. */
constexpr std::size_t kSpansPerThread = 1u << 20;

struct ThreadBuffer
{
    std::vector<SpanRecord> spans;
    std::uint64_t dropped = 0;
};

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_nextId{1};

std::mutex g_buffersMu;
/** Owns every thread's buffer, so spans outlive their threads. */
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

thread_local ThreadBuffer *t_buffer = nullptr;
thread_local std::uint64_t t_current = 0;

ThreadBuffer &
threadBuffer()
{
    if (!t_buffer) {
        auto buf = std::make_unique<ThreadBuffer>();
        t_buffer = buf.get();
        std::lock_guard<std::mutex> lk(g_buffersMu);
        g_buffers.push_back(std::move(buf));
    }
    return *t_buffer;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
layerOf(const char *name)
{
    const std::string s(name);
    return s.substr(0, s.find('.'));
}

} // namespace

namespace tracer {

void
enable(bool on)
{
    g_on.store(on, std::memory_order_release);
}

bool
enabled()
{
    return g_on.load(std::memory_order_acquire);
}

std::uint64_t
current()
{
    return t_current;
}

std::vector<SpanRecord>
collect(std::uint64_t *dropped)
{
    std::vector<SpanRecord> all;
    std::uint64_t lost = 0;
    {
        std::lock_guard<std::mutex> lk(g_buffersMu);
        for (const auto &buf : g_buffers) {
            all.insert(all.end(), buf->spans.begin(),
                       buf->spans.end());
            lost += buf->dropped;
        }
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.startNs < b.startNs;
              });
    if (dropped)
        *dropped = lost;
    return all;
}

std::map<std::string, double>
selfSecondsByLayer(const std::vector<SpanRecord> &spans)
{
    std::map<std::uint64_t, std::vector<const SpanRecord *>> children;
    for (const SpanRecord &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const SpanRecord &s : spans) {
        // Union of the child intervals, clipped to this span: child
        // spans on worker threads may overlap one another.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        const auto it = children.find(s.id);
        if (it != children.end())
            for (const SpanRecord *c : it->second)
                iv.emplace_back(std::max(c->startNs, s.startNs),
                                std::min(c->endNs, s.endNs));
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, reach = s.startNs;
        for (const auto &[b, e] : iv) {
            const std::int64_t from = std::max(b, reach);
            if (e > from) {
                covered += e - from;
                reach = e;
            }
        }
        self[layerOf(s.name)] +=
            static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
    }
    return self;
}

bool
write(const std::string &path, const std::vector<SpanRecord> &spans)
{
    std::ofstream os(path);
    for (const SpanRecord &s : spans)
        os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
           << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request
           << ",\"work\":" << s.work
           << ",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << "}\n";
    os.flush();
    return static_cast<bool>(os);
}

} // namespace tracer

Span::Span(const char *name, std::uint64_t request,
           std::uint64_t parent, bool record)
    : on_(record && tracer::enabled())
{
    if (!on_)
        return;
    rec_.name = name;
    rec_.id = g_nextId.fetch_add(1, std::memory_order_relaxed);
    rec_.parent = parent == kInherit ? t_current : parent;
    rec_.request = request;
    saved_ = t_current;
    t_current = rec_.id;
    rec_.startNs = nowNs();
}

Span::~Span()
{
    if (!on_)
        return;
    rec_.endNs = nowNs();
    t_current = saved_;
    ThreadBuffer &buf = threadBuffer();
    if (buf.spans.size() < kSpansPerThread)
        buf.spans.push_back(rec_);
    else
        ++buf.dropped;
}

} // namespace mlcbench
