/**
 * @file
 * serve_zipf: an in-process serve::Server on a unix socket, driven
 * closed-loop by one LineClient per worker; each client waits for
 * its reply before sending the next line, as a design-space
 * front-end does. Every client replays its own seeded stream of
 * exploration sessions. A session is:
 *
 *  - one `sweep` line over a 3 x 3 neighbourhood of the paper's
 *    size x cycle plane, one of whose cycle times is new on every
 *    line, so it runs the engine (pricing off the resident profile)
 *    and writes to the memo;
 *  - nine one-pass `query` lines, as many as the cells the sweep
 *    returned, taken in order from serve::queryStream (the repo's
 *    Zipf(0.99) load over the paper's 110 design points), which
 *    become memo reads;
 *  - in every hundredth session, one depth-3 (`l3_size`) query with
 *    a new L3 cycle time, which runs a cascade profile and writes to
 *    the memo and profile caches.
 *
 * Parse, memo, encode and socket costs dominate; engine work is a
 * bounded share beside them.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "expt/design_space.hh"
#include "expt/runner.hh"
#include "serve/json.hh"
#include "serve/loadgen.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "trace/binary.hh"
#include "util/random.hh"
#include "workload.hh"

namespace mlcbench {

namespace {

using namespace mlc;

const char *const kTracePath = "zipf.mlct";
const char *const kSocket = "s.sock";
/** Point queries per session: as many as a 3 x 3 sweep has cells. */
constexpr std::size_t kQueriesPerSession = 9;
/** Sessions per depth-3 query. */
constexpr std::size_t kSessionsPerDeep = 100;
/** Query lines drawn per client; the stream cycles through them. */
constexpr std::size_t kQueryBlock = std::size_t{1} << 16;
/** Traced windows record one request in this many. */
constexpr std::uint64_t kTraceOneIn = 4;
constexpr double kWindowSec = 0.5;
/** Requests per client kept for the concurrent = serial check. */
constexpr std::size_t kCheckPrefix = 200;

/** One client's deterministic request stream. */
class Stream
{
  public:
    Stream(const serve::LoadGenOptions &lo, std::size_t client)
        : queries_(serve::queryStream(lo, client, kQueryBlock)),
          rng_(mixSeed(lo.seed, 100 + client)), client_(client),
          clients_(lo.clients)
    {
    }

    /** The next line, and the design points it asks for. */
    std::string
    next(std::size_t &cells)
    {
        const std::size_t session = session_;
        const std::size_t pos = pos_;
        const bool deep =
            session % kSessionsPerDeep == kSessionsPerDeep - 1;
        if (++pos_ == 1 + kQueriesPerSession + (deep ? 1 : 0)) {
            pos_ = 0;
            ++session_;
        }
        // Unique per (client, session), and above the paper's 1..10
        // cycle axis, so the line can never be a memo hit.
        const std::uint64_t fresh = 100 + session * clients_ + client_;
        const std::string id = ",\"id\":\"c" + std::to_string(client_) +
                               "-s" + std::to_string(session) + "\"}";
        const std::string head =
            "{\"engine\":\"onepass\",\"workload\":\"zipf\",";
        if (pos == 0) {
            const std::vector<std::uint64_t> sizes = expt::paperSizes();
            std::vector<std::uint64_t> pick;
            while (pick.size() < 3) {
                const std::uint64_t s = sizes[rng_.nextBounded(sizes.size())];
                if (std::find(pick.begin(), pick.end(), s) == pick.end())
                    pick.push_back(s);
            }
            std::sort(pick.begin(), pick.end());
            const std::uint64_t a = 1 + rng_.nextBounded(5);
            const std::uint64_t b = 6 + rng_.nextBounded(5);
            cells = 3 * 3;
            return head + "\"op\":\"sweep\",\"sizes\":[" +
                   std::to_string(pick[0]) + "," +
                   std::to_string(pick[1]) + "," +
                   std::to_string(pick[2]) + "],\"cycles\":[" +
                   std::to_string(a) + "," + std::to_string(b) + "," +
                   std::to_string(fresh) + "]" + id;
        }
        cells = 1;
        std::string line = queries_[query_++ % queries_.size()];
        if (pos > kQueriesPerSession) {
            // The session's what-if of an L3 below a drawn point.
            line.insert(line.rfind(",\"id\""),
                        ",\"l3_size\":" +
                            std::to_string(std::uint64_t{8} << 20) +
                            ",\"l3_cycles\":" + std::to_string(fresh));
        }
        return line;
    }

  private:
    std::vector<std::string> queries_;
    Rng rng_;
    std::size_t client_;
    std::size_t clients_;
    std::size_t session_ = 0;
    std::size_t pos_ = 0;
    std::size_t query_ = 0;
};

/** What one client saw during the timed phase. */
struct ClientLog
{
    std::vector<float> latencyUs;
    std::vector<std::uint32_t> computeUs;
    std::vector<std::uint64_t> windowRequests;
    std::vector<std::uint64_t> windowCells;
    std::vector<double> windowLatencyUs;
    std::vector<std::string> lines, responses; //!< first kCheckPrefix
    std::uint64_t errors = 0;
};

std::uint64_t
fieldU64(const std::string &resp, const char *key)
{
    const std::size_t at = resp.rfind(key);
    if (at == std::string::npos)
        return 0;
    return std::strtoull(resp.c_str() + at + std::strlen(key), nullptr,
                         10);
}

/** A stats-verb counter (`section.key`); 0 when absent. */
std::uint64_t
statsField(const std::string &resp, const char *section, const char *key)
{
    serve::Json doc;
    std::string err;
    if (!serve::Json::parse(resp, doc, err))
        return 0;
    const serve::Json *stats = doc.find("stats");
    const serve::Json *sec = stats ? stats->find(section) : nullptr;
    const serve::Json *v = sec ? sec->find(key) : nullptr;
    return v && v->isNumber() ? v->asU64() : 0;
}

double
relExecOf(const std::string &resp)
{
    const char *key = "\"rel_exec_time\":";
    const std::size_t at = resp.find(key);
    return at == std::string::npos
               ? std::nan("")
               : std::strtod(resp.c_str() + at + std::strlen(key),
                             nullptr);
}

} // namespace

void
runServeZipf(const Options &opts, Report &rep)
{
    const std::uint64_t refs = opts.tiny ? 30'000 : 200'000;
    const std::uint64_t warm = refs / 5;
    const std::size_t clients = opts.jobs;
    expt::TraceSpec spec = expt::gridSuite().front();
    spec.name = "zipf";
    spec.warmupRefs = warm;
    spec.measureRefs = refs - warm;

    serve::ServerOptions so;
    so.socketPath = kSocket;
    so.jobs = opts.jobs;
    so.traceFiles = {kTracePath};

    // --- set-up: write the trace file and its warm-up sidecar,
    // start the server, warm the workload. The timed phase needs the
    // socket to itself, so rather than between its windows, half the
    // set-ups run before it (the last one's server serves it) and
    // the rest after it.
    std::vector<double> setups;
    bool warmed = true;
    const auto setUp = [&] {
        const auto t0 = Clock::now();
        {
            std::vector<trace::MemRef> stream;
            {
                Span span("trace.generate");
                span.setWork(refs);
                stream = suiteTrace(spec, opts.seed);
            }
            Span span("trace.write");
            span.setWork(refs);
            std::ofstream os(kTracePath, std::ios::binary);
            trace::BinaryWriter w(os);
            w.putSpan({stream.data(), stream.size()});
            w.finish();
            std::ofstream side(std::string(kTracePath) + ".warm.json");
            side << "{\"warmup_refs\":" << warm << "}\n";
        }
        Span span("serve.start");
        auto s = std::make_unique<serve::Server>(so);
        s->start();
        serve::LineClient admin(kSocket);
        std::string resp;
        warmed = warmed &&
                 admin.sendLine("{\"op\":\"warm\",\"workload\":\"zipf\"}") &&
                 admin.recvLine(resp) &&
                 resp.find("\"ok\":true") != std::string::npos;
        setups.push_back(secondsSince(t0));
        return s;
    };
    tracer::enable(opts.trace);
    std::unique_ptr<serve::Server> server;
    for (int i = 0; i <= kSetups / 2; ++i) {
        server.reset();
        server = setUp();
    }
    tracer::enable(false);

    // The request streams: the repo's Zipf(0.99) query load, seeded
    // by the run, against this workload's trace.
    serve::LoadGenOptions lo;
    lo.clients = clients;
    lo.seed = opts.seed;
    lo.workload = "zipf";
    std::vector<Stream> streams;
    for (std::size_t c = 0; c < clients; ++c)
        streams.emplace_back(lo, c);

    // --- timed phase: closed-loop clients; the main thread keeps
    // the clock in kWindowSec windows (traced runs alternate
    // untraced and traced windows).
    const std::size_t windows = static_cast<std::size_t>(
        std::ceil(opts.seconds / kWindowSec));
    std::atomic<std::size_t> window{0};
    std::atomic<bool> stop{false};
    std::vector<ClientLog> logs(clients);
    for (ClientLog &log : logs) {
        // Reserved up front: growing by doubling would make peak RSS
        // depend on how many requests a run happened to complete.
        log.latencyUs.reserve(std::size_t{1} << 21);
        log.computeUs.reserve(std::size_t{1} << 21);
        log.windowRequests.assign(windows, 0);
        log.windowCells.assign(windows, 0);
        log.windowLatencyUs.assign(windows, 0.0);
    }
    const auto phase0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            ClientLog &log = logs[c];
            serve::LineClient conn(kSocket);
            Stream &stream = streams[c];
            std::string resp;
            for (std::uint64_t seq = 0; !stop.load(); ++seq) {
                std::size_t cells = 0;
                const std::string line = stream.next(cells);
                const std::size_t w = window.load();
                const std::uint64_t rid =
                    (std::uint64_t{c + 1} << 40) | seq;
                // A fixed, seeded share of requests is traced, so the
                // span buffers hold every traced window.
                const bool sampled =
                    mixSeed(opts.seed, rid) % kTraceOneIn == 0;
                const auto t0 = Clock::now();
                bool ok = false;
                {
                    Span req("serve.request", rid, 0, sampled);
                    {
                        Span s("serve.sendLine", rid, Span::kInherit,
                               sampled);
                        ok = conn.sendLine(line);
                    }
                    Span r("serve.recvLine", rid, Span::kInherit, sampled);
                    ok = ok && conn.recvLine(resp);
                }
                const double us = secondsSince(t0) * 1e6;
                if (!ok || resp.find("\"ok\":true") == std::string::npos)
                    ++log.errors;
                log.latencyUs.push_back(static_cast<float>(us));
                log.computeUs.push_back(static_cast<std::uint32_t>(
                    fieldU64(resp, "\"compute_us\":")));
                if (w < windows) {
                    ++log.windowRequests[w];
                    log.windowCells[w] += cells;
                    log.windowLatencyUs[w] += us;
                }
                if (seq < kCheckPrefix) {
                    log.lines.push_back(line);
                    log.responses.push_back(resp);
                }
                if (!ok)
                    break;
            }
        });
    }
    for (std::size_t w = 0; w < windows; ++w) {
        tracer::enable(opts.trace && w % 2 == 1);
        window.store(w);
        std::this_thread::sleep_until(
            phase0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             kWindowSec * static_cast<double>(w + 1))));
    }
    tracer::enable(false);
    window.store(windows);
    stop.store(true);
    for (std::thread &t : threads)
        t.join();

    std::string stats;
    {
        serve::LineClient admin(kSocket);
        if (!admin.sendLine("{\"op\":\"stats\"}") ||
            !admin.recvLine(stats))
            stats.clear();
    }
    server.reset();
    tracer::enable(opts.trace);
    while (setups.size() < static_cast<std::size_t>(kSetups))
        (void)setUp();
    tracer::enable(false);
    rep.check("server_warm", warmed, "warm_failed");

    std::vector<double> latencies, windowQps, windowCells;
    Rounds rounds;
    std::uint64_t errors = 0, engineAnswers = 0;
    double computeSum = 0.0, waitSum = 0.0;
    for (const ClientLog &log : logs) {
        errors += log.errors;
        for (std::size_t i = 0; i < log.latencyUs.size(); ++i) {
            latencies.push_back(log.latencyUs[i]);
            computeSum += log.computeUs[i];
            engineAnswers += log.computeUs[i] > 0 ? 1u : 0u;
            waitSum += static_cast<double>(log.latencyUs[i]) -
                       log.computeUs[i];
        }
    }
    for (std::size_t w = 0; w < windows; ++w) {
        std::uint64_t n = 0, cells = 0;
        double lat = 0.0;
        for (const ClientLog &log : logs) {
            n += log.windowRequests[w];
            cells += log.windowCells[w];
            lat += log.windowLatencyUs[w];
        }
        windowQps.push_back(static_cast<double>(n) / kWindowSec);
        windowCells.push_back(static_cast<double>(cells) / kWindowSec);
        rounds.seconds.push_back(n ? lat / static_cast<double>(n) : 0.0);
        rounds.traced.push_back(opts.trace && w % 2 == 1);
    }
    rep.operations(latencies.size(), errors);
    rep.fact("trace_refs", static_cast<double>(refs));
    rep.fact("trace_warmup_refs", static_cast<double>(warm));
    rep.fact("clients", static_cast<double>(clients));
    rep.fact("latency_samples", static_cast<double>(latencies.size()));
    rep.fact("queries_per_sweep", static_cast<double>(kQueriesPerSession));
    rep.fact("sweeps_per_deep_query", static_cast<double>(kSessionsPerDeep));
    if (opts.trace)
        rep.fact("traced_request_share",
                 1.0 / static_cast<double>(kTraceOneIn));

    // --- checks: concurrent responses equal serial ones from a
    // fresh server, and the corners of the grid against the timing
    // simulator (err_max).
    serve::ServerOptions serialOpts = so;
    serialOpts.socketPath.clear();
    serve::Server serial(serialOpts);
    bool same = true;
    for (const ClientLog &log : logs)
        for (std::size_t i = 0; i < log.lines.size(); ++i)
            same = same && serve::stripVolatile(serial.handleLine(
                               log.lines[i])) ==
                               serve::stripVolatile(log.responses[i]);
    rep.check("concurrent_equals_serial", same, "response_mismatch");
    rep.check("no_error_responses", errors == 0, "error_response");

    const trace::MappedBinaryTrace mapped(kTracePath);
    std::string requests;
    for (const ClientLog &log : logs)
        for (const std::string &line : log.lines)
            requests += line + "\n";
    fingerprintInputs({mapped.span()}, requests, rep);
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    double err = 0.0;
    bool answered = true;
    for (const std::uint64_t size : {std::uint64_t{4} << 10,
                                     std::uint64_t{4} << 20})
        for (const std::uint32_t cyc : {1u, 10u}) {
            const double served = relExecOf(serial.handleLine(
                "{\"op\":\"query\",\"workload\":\"zipf\",\"l2_size\":" +
                std::to_string(size) +
                ",\"l2_cycles\":" + std::to_string(cyc) + "}"));
            const double simulated =
                expt::runOnTrace(base.withL2(size, cyc), mapped.span(),
                                 warm)
                    .relativeExecTime;
            answered = answered && std::isfinite(served);
            err = std::max(err, std::fabs(served - simulated) / simulated);
        }
    rep.check("corner_queries_answered", answered, "no_rel_exec_time");

    if (!opts.trace) {
        rep.metric("setup_s", median(setups));
        rep.metric("cells_per_s", median(windowCells));
        rep.metric("qps", median(windowQps));
        rep.metric("p50_us", percentile(latencies, 50));
        rep.metric("p99_us", tail(latencies, rep));
        rep.metric("err", err);
        return;
    }

    // --- traced run: parse cost, cache and engine counters.
    tracer::enable(true);
    std::uint64_t parsed = 0;
    {
        Span span("serve.parseRequest");
        for (const ClientLog &log : logs)
            for (const std::string &line : log.lines)
                parsed += serve::parseRequest(line).ok ? 1u : 0u;
        span.setWork(parsed);
    }
    tracer::enable(false);
    const std::vector<SpanRecord> spans = tracer::collect();
    const double hits =
        static_cast<double>(statsField(stats, "memo", "hits"));
    const double misses =
        static_cast<double>(statsField(stats, "memo", "misses"));
    rep.metric("trace.gen_ns_per_ref", nsPerWork(spans, "trace.generate"));
    rep.metric("serve.parse_us",
               nsPerWork(spans, "serve.parseRequest") * 1e-3);
    rep.metric("serve.memo_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0);
    rep.metric("serve.compute_us",
               engineAnswers ? computeSum /
                                   static_cast<double>(engineAnswers)
                             : 0.0);
    rep.metric("serve.wait_us",
               waitSum / static_cast<double>(latencies.size()));
    rep.metric("serve.engine_runs", static_cast<double>(statsField(
                                        stats, "counters", "engine_runs")));
    rep.metric("onepass.model_err_max", err);
    reportTrace(opts, rounds, rep);
}

} // namespace mlcbench
