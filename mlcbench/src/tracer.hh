/**
 * @file
 * Span recorder for the traced run.
 *
 * A span times one call the benchmark makes into a library layer.
 * It has a name ("<layer>.<call>"), a start and an end, the span
 * that caused it, and a request id shared by every span of one
 * server request. Spans are buffered in memory per thread and
 * written out once, when the run ends; with tracing off a Span
 * costs one branch. The layer of a span is its name up to the
 * first '.', and a layer's self time is its spans' durations minus
 * the parts of those intervals their child spans cover.
 */

#ifndef MLCBENCH_TRACER_HH
#define MLCBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mlcbench {

struct SpanRecord
{
    const char *name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = a root span
    std::uint64_t request = 0;
    /** Units of work the call did (references, events, cells...),
     *  so rates are measured where the work happens. */
    std::uint64_t work = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

namespace tracer {

/** Turn recording on or off for spans opened from now on. */
void enable(bool on);
bool enabled();

/** Innermost span open on this thread (0 when none): what a
 *  worker-thread span names as its parent. */
std::uint64_t current();

/** Every span recorded so far, on every thread, in start order;
 *  and how many were dropped because a thread's buffer was full. */
std::vector<SpanRecord> collect(std::uint64_t *dropped = nullptr);

/** Self seconds per layer over @p spans. */
std::map<std::string, double>
selfSecondsByLayer(const std::vector<SpanRecord> &spans);

/** Write @p spans to @p path as JSON lines; false on I/O error. */
bool write(const std::string &path,
           const std::vector<SpanRecord> &spans);

} // namespace tracer

/** RAII span: opens on construction, records on destruction. */
class Span
{
  public:
    static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

    /** @p parent defaults to the innermost span of this thread. With
     *  @p record false the span is not recorded even while tracing
     *  is on (a request left out of a sampled trace). */
    explicit Span(const char *name, std::uint64_t request = 0,
                  std::uint64_t parent = kInherit, bool record = true);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Set the work count recorded with this span. */
    void setWork(std::uint64_t n) { rec_.work = n; }

  private:
    SpanRecord rec_;
    std::uint64_t saved_ = 0;
    bool on_ = false;
};

} // namespace mlcbench

#endif // MLCBENCH_TRACER_HH
