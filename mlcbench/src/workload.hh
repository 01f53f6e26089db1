/**
 * @file
 * The four workloads and the timed-phase plumbing they share.
 *
 * Every workload sets up (several times, reporting the median), runs
 * its timed phase for Options::seconds as a sequence of rounds, then
 * checks its outputs. An untraced run reports the end-to-end
 * metrics. A traced run alternates untraced and traced rounds (the
 * difference is the tracing overhead), then probes each layer it
 * exercises by timing direct calls into it, and reports the
 * per-layer metrics.
 */

#ifndef MLCBENCH_WORKLOAD_HH
#define MLCBENCH_WORKLOAD_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "expt/workload_suite.hh"
#include "report.hh"
#include "trace/mem_ref.hh"
#include "tracer.hh"

namespace mlcbench {

void runGridTiming(const Options &opts, Report &rep);
void runGridOnepass(const Options &opts, Report &rep);
void runSampledFarm(const Options &opts, Report &rep);
void runServeZipf(const Options &opts, Report &rep);

/** Set-ups per run; set-up time is their median. Spreading them
 *  through the run (see timedRounds) lets the median see the host
 *  over the whole run, not over a few seconds of it. */
constexpr int kSetups = 11;

/** Wall seconds of each round of a timed phase, and which of them
 *  ran traced. */
struct Rounds
{
    std::vector<double> seconds;
    std::vector<bool> traced;

    /** Median traced round over median untraced round, minus one;
     *  0 when either side is empty. */
    double tracingOverhead() const;
};

/**
 * Call @p round(i) for i = 0, 1, ... until @p opts.seconds have
 * passed. In a traced run the odd rounds trace and the even ones do
 * not, and there are at least two rounds. The workload has set up
 * once before the phase; @p setUp repeats its set-up (timing
 * itself) between rounds, spread evenly through the phase, until
 * there have been kSetups. Set-up time does not count toward the
 * phase.
 */
Rounds timedRounds(const Options &opts,
                   const std::function<void(std::size_t)> &round,
                   const std::function<void()> &setUp);

/** Sum of the durations of spans named @p name, in ns, divided by
 *  the sum of their work counts (0 when there is no work). */
double nsPerWork(const std::vector<SpanRecord> &spans,
                 const char *name);

/** Add the tracing-overhead metric and every layer's self share of
 *  the traced time, and write the spans to opts.traceOut. */
void reportTrace(const Options &opts, const Rounds &rounds,
                 Report &rep);

/**
 * One trace of the paper's multiprogrammed suite: the processes of
 * @p spec keep the locality parameters of its paper variant, while
 * their reference streams and the context-switch points are drawn
 * from @p seed. A seed thus gives a new stream of the same program
 * mix, so the work per reference stays comparable across seeds.
 */
std::vector<mlc::trace::MemRef> suiteTrace(const mlc::expt::TraceSpec &spec,
                                           std::uint64_t seed);

/** A TraceStore of suiteTrace(spec, seed) for every spec, generated
 *  @p jobs traces at a time. */
mlc::expt::TraceStore suiteStore(std::vector<mlc::expt::TraceSpec> specs,
                                 std::uint64_t seed, std::size_t jobs);

/** Record the provenance fact "input_fingerprint": a hash of every
 *  generated trace and of @p extra (e.g. request lines), so two runs
 *  can be shown to have had the same or different inputs. */
void fingerprintInputs(const std::vector<mlc::trace::RefSpan> &traces,
                       const std::string &extra, Report &rep);

} // namespace mlcbench

#endif // MLCBENCH_WORKLOAD_HH
