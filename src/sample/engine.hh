/**
 * @file
 * The sampled replay engine: confidence-interval-bounded CPI from
 * a scheduled subset of a trace.
 *
 * Where the timing engine replays every reference and the one-pass
 * engine trades the timing model for an analytical one, the sampled
 * engine keeps the exact timing simulator but points it at a few
 * hundred short windows (see sample/scheduler.hh for the schedule
 * anatomy). Each window yields one CPI sample; the estimate is the
 * sample mean with a Student-t confidence interval, and an optional
 * adaptive stopping rule ends the run once the interval is tight
 * enough. Skipped references cost nothing on a materialized span,
 * which is where the order-of-magnitude speedup over full replay
 * comes from; bench/sampled_vs_full measures it and checks the
 * ground-truth CPI against the reported interval.
 *
 * Determinism: for fixed options (including seed) the schedule, the
 * replayed references and therefore every output bit are identical
 * run to run. runSampled() is the reference the checkpointed sweep
 * (sample/sweep.hh) is held to, bit for bit.
 */

#ifndef MLC_SAMPLE_ENGINE_HH
#define MLC_SAMPLE_ENGINE_HH

#include <cstdint>
#include <vector>

#include "expt/design_space.hh"
#include "expt/workload_suite.hh"
#include "hier/hierarchy.hh"
#include "sample/scheduler.hh"
#include "stats/streaming_stats.hh"
#include "util/bits.hh"

namespace mlc {
namespace trace {
class MappedBinaryTrace;
} // namespace trace

namespace sample {

/** What one sampled run of one trace produces. */
struct SampledResult
{
    /**
     * The headline CPI estimate: total measured cycles over total
     * measured instructions (the ratio estimator). Windows are
     * equal-length in references, not instructions, so the plain
     * mean of per-window CPIs overweights instruction-poor (and
     * typically slower) windows; the ratio form removes that bias.
     */
    double estCpi = 0.0;
    /** estCpi normalized by the ideal-machine CPI computed from
     *  the functional counters (the sampled analogue of
     *  SimResults::relativeExecTime). */
    double estRelExecTime = 0.0;
    /** Student-t interval on CPI at the requested confidence. */
    stats::ConfidenceInterval cpiInterval{};
    /** The raw per-window CPI accumulator (mean/variance/extrema;
     *  mergeable across shards). */
    stats::StreamingStats windowCpi;
    /** Per-window CPI samples in schedule order — what matched-pair
     *  comparison aligns across two configurations. */
    std::vector<double> windowCpiValues;

    /** True when the adaptive rule stopped before the schedule
     *  was exhausted. */
    bool stoppedEarly = false;

    /** Functional warm length per window the schedule actually
     *  used (after clipping, fixed or adaptively derived). */
    std::uint64_t warmRefsPerWindow = 0;
    /** True when warmRefsPerWindow came from the stack-distance
     *  probe rather than SampledOptions::functionalWarmRefs. */
    bool adaptiveWarmUsed = false;

    /** @{ @name Measured-window totals (the ratio estimator's
     *  numerator and denominator) */
    std::uint64_t cyclesMeasured = 0;
    std::uint64_t instructionsMeasured = 0;
    /** @} */

    /** @{ @name Reference accounting (sums to refsTotal) */
    std::uint64_t refsMeasured = 0;
    std::uint64_t refsDetailWarmed = 0;
    std::uint64_t refsFunctionalWarmed = 0;
    std::uint64_t refsSkipped = 0;
    std::uint64_t refsTotal = 0;
    /** @} */

    /**
     * Counter-level results over every reference the simulator
     * actually replayed (warm + detail + measure). Miss ratios here
     * are exact for that subset; the timing fields only reflect the
     * timed segments and should be ignored in favour of estCpi.
     */
    hier::SimResults functional;
};

/**
 * Sample @p refs under @p params. The span is replayed zero-copy;
 * skipped segments are never touched.
 *
 * @param mapped when @p refs is a prefix of a lazily validated
 *        MappedBinaryTrace's span, pass the trace here: each
 *        non-Skip segment is validated just before replay and Skip
 *        segments never fault their pages in — the streaming-skip
 *        path for >RAM traces. nullptr replays @p refs as-is.
 */
SampledResult runSampled(
    const hier::HierarchyParams &params, trace::RefSpan refs,
    const SampledOptions &opts,
    const trace::MappedBinaryTrace *mapped = nullptr);

/**
 * Resolve the per-window functional warm length for @p refs under
 * adaptive warming: probe the leading
 * min(adaptiveWarmProbeRefs, size) references with a
 * stack-distance analyzer at the deepest cache's block
 * granularity, read off the miss ratio at its capacity, and size
 * the warm so expected fills cover the cache about twice over
 * (W = 2 C / (readFraction * missRatio(C)) references), clamped to
 * [measureRefs, size/2]. Degenerate probes (no reads, zero tail
 * miss ratio) fall back to the fixed length or the high clamp.
 */
std::uint64_t
deriveFunctionalWarmRefs(trace::RefSpan refs,
                         const hier::HierarchyParams &params,
                         const SampledOptions &opts);

namespace detail {

/** Where a Measure segment starts: the clock and the instruction
 *  count there. */
struct WindowStart
{
    Tick ticks = 0;
    std::uint64_t instructions = 0;
};

/**
 * One Measure window, shared verbatim between runSampled() and the
 * checkpointed sweep so the two are bit-identical by construction:
 * from @p start to where @p sim stands now, @p refs references
 * later, push the window CPI, accumulate the ratio-estimator
 * totals, and apply the adaptive stopping rule.
 */
inline void
measureWindow(const hier::HierarchySimulator &sim,
              const WindowStart &start, std::uint64_t refs,
              const SampledOptions &opts, SampledResult &out)
{
    out.refsMeasured += refs;
    const std::uint64_t instr =
        sim.instructionCount() - start.instructions;
    // A window with no instruction fetches has no CPI (it cannot
    // happen with the suite generators, but a pathological trace
    // must not divide by zero).
    if (instr > 0) {
        const Tick dticks = sim.now() - start.ticks;
        const double cycles =
            static_cast<double>(dticks) /
            static_cast<double>(sim.cpuCycleTicks());
        const double cpi = cycles / static_cast<double>(instr);
        out.windowCpi.push(cpi);
        out.windowCpiValues.push_back(cpi);
        out.cyclesMeasured += divCeil(dticks, sim.cpuCycleTicks());
        out.instructionsMeasured += instr;
    }
    if (opts.targetRelHalfWidth > 0.0 &&
        out.windowCpi.count() >= opts.minWindows) {
        const auto ci = out.windowCpi.interval(opts.confidence);
        if (ci.relativeHalfWidth() <= opts.targetRelHalfWidth)
            out.stoppedEarly = true;
    }
}

/**
 * Shared epilogue: close the reference accounting, form the ratio
 * estimate and its re-centred interval, and keep @p functional, the
 * simulator's results where the sampling stopped. Panics when no
 * window produced a CPI sample.
 */
void finishSampled(const hier::SimResults &functional,
                   const SampledOptions &opts, SampledResult &out);

} // namespace detail

} // namespace sample
} // namespace mlc

#endif // MLC_SAMPLE_ENGINE_HH
