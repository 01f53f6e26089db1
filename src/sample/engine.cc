#include "sample/engine.hh"

#include <algorithm>

#include "trace/binary.hh"
#include "trace/stack_distance.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace mlc {
namespace sample {

namespace detail {

void
finishSampled(const hier::SimResults &functional,
              const SampledOptions &opts, SampledResult &out)
{
    // An early stop leaves the tail of the schedule untouched; it
    // is skipped work as far as accounting goes.
    out.refsSkipped = out.refsTotal - out.refsMeasured -
                      out.refsDetailWarmed -
                      out.refsFunctionalWarmed;

    if (out.windowCpi.count() == 0)
        mlc_panic("sample: no window produced a CPI sample");
    // Ratio estimate (see SampledResult::estCpi); the interval is
    // re-centred on it, keeping the window-spread half-width — the
    // usual large-sample approximation for a ratio estimator whose
    // denominators are near-equal.
    out.estCpi = static_cast<double>(out.cyclesMeasured) /
                 static_cast<double>(out.instructionsMeasured);
    out.cpiInterval = out.windowCpi.interval(opts.confidence);
    out.cpiInterval.mean = out.estCpi;
    out.functional = functional;
    // Ideal CPI from the replayed subset's instruction/store mix;
    // see SimResults for the normalization this mirrors.
    const double ideal_cpi =
        out.functional.instructions == 0
            ? 1.0
            : static_cast<double>(out.functional.idealCycles) /
                  static_cast<double>(out.functional.instructions);
    out.estRelExecTime = ideal_cpi == 0.0 ? 0.0
                                          : out.estCpi / ideal_cpi;
}

} // namespace detail

std::uint64_t
deriveFunctionalWarmRefs(trace::RefSpan refs,
                         const hier::HierarchyParams &params,
                         const SampledOptions &opts)
{
    const cache::CacheParams &deepest =
        params.levels.empty() ? params.l1d : params.levels.back();
    const std::uint32_t block = deepest.geometry.blockBytes;
    const std::uint64_t capacity_blocks =
        deepest.geometry.numBlocks();

    const std::uint64_t hi = refs.size / 2;
    const std::uint64_t lo = std::min(opts.measureRefs, hi);
    const auto clamp = [&](std::uint64_t w) {
        return std::max(lo, std::min(w, hi));
    };

    const std::size_t probe = static_cast<std::size_t>(
        std::min<std::uint64_t>(opts.adaptiveWarmProbeRefs,
                                refs.size));
    trace::StackDistanceAnalyzer analyzer(block);
    std::uint64_t reads = 0;
    for (std::size_t i = 0; i < probe; ++i) {
        const trace::MemRef &ref = refs.data[i];
        if (ref.isRead()) {
            analyzer.access(ref.addr);
            ++reads;
        }
    }
    if (reads == 0 || probe == 0)
        return clamp(opts.functionalWarmRefs);

    const double read_frac = static_cast<double>(reads) /
                             static_cast<double>(probe);
    const double tail_miss = analyzer.missRatio(capacity_blocks);
    if (tail_miss <= 0.0) {
        // The probe's whole footprint fits: the steady-state miss
        // ratio gives no fill rate, so only seeing (roughly) the
        // footprint again rebuilds the state — take the high clamp.
        return hi;
    }
    // Expected reads per fill at the tail is 1/missRatio; cover
    // the capacity about twice over for the deepest cache's sets
    // to shed their pre-Skip staleness.
    const double warm = 2.0 *
                        static_cast<double>(capacity_blocks) /
                        (read_frac * tail_miss);
    if (warm >= static_cast<double>(hi))
        return hi;
    return clamp(static_cast<std::uint64_t>(warm));
}

SampledResult
runSampled(const hier::HierarchyParams &params, trace::RefSpan refs,
           const SampledOptions &opts,
           const trace::MappedBinaryTrace *mapped)
{
    SampledOptions resolved = opts;
    if (opts.adaptiveWarm)
        resolved.functionalWarmRefs =
            deriveFunctionalWarmRefs(refs, params, opts);

    SampleScheduler sched(refs.size, resolved);
    hier::HierarchySimulator sim(params);

    SampledResult out;
    out.refsTotal = refs.size;
    out.warmRefsPerWindow = sched.plan().functionalWarmRefs;
    out.adaptiveWarmUsed = opts.adaptiveWarm;

    for (const Segment &seg : sched.segments()) {
        if (seg.kind == SegmentKind::Skip)
            continue; // pages stay untouched; accounted at the end
        // Under lazy validation only the segments actually replayed
        // are ever scanned (or faulted in).
        if (mapped)
            mapped->validateRange(seg.begin, seg.len);
        const trace::RefSpan span =
            refs.dropFirst(seg.begin).first(seg.len);
        switch (seg.kind) {
        case SegmentKind::Skip:
            break;
        case SegmentKind::Warm:
            sim.runFunctional(span);
            out.refsFunctionalWarmed += seg.len;
            break;
        case SegmentKind::Detail:
            sim.run(span);
            out.refsDetailWarmed += seg.len;
            break;
        case SegmentKind::Measure: {
            const detail::WindowStart start{sim.now(),
                                            sim.instructionCount()};
            sim.run(span);
            detail::measureWindow(sim, start, seg.len, resolved, out);
            break;
        }
        }
        if (out.stoppedEarly)
            break;
    }
    detail::finishSampled(sim.results(), resolved, out);
    return out;
}

} // namespace sample
} // namespace mlc
