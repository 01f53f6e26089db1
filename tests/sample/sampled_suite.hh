/** @file Straight-line sampled suite runs and grids for tests.
 *
 *  The sampled engine prices grids through the checkpointed sweep
 *  (sample::buildGridCheckpointed); the tests hold it and the engine
 *  dispatch to these plain compositions of sample::runSampled(): one
 *  independent run per (configuration, trace).
 */

#ifndef MLC_TESTS_SAMPLE_SAMPLED_SUITE_HH
#define MLC_TESTS_SAMPLE_SAMPLED_SUITE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "expt/design_space.hh"
#include "expt/workload_suite.hh"
#include "sample/engine.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace sample {
namespace straight_line {

/** Suite-level aggregate, mirroring expt::SuiteResults. */
struct SampledSuiteResults
{
    double relExecTime = 0.0; //!< mean of per-trace estimates
    double cpi = 0.0;         //!< mean of per-trace estimates
    /** Widest per-trace relative half-width. */
    double maxRelHalfWidth = 0.0;
    std::uint64_t traces = 0;
    std::vector<SampledResult> perTrace;
};

/** runSampled() over every trace in @p store, @p jobs at a time;
 *  slot-indexed with a fixed-order reduction, so bit-identical for
 *  any @p jobs. */
inline SampledSuiteResults
runSuiteSampled(const hier::HierarchyParams &params,
                const expt::TraceStore &store,
                const SampledOptions &opts, std::size_t jobs = 1)
{
    if (store.size() == 0)
        mlc_panic("runSuiteSampled: empty trace store");
    std::vector<SampledResult> per_trace(store.size());
    parallelFor(jobs, store.size(), [&](std::size_t t) {
        per_trace[t] = runSampled(params, store.span(t), opts);
    });

    SampledSuiteResults suite;
    for (const SampledResult &r : per_trace) {
        suite.relExecTime += r.estRelExecTime;
        suite.cpi += r.estCpi;
        suite.maxRelHalfWidth =
            std::max(suite.maxRelHalfWidth,
                     r.cpiInterval.relativeHalfWidth());
        ++suite.traces;
    }
    const double n = static_cast<double>(suite.traces);
    suite.relExecTime /= n;
    suite.cpi /= n;
    suite.perTrace = std::move(per_trace);
    return suite;
}

/** The design-space grid with one runSuiteSampled() per cell:
 *  every cell holds the suite-mean sampled relative execution time
 *  of base.withL2(size, cycle). Deterministic for any @p jobs. */
inline expt::DesignSpaceGrid
buildGrid(const hier::HierarchyParams &base,
          const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const expt::TraceStore &store, const SampledOptions &opts,
          std::size_t jobs = 1)
{
    return expt::parallelBuildGrid(
        sizes, cycles,
        [&](std::uint64_t size, std::uint32_t cycle) {
            return runSuiteSampled(base.withL2(size, cycle), store,
                                   opts)
                .relExecTime;
        },
        jobs);
}

} // namespace straight_line
} // namespace sample
} // namespace mlc

#endif // MLC_TESTS_SAMPLE_SAMPLED_SUITE_HH
