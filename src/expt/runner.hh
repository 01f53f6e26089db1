/**
 * @file
 * Suite runner: simulate one hierarchy configuration over the
 * workload suite and average the paper's metrics across traces,
 * which is how the paper's figures aggregate their eight traces.
 */

#ifndef MLC_EXPT_RUNNER_HH
#define MLC_EXPT_RUNNER_HH

#include <vector>

#include "expt/workload_suite.hh"
#include "hier/hierarchy.hh"

namespace mlc {
namespace expt {

/** Suite-averaged metrics for one configuration. */
struct SuiteResults
{
    double relExecTime = 0.0;
    double cpi = 0.0;
    double l1LocalMiss = 0.0;  //!< == L1 global (requests = reads)
    /** Per downstream level (L2 first). */
    std::vector<double> localMiss;
    std::vector<double> globalMiss;
    std::vector<double> soloMiss; //!< empty unless measured
    double meanL1MissPenaltyCycles = 0.0;
    std::uint64_t traces = 0;

    /** Across-trace sample standard deviations (0 for a single
     *  trace): workload-to-workload spread, as the paper's eight
     *  traces would have shown. */
    double relExecTimeStdDev = 0.0;
    std::vector<double> soloMissStdDev; //!< empty unless measured
};

/**
 * Run @p params over one materialized trace: warm up on the first
 * @p warmup_refs references, measure on the rest. The span is
 * replayed zero-copy (no per-reference virtual dispatch).
 */
hier::SimResults runOnTrace(const hier::HierarchyParams &params,
                            trace::RefSpan refs,
                            std::uint64_t warmup_refs);

/**
 * Run @p params over every trace in @p specs (materializing each)
 * and average. Set params.measureSolo for solo curves.
 */
SuiteResults runSuite(const hier::HierarchyParams &params,
                      const std::vector<TraceSpec> &specs);

/**
 * Run @p params over traces already materialized (grid sweeps
 * materialize once and replay). specs[i] pairs with traces[i].
 *
 * @p jobs > 1 simulates traces concurrently: every worker builds
 * its own HierarchySimulator over the shared immutable trace data,
 * per-trace results land in pre-sized slots indexed by trace, and
 * the across-trace reduction always runs in trace order — so the
 * returned SuiteResults is bit-identical for any @p jobs.
 */
SuiteResults
runSuite(const hier::HierarchyParams &params,
         const std::vector<TraceSpec> &specs,
         const std::vector<std::vector<trace::MemRef>> &traces,
         std::size_t jobs = 1);

/** Same, over a materialize-once shared TraceStore. */
SuiteResults runSuite(const hier::HierarchyParams &params,
                      const TraceStore &store,
                      std::size_t jobs = 1);

/**
 * The across-trace reduction every suite run ends in: means over
 * @p per_trace, summed in trace order, and across-trace sample
 * standard deviations; solo columns when params.measureSolo.
 */
SuiteResults reduceSuite(const hier::HierarchyParams &params,
                         const std::vector<hier::SimResults> &per_trace);

} // namespace expt
} // namespace mlc

#endif // MLC_EXPT_RUNNER_HH
