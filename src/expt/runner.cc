#include "expt/runner.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace expt {

hier::SimResults
runOnTrace(const hier::HierarchyParams &params,
           trace::RefSpan refs, std::uint64_t warmup_refs)
{
    hier::HierarchySimulator sim(params);
    sim.warmUp(refs.first(warmup_refs));
    sim.run(refs.dropFirst(warmup_refs));
    return sim.results();
}

SuiteResults
runSuite(const hier::HierarchyParams &params,
         const std::vector<TraceSpec> &specs)
{
    std::vector<std::vector<trace::MemRef>> traces;
    traces.reserve(specs.size());
    for (const auto &spec : specs)
        traces.push_back(materialize(spec));
    return runSuite(params, specs, traces);
}

SuiteResults
runSuite(const hier::HierarchyParams &params,
         const std::vector<TraceSpec> &specs,
         const std::vector<std::vector<trace::MemRef>> &traces,
         std::size_t jobs)
{
    if (specs.empty() || specs.size() != traces.size())
        mlc_panic("runSuite: specs/traces mismatch (", specs.size(),
                  " vs ", traces.size(), ")");

    // Simulate every trace into its own slot. Each worker builds a
    // private HierarchySimulator; the shared trace vectors are only
    // read. Slot indexing (never completion order) plus the fixed
    // trace-order reduction below keeps jobs=1 and jobs=N
    // bit-identical.
    std::vector<hier::SimResults> per_trace(specs.size());
    parallelFor(jobs, specs.size(), [&](std::size_t t) {
        per_trace[t] =
            runOnTrace(params, traces[t], scaledWarmup(specs[t]));
    });
    return reduceSuite(params, per_trace);
}

SuiteResults
reduceSuite(const hier::HierarchyParams &params,
            const std::vector<hier::SimResults> &per_trace)
{
    SuiteResults avg;
    const std::size_t depth = params.levels.size();
    avg.localMiss.assign(depth, 0.0);
    avg.globalMiss.assign(depth, 0.0);
    if (params.measureSolo) {
        avg.soloMiss.assign(depth, 0.0);
        avg.soloMissStdDev.assign(depth, 0.0);
    }

    std::vector<double> rel_samples;
    std::vector<std::vector<double>> solo_samples(depth);
    for (std::size_t t = 0; t < per_trace.size(); ++t) {
        const hier::SimResults &r = per_trace[t];
        avg.relExecTime += r.relativeExecTime;
        rel_samples.push_back(r.relativeExecTime);
        avg.cpi += r.cpi;
        avg.l1LocalMiss += r.levels[0].localMissRatio;
        avg.meanL1MissPenaltyCycles += r.meanL1MissPenaltyCycles;
        for (std::size_t i = 0; i < depth; ++i) {
            avg.localMiss[i] += r.levels[i + 1].localMissRatio;
            avg.globalMiss[i] += r.levels[i + 1].globalMissRatio;
            if (params.measureSolo) {
                avg.soloMiss[i] += r.levels[i + 1].soloMissRatio;
                solo_samples[i].push_back(
                    r.levels[i + 1].soloMissRatio);
            }
        }
        ++avg.traces;
    }

    const double n = static_cast<double>(avg.traces);
    avg.relExecTime /= n;
    avg.cpi /= n;
    avg.l1LocalMiss /= n;
    avg.meanL1MissPenaltyCycles /= n;
    for (std::size_t i = 0; i < depth; ++i) {
        avg.localMiss[i] /= n;
        avg.globalMiss[i] /= n;
        if (params.measureSolo)
            avg.soloMiss[i] /= n;
    }

    // Sample standard deviation across traces. The denominator is
    // the sample count itself, not the trace count: they are equal
    // today, but a divergence must not silently skew the spread.
    auto stddev = [](const std::vector<double> &xs, double mean) {
        if (xs.size() < 2)
            return 0.0;
        double acc = 0.0;
        for (double x : xs)
            acc += (x - mean) * (x - mean);
        return std::sqrt(
            acc / (static_cast<double>(xs.size()) - 1.0));
    };
    avg.relExecTimeStdDev = stddev(rel_samples, avg.relExecTime);
    for (std::size_t i = 0; i < depth; ++i)
        if (params.measureSolo)
            avg.soloMissStdDev[i] =
                stddev(solo_samples[i], avg.soloMiss[i]);
    return avg;
}

SuiteResults
runSuite(const hier::HierarchyParams &params,
         const TraceStore &store, std::size_t jobs)
{
    return runSuite(params, store.specs(), store.traces(), jobs);
}

} // namespace expt
} // namespace mlc
