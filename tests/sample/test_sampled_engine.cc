/** @file End-to-end checks of the sampled engine against full
 *  timed replay on a shared synthetic workload.
 *
 *  The workload is a stationary SyntheticTraceSource stream with a
 *  bounded-footprint Pareto profile: bounded state memory keeps the
 *  functional-warming bias small at unit-test scale (the bias study
 *  lives in DESIGN.md §5d; the at-scale accuracy claim is owned by
 *  bench/sampled_vs_full). Accuracy tests run at high warming
 *  coverage; the skip-heavy schedule shape is exercised by the
 *  accounting test, which asserts bookkeeping rather than accuracy.
 */

#include <gtest/gtest.h>

#include "expt/runner.hh"
#include "hier/hierarchy.hh"
#include "sample/engine.hh"
#include "sampled_suite.hh"
#include "trace/synthetic_source.hh"

namespace mlc {
namespace sample {
namespace {

using straight_line::buildGrid;
using straight_line::runSuiteSampled;
using straight_line::SampledSuiteResults;

const std::vector<trace::MemRef> &
workload()
{
    static const std::vector<trace::MemRef> refs = [] {
        trace::SyntheticTraceParams p;
        p.totalRefs = 4'000'000;
        p.processes = 4;
        p.switchInterval = 8'000;
        p.profile =
            trace::StackDepthProfile::pareto(0.60, 4.0, 1u << 12);
        trace::SyntheticTraceSource src(p, 7);
        std::vector<trace::MemRef> out(p.totalRefs);
        src.nextBatch(out.data(), out.size());
        return out;
    }();
    return refs;
}

trace::RefSpan
span()
{
    return {workload().data(), workload().size()};
}

double
groundTruthCpi()
{
    static const double cpi = [] {
        hier::HierarchySimulator sim(
            hier::HierarchyParams::baseMachine());
        sim.run(span());
        return sim.results().cpi;
    }();
    return cpi;
}

/** High-coverage schedule: warming long enough that the staleness
 *  bias stays well inside the interval (measured ~1% here). */
SampledOptions
options()
{
    SampledOptions o;
    o.period = 100'000;
    o.measureRefs = 20'000;
    o.detailWarmRefs = 2'000;
    o.functionalWarmRefs = 60'000;
    return o;
}

/** Skip-heavy schedule for bookkeeping checks (most of the trace
 *  untouched, as in production use). */
SampledOptions
skippingOptions()
{
    SampledOptions o;
    o.period = 100'000;
    o.measureRefs = 5'000;
    o.detailWarmRefs = 2'000;
    o.functionalWarmRefs = 20'000;
    return o;
}

TEST(SampledEngine, GroundTruthCpiInsideInterval)
{
    const SampledResult r = runSampled(
        hier::HierarchyParams::baseMachine(), span(), options());
    const double truth = groundTruthCpi();
    EXPECT_TRUE(r.cpiInterval.contains(truth))
        << "true CPI " << truth << " outside ["
        << r.cpiInterval.lo() << ", " << r.cpiInterval.hi() << "]";
    EXPECT_NEAR(r.estCpi, truth, 0.02 * truth);
}

TEST(SampledEngine, DeterministicAcrossRuns)
{
    const SampledResult a = runSampled(
        hier::HierarchyParams::baseMachine(), span(), options());
    const SampledResult b = runSampled(
        hier::HierarchyParams::baseMachine(), span(), options());
    EXPECT_EQ(a.estCpi, b.estCpi);
    EXPECT_EQ(a.cpiInterval.halfWidth, b.cpiInterval.halfWidth);
    EXPECT_EQ(a.windowCpi.count(), b.windowCpi.count());
}

TEST(SampledEngine, AccountingSumsToTotal)
{
    const SampledResult r =
        runSampled(hier::HierarchyParams::baseMachine(), span(),
                   skippingOptions());
    EXPECT_EQ(r.refsMeasured + r.refsDetailWarmed +
                  r.refsFunctionalWarmed + r.refsSkipped,
              r.refsTotal);
    EXPECT_EQ(r.refsTotal, workload().size());
    // The whole point: most references are never replayed.
    EXPECT_GT(r.refsSkipped, r.refsTotal / 2);
    EXPECT_EQ(r.windowCpi.count(), 40u);
}

TEST(SampledEngine, RandomPlacementAlsoContainsTruth)
{
    SampledOptions o = options();
    o.mode = SampleMode::Random;
    o.seed = 3;
    const SampledResult r = runSampled(
        hier::HierarchyParams::baseMachine(), span(), o);
    const double truth = groundTruthCpi();
    EXPECT_TRUE(r.cpiInterval.contains(truth))
        << "true CPI " << truth << " outside ["
        << r.cpiInterval.lo() << ", " << r.cpiInterval.hi() << "]";
}

TEST(SampledEngine, AdaptiveStopTerminatesEarly)
{
    SampledOptions o = options();
    o.targetRelHalfWidth = 0.05; // loose: a few windows suffice
    o.minWindows = 10;
    const SampledResult r = runSampled(
        hier::HierarchyParams::baseMachine(), span(), o);
    EXPECT_TRUE(r.stoppedEarly);
    EXPECT_LT(r.windowCpi.count(), 40u);
    EXPECT_GE(r.windowCpi.count(), 10u);
    EXPECT_LE(r.cpiInterval.relativeHalfWidth(), 0.05);
    // An early stop estimates the CPI of the prefix it actually
    // measured; the start of the trace is colder than the whole,
    // so only a neighbourhood check against full-trace truth is
    // meaningful here.
    EXPECT_NEAR(r.estCpi, groundTruthCpi(),
                0.10 * groundTruthCpi());
}

TEST(SampledEngine, SuiteIsJobsInvariant)
{
    std::vector<expt::TraceSpec> specs;
    for (std::uint64_t v = 0; v < 3; ++v) {
        expt::TraceSpec s;
        s.name = "t";
        s.name += std::to_string(v);
        s.variant = v;
        s.processes = 3;
        s.warmupRefs = 0;
        s.measureRefs = 400'000;
        specs.push_back(s);
    }
    const auto store =
        expt::TraceStore::materialize(std::move(specs));

    SampledOptions o = skippingOptions();
    o.period = 10'000;
    o.measureRefs = 1'000;
    o.detailWarmRefs = 500;
    o.functionalWarmRefs = 6'000;
    const SampledSuiteResults serial = runSuiteSampled(
        hier::HierarchyParams::baseMachine(), store, o, 1);
    const SampledSuiteResults parallel = runSuiteSampled(
        hier::HierarchyParams::baseMachine(), store, o, 4);
    EXPECT_EQ(serial.relExecTime, parallel.relExecTime);
    EXPECT_EQ(serial.cpi, parallel.cpi);
    EXPECT_EQ(serial.traces, 3u);
    ASSERT_EQ(serial.perTrace.size(), parallel.perTrace.size());
    for (std::size_t t = 0; t < serial.perTrace.size(); ++t)
        EXPECT_EQ(serial.perTrace[t].estCpi,
                  parallel.perTrace[t].estCpi);
}

TEST(SampledEngine, GridMatchesDirectSuiteRuns)
{
    std::vector<expt::TraceSpec> specs;
    expt::TraceSpec s;
    s.name = "g";
    s.variant = 1;
    s.processes = 3;
    s.warmupRefs = 0;
    s.measureRefs = 300'000;
    specs.push_back(s);
    const auto store =
        expt::TraceStore::materialize(std::move(specs));

    SampledOptions o = skippingOptions();
    o.period = 10'000;
    o.measureRefs = 1'000;
    o.detailWarmRefs = 500;
    o.functionalWarmRefs = 6'000;
    const std::vector<std::uint64_t> sizes = {64 * 1024,
                                              512 * 1024};
    const std::vector<std::uint32_t> cycles = {2, 6};
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const auto grid =
        buildGrid(base, sizes, cycles, store, o, 2);
    for (std::size_t si = 0; si < sizes.size(); ++si)
        for (std::size_t ci = 0; ci < cycles.size(); ++ci) {
            const double direct =
                runSuiteSampled(
                    base.withL2(sizes[si], cycles[ci]), store, o)
                    .relExecTime;
            EXPECT_EQ(grid.at(si, ci), direct);
        }
    // Sanity: a bigger, faster L2 must not be slower.
    EXPECT_LE(grid.at(1, 0), grid.at(0, 1));
}

} // namespace
} // namespace sample
} // namespace mlc
