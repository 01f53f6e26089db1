/** @file Determinism and equivalence coverage for the parallel
 *  sweep engine: jobs=1 and jobs=N must produce bit-identical
 *  grids and suite results, and the shared TraceStore must
 *  materialize the same streams regardless of worker count. */

#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "expt/design_space.hh"
#include "expt/runner.hh"

namespace mlc {
namespace expt {
namespace {

std::vector<TraceSpec>
tinySuite()
{
    auto suite = gridSuite();
    suite.resize(3);
    for (auto &spec : suite) {
        spec.warmupRefs = 20000;
        spec.measureRefs = 60000;
    }
    return suite;
}

/** Exact (bitwise) equality across two grids. */
void
expectGridsIdentical(const DesignSpaceGrid &a,
                     const DesignSpaceGrid &b)
{
    ASSERT_EQ(a.sizes(), b.sizes());
    ASSERT_EQ(a.cycles(), b.cycles());
    for (std::size_t s = 0; s < a.sizes().size(); ++s)
        for (std::size_t c = 0; c < a.cycles().size(); ++c)
            EXPECT_EQ(a.at(s, c), b.at(s, c))
                << "cell (" << s << "," << c << ")";
}

TEST(ParallelSweep, AnalyticGridBitIdenticalAcrossJobCounts)
{
    const auto eval = [](std::uint64_t size, std::uint32_t cyc) {
        return 1.0 +
               0.1 * static_cast<double>(cyc) /
                   std::log2(static_cast<double>(size));
    };
    const auto sizes = paperSizes();
    const auto cycles = paperCycles();
    const DesignSpaceGrid serial =
        parallelBuildGrid(sizes, cycles, eval, 1);
    const DesignSpaceGrid parallel4 =
        parallelBuildGrid(sizes, cycles, eval, 4);
    const DesignSpaceGrid parallel7 =
        parallelBuildGrid(sizes, cycles, eval, 7);
    expectGridsIdentical(serial, parallel4);
    expectGridsIdentical(serial, parallel7);
}

TEST(ParallelSweep, SimulatedGridBitIdenticalAcrossJobCounts)
{
    const auto specs = tinySuite();
    const TraceStore store = TraceStore::materialize(specs);
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const auto eval = [&](std::uint64_t size, std::uint32_t cyc) {
        return runSuite(base.withL2(size, cyc), store).relExecTime;
    };
    const std::vector<std::uint64_t> sizes = {16 << 10, 64 << 10,
                                              256 << 10};
    const std::vector<std::uint32_t> cycles = {1, 3, 5};
    const DesignSpaceGrid serial =
        parallelBuildGrid(sizes, cycles, eval, 1);
    const DesignSpaceGrid parallel =
        parallelBuildGrid(sizes, cycles, eval, 4);
    expectGridsIdentical(serial, parallel);
}

using MachineFor =
    std::function<hier::HierarchyParams(std::uint64_t, std::uint32_t)>;

/** The store-driven grid, which runs the back end over FrontLogs
 *  or only the timeline over LevelTapes, equals runSuite's raw
 *  replay cell by cell at jobs 1, 4 and 7. */
void
expectStoreGridEqualsRunSuite(
    const TraceStore &store, const MachineFor &machineFor,
    const std::vector<std::uint32_t> &cycles = {1, 2, 3, 5})
{
    const std::vector<std::uint64_t> sizes = {16 << 10, 64 << 10,
                                              256 << 10};
    std::vector<double> want;
    for (const std::uint64_t size : sizes)
        for (const std::uint32_t cyc : cycles)
            want.push_back(
                runSuite(machineFor(size, cyc), store, 1).relExecTime);
    for (const std::size_t jobs : {1u, 4u, 7u}) {
        const DesignSpaceGrid grid =
            parallelBuildGrid(sizes, cycles, store, machineFor, jobs);
        for (std::size_t s = 0; s < sizes.size(); ++s)
            for (std::size_t c = 0; c < cycles.size(); ++c)
                EXPECT_EQ(grid.at(s, c), want[s * cycles.size() + c])
                    << "jobs " << jobs << " cell (" << s << "," << c
                    << ")";
    }
}

TEST(ParallelSweep, StoreGridEqualsPerCellRunSuite)
{
    const TraceStore store = TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    expectStoreGridEqualsRunSuite(
        store, [&](std::uint64_t size, std::uint32_t cyc) {
            return base.withL2(size, cyc);
        });
}

TEST(ParallelSweep, StoreGridWithTwoL1sEqualsPerCellRunSuite)
{
    // Alternating L1 sizes: two logs per trace. Some cells also ask
    // for solo arrays, which the grid drops (they never touch
    // timing) and runSuite keeps.
    const TraceStore store = TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    expectStoreGridEqualsRunSuite(
        store, [&](std::uint64_t size, std::uint32_t cyc) {
            hier::HierarchyParams p =
                (cyc % 2 == 1 ? base : base.withL1Total(16 << 10))
                    .withL2(size, cyc);
            p.measureSolo = cyc == 3;
            return p;
        });
}

TEST(ParallelSweep, StoreGridOverDeferredStoreEqualsPerCellRunSuite)
{
    const TraceStore store = TraceStore::deferred(tinySuite());
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    expectStoreGridEqualsRunSuite(
        store, [&](std::uint64_t size, std::uint32_t cyc) {
            return base.withL2(size, cyc);
        });
}

TEST(ParallelSweep, StoreGridOverThreeLevelsEqualsPerCellRunSuite)
{
    // The L3's cycle time moves along a column; its tapes hold both
    // levels' decisions.
    const TraceStore store = TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    expectStoreGridEqualsRunSuite(
        store, [&](std::uint64_t size, std::uint32_t cyc) {
            hier::HierarchyParams p = base.withL2(size, 2);
            cache::CacheParams l3 = p.levels.back();
            l3.name = "l3";
            l3.geometry.sizeBytes = 1u << 20;
            l3.geometry.blockBytes = 64;
            l3.cycleNs = 10.0 * (4 + 2 * cyc);
            p.levels.push_back(l3);
            p.busWidthWords.push_back(p.busWidthWords.back());
            return p;
        });
}

TEST(ParallelSweep, StoreGridWithWriteThroughL2EqualsPerCellRunSuite)
{
    const TraceStore store = TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    expectStoreGridEqualsRunSuite(
        store, [&](std::uint64_t size, std::uint32_t cyc) {
            hier::HierarchyParams p = base.withL2(size, cyc);
            p.levels[0].writePolicy = cache::WritePolicy::WriteThrough;
            return p;
        });
}

TEST(ParallelSweep, StoreGridWithAllocatingL2EqualsPerCellRunSuite)
{
    // Victims and stores that miss the L2 allocate there: the tape
    // holds those misses' fills and victims too.
    const TraceStore store = TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    expectStoreGridEqualsRunSuite(
        store, [&](std::uint64_t size, std::uint32_t cyc) {
            hier::HierarchyParams p = base.withL2(size, cyc);
            p.levels[0].downstreamWriteMiss =
                cache::DownstreamWriteMissPolicy::Allocate;
            return p;
        });
}

TEST(ParallelSweep, StoreGridWithTwoHierarchiesPerColumnEqualsPerCellRunSuite)
{
    // The L2's associativity follows the cycle's parity, so each
    // column holds two functional hierarchies of three cells: each
    // records its own tape per trace, and its third cell reads it.
    const TraceStore store = TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    expectStoreGridEqualsRunSuite(
        store,
        [&](std::uint64_t size, std::uint32_t cyc) {
            return base.withL2(size, cyc, cyc % 2 == 0 ? 2 : 1);
        },
        {1, 2, 3, 4, 5, 6});
}

TEST(ParallelSweep, StoreGridCallsMachineForOncePerCell)
{
    const TraceStore store = TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const std::vector<std::uint64_t> sizes = {16 << 10, 64 << 10,
                                              256 << 10};
    const std::vector<std::uint32_t> cycles = {1, 3, 5};
    for (const std::size_t jobs : {1u, 4u, 7u}) {
        std::mutex mu;
        std::map<std::pair<std::uint64_t, std::uint32_t>, int> calls;
        parallelBuildGrid(
            sizes, cycles, store,
            [&](std::uint64_t size, std::uint32_t cyc) {
                std::lock_guard<std::mutex> lk(mu);
                ++calls[{size, cyc}];
                return base.withL2(size, cyc);
            },
            jobs);
        EXPECT_EQ(calls.size(), sizes.size() * cycles.size())
            << "jobs " << jobs;
        for (const auto &[cell, n] : calls)
            EXPECT_EQ(n, 1) << "jobs " << jobs << " cell " << cell.first
                            << "/" << cell.second;
    }
}

TEST(ParallelSweep, StoreGridRethrowsAFailedLogBuild)
{
    // Trace 1 fails to load, so its log's build throws. The grid
    // rethrows it, and the cells that wait on that log get the same
    // error rather than hang.
    const std::vector<TraceSpec> specs = tinySuite();
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const auto machineFor = [&](std::uint64_t size, std::uint32_t cyc) {
        return base.withL2(size, cyc);
    };
    for (const std::size_t jobs : {1u, 4u, 7u}) {
        const TraceStore store = TraceStore::deferred(
            specs, [&](const TraceSpec &spec) {
                if (spec.name == specs[1].name)
                    throw std::runtime_error("trace 1 unreadable");
                return materialize(spec);
            });
        EXPECT_THROW(parallelBuildGrid({16 << 10, 64 << 10}, {1, 3, 5},
                                       store, machineFor, jobs),
                     std::runtime_error)
            << "jobs " << jobs;
    }
}

TEST(ParallelSweep, ParallelRunSuiteMatchesSerialBitForBit)
{
    const auto specs = tinySuite();
    const TraceStore store = TraceStore::materialize(specs);
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
    p.measureSolo = true;

    const SuiteResults serial = runSuite(p, store, 1);
    const SuiteResults parallel = runSuite(p, store, 4);

    EXPECT_EQ(serial.traces, parallel.traces);
    EXPECT_EQ(serial.relExecTime, parallel.relExecTime);
    EXPECT_EQ(serial.cpi, parallel.cpi);
    EXPECT_EQ(serial.l1LocalMiss, parallel.l1LocalMiss);
    EXPECT_EQ(serial.meanL1MissPenaltyCycles,
              parallel.meanL1MissPenaltyCycles);
    EXPECT_EQ(serial.relExecTimeStdDev, parallel.relExecTimeStdDev);
    EXPECT_EQ(serial.localMiss, parallel.localMiss);
    EXPECT_EQ(serial.globalMiss, parallel.globalMiss);
    EXPECT_EQ(serial.soloMiss, parallel.soloMiss);
    EXPECT_EQ(serial.soloMissStdDev, parallel.soloMissStdDev);
}

TEST(ParallelSweep, ParallelRunSuiteMatchesLegacySerialOverload)
{
    const auto specs = tinySuite();
    const TraceStore store = TraceStore::materialize(specs);
    const hier::HierarchyParams p =
        hier::HierarchyParams::baseMachine();
    // The pre-materialized overload with default jobs must agree
    // with the TraceStore path.
    const SuiteResults legacy =
        runSuite(p, store.specs(), store.traces());
    const SuiteResults parallel = runSuite(p, store, 4);
    EXPECT_EQ(legacy.relExecTime, parallel.relExecTime);
    EXPECT_EQ(legacy.cpi, parallel.cpi);
    EXPECT_EQ(legacy.localMiss, parallel.localMiss);
}

TEST(ParallelSweep, TraceStoreMaterializeIdenticalAcrossJobCounts)
{
    const auto specs = tinySuite();
    const TraceStore serial = TraceStore::materialize(specs, 1);
    const TraceStore parallel = TraceStore::materialize(specs, 3);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial.specs()[i].name, parallel.specs()[i].name);
        EXPECT_EQ(serial.traces()[i], parallel.traces()[i])
            << "trace " << i;
    }
}

TEST(ParallelSweep, GridIndexOutOfRangeDies)
{
    DesignSpaceGrid g({4096, 8192}, {1, 2});
    g.set(0, 0, 1.0);
    EXPECT_DEATH(g.at(2, 0), "out of range");
    EXPECT_DEATH(g.at(0, 2), "out of range");
    EXPECT_DEATH(g.set(2, 0, 1.0), "out of range");
    EXPECT_DEATH(g.set(0, 2, 1.0), "out of range");
}

TEST(ParallelSweep, BuildGridSurfacesEvalExceptions)
{
    const auto sizes = paperSizes();
    const auto cycles = paperCycles();
    const auto eval = [](std::uint64_t size,
                         std::uint32_t) -> double {
        if (size == (64 << 10))
            throw std::runtime_error("bad cell");
        return 1.0;
    };
    EXPECT_THROW(parallelBuildGrid(sizes, cycles, eval, 4),
                 std::runtime_error);
    EXPECT_THROW(parallelBuildGrid(sizes, cycles, eval, 1),
                 std::runtime_error);
}

} // namespace
} // namespace expt
} // namespace mlc
