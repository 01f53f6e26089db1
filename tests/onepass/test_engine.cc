/** @file End-to-end coverage of the one-pass engine: bit-exact
 *  cross-check against the timing simulator, determinism across
 *  worker counts, the Equation 1-3 latency constants of the base
 *  machine, and the fully-associative diagnostic bound. */

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "expt/design_space.hh"
#include "onepass/engine.hh"
#include "onepass/grid.hh"
#include "onepass/model_timing.hh"
#include "onepass/pipeline.hh"
#include "onepass/validate.hh"
#include "trace/stack_distance.hh"

namespace mlc {
namespace onepass {
namespace {

std::vector<expt::TraceSpec>
tinySuite()
{
    auto suite = expt::gridSuite();
    suite.resize(3);
    for (auto &spec : suite) {
        spec.warmupRefs = 20000;
        spec.measureRefs = 60000;
    }
    return suite;
}

TEST(OnePassEngine, CrossCheckBitExactAgainstTimingSimulator)
{
    const expt::TraceStore store =
        expt::TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const FamilySpec family = FamilySpec::l2Grid(
        base, {16 << 10, 64 << 10, 256 << 10});

    const CrossCheckReport report =
        crossCheck(base, family, store, 4, /*solo=*/true);
    ASSERT_EQ(report.rows.size(),
              store.size() * family.configs.size());
    for (const CrossCheckRow &row : report.rows)
        EXPECT_TRUE(row.match())
            << row.traceName << " " << row.spec.toString() << ": "
            << row.onepassReads << "/" << row.onepassMisses
            << " vs " << row.timingReads << "/" << row.timingMisses;
    EXPECT_TRUE(report.allMatch());
    EXPECT_EQ(report.mismatchCount(), 0u);
}

TEST(OnePassEngine, CrossCheckBitExactAcrossAssocAndBlockSizes)
{
    const expt::TraceStore store =
        expt::TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const FamilySpec family = FamilySpec::crossProduct(
        {32 << 10, 128 << 10}, {1, 2}, {32, 64});

    const CrossCheckReport report =
        crossCheck(base, family, store, 4);
    ASSERT_EQ(report.rows.size(),
              store.size() * family.configs.size());
    EXPECT_TRUE(report.allMatch());
}

TEST(OnePassEngine, ProfileSuiteIdenticalAcrossJobCounts)
{
    const expt::TraceStore store =
        expt::TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    // Mixed block sizes: one L1 replay feeds both block groups of
    // each trace, and the traces spread over the jobs.
    const FamilySpec family = FamilySpec::crossProduct(
        {32 << 10, 128 << 10}, {1, 2}, {32, 64});

    const auto serial = profileStore(base, {{}, family}, store, 1,
                                     true, true, ExactSinks{});
    const auto parallel = profileStore(base, {{}, family}, store, 5,
                                       true, true, ExactSinks{});
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t t = 0; t < serial.size(); ++t) {
        const TraceProfile &a = serial[t];
        const TraceProfile &b = parallel[t];
        EXPECT_EQ(a.traceName, b.traceName);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.stores, b.stores);
        EXPECT_EQ(a.l1ReadRequests, b.l1ReadRequests);
        EXPECT_EQ(a.l1ReadMisses, b.l1ReadMisses);
        ASSERT_EQ(a.configs.size(), b.configs.size());
        for (std::size_t i = 0; i < a.configs.size(); ++i) {
            EXPECT_TRUE(a.configs[i].spec == b.configs[i].spec);
            EXPECT_EQ(a.configs[i].filtered.reads,
                      b.configs[i].filtered.reads);
            EXPECT_EQ(a.configs[i].filtered.readMisses,
                      b.configs[i].filtered.readMisses);
            EXPECT_EQ(a.configs[i].solo.reads,
                      b.configs[i].solo.reads);
            EXPECT_EQ(a.configs[i].solo.readMisses,
                      b.configs[i].solo.readMisses);
            EXPECT_EQ(a.configs[i].faMissRatio,
                      b.configs[i].faMissRatio);
            EXPECT_EQ(a.configs[i].faCompulsory,
                      b.configs[i].faCompulsory);
        }
    }
}

TEST(OnePassEngine, BuildGridBitIdenticalAcrossJobCounts)
{
    const expt::TraceStore store =
        expt::TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const std::vector<std::uint64_t> sizes = {16 << 10, 64 << 10,
                                              256 << 10};
    const std::vector<std::uint32_t> cycles = {1, 3, 5};

    const expt::DesignSpaceGrid serial =
        buildGrid(base, sizes, cycles, store, 1);
    const expt::DesignSpaceGrid parallel =
        buildGrid(base, sizes, cycles, store, 4);
    ASSERT_EQ(serial.sizes(), parallel.sizes());
    ASSERT_EQ(serial.cycles(), parallel.cycles());
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        for (std::size_t c = 0; c < cycles.size(); ++c) {
            EXPECT_EQ(serial.at(s, c), parallel.at(s, c))
                << "cell (" << s << "," << c << ")";
            // Relative execution time is bounded below by the
            // ideal machine and grows with the L2 cycle time.
            EXPECT_GE(serial.at(s, c), 1.0);
            if (c > 0) {
                EXPECT_GE(serial.at(s, c), serial.at(s, c - 1));
            }
        }
    }
}

TEST(OnePassEngine, EqTimingModelReproducesBaseMachineLatencies)
{
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    // The paper's base two-level machine: an L2 read takes 3 CPU
    // cycles at a 3-cycle array, a main-memory read 27 (270ns at a
    // 10ns CPU cycle), and a store costs 1 extra cycle in the
    // write-back L1.
    const EqTimingModel model =
        EqTimingModel::forMachine(base.withL2(512 << 10, 3));
    EXPECT_DOUBLE_EQ(model.nL2(), 3.0);
    EXPECT_DOUBLE_EQ(model.nMMread(), 27.0);
    EXPECT_DOUBLE_EQ(model.writeExtra(), 1.0);

    const EqTimingModel fast =
        EqTimingModel::forMachine(base.withL2(512 << 10, 1));
    EXPECT_DOUBLE_EQ(fast.nL2(), 1.0);
    EXPECT_DOUBLE_EQ(fast.nMMread(), 27.0);
}

TEST(OnePassEngine, FaBoundMatchesBruteForceCompulsoryCount)
{
    const expt::TraceStore store = expt::TraceStore::materialize(
        {tinySuite()[0]});
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const FamilySpec family =
        FamilySpec::l2Grid(base, {64 << 10});
    const auto profiles = profileStore(base, {{}, family}, store, 1,
                                       false, true, ExactSinks{});
    ASSERT_EQ(profiles.size(), 1u);
    const ConfigProfile &cfg = profiles[0].configs[0];

    // Brute force over the same raw stream at the config's block
    // size (the FA diagnostic spans warm-up and measurement).
    std::set<Addr> blocks;
    for (const trace::MemRef &ref : store.traces()[0])
        blocks.insert(ref.addr / cfg.spec.blockBytes);
    EXPECT_EQ(cfg.faCompulsory, blocks.size());
    EXPECT_GE(cfg.faMissRatio, 0.0);
    EXPECT_LE(cfg.faMissRatio, 1.0);
}

TEST(OnePassEngine, L2GridUsesBaseGeometry)
{
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const FamilySpec family =
        FamilySpec::l2Grid(base, {16 << 10, 64 << 10});
    ASSERT_EQ(family.configs.size(), 2u);
    for (const GhostCacheSpec &spec : family.configs) {
        EXPECT_EQ(spec.assoc, base.levels[0].geometry.assoc);
        EXPECT_EQ(spec.blockBytes,
                  base.levels[0].geometry.blockBytes);
    }
    EXPECT_EQ(family.configs[0].sizeBytes, 16u << 10);
    EXPECT_EQ(family.configs[1].sizeBytes, 64u << 10);
}

TEST(OnePassEngineDeathTest, RejectsBlockSmallerThanL1Fill)
{
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    FamilySpec family;
    family.configs.push_back(GhostCacheSpec{64 << 10, 1, 8});
    const std::vector<trace::MemRef> refs = {trace::makeLoad(0)};
    EXPECT_DEATH(profileTrace(base, family, refs, 0),
                 "smaller block");
}

} // namespace
} // namespace onepass
} // namespace mlc
