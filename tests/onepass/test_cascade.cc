/** @file Cascade (three-level) one-pass engine coverage: bit-exact
 *  cross-check against the timing simulator across pivot x member
 *  families, randomized geometries, warm-boundary edges, one-set
 *  caches and shard counts, plus the N-level Equation-1 model. */

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "expt/runner.hh"
#include "model/exec_time.hh"
#include "onepass/cascade.hh"
#include "onepass/model_timing.hh"
#include "onepass/pipeline.hh"
#include "onepass/validate.hh"
#include "trace/interleave.hh"
#include "trace/mem_ref.hh"

namespace mlc {
namespace onepass {
namespace {

std::vector<expt::TraceSpec>
tinySuite()
{
    auto suite = expt::gridSuite();
    suite.resize(2);
    for (auto &spec : suite) {
        spec.warmupRefs = 20000;
        spec.measureRefs = 50000;
    }
    return suite;
}

/** The golden 3-level shape of bench/table_hierarchy_depth: a
 *  small fast L2 backed by a large 2-way L3. */
hier::HierarchyParams
threeLevelBase()
{
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
    p.levels[0].geometry.sizeBytes = 64 << 10;
    p.levels[0].cycleNs = 20.0;
    cache::CacheParams l3;
    l3.name = "l3";
    l3.geometry.sizeBytes = 1 << 20;
    l3.geometry.blockBytes = 32;
    l3.geometry.assoc = 2;
    l3.cycleNs = 50.0;
    p.levels.push_back(l3);
    p.busWidthWords = {4, 4, 4};
    p.backplaneCycleNs = 50.0;
    return p;
}

CascadeFamilySpec
jointFamily(const hier::HierarchyParams &base,
            const std::vector<std::uint64_t> &l2_sizes,
            const std::vector<std::uint64_t> &l3_sizes)
{
    CascadeFamilySpec family;
    for (std::uint64_t s : l2_sizes)
        family.pivots.push_back(
            {s, base.levels[0].geometry.assoc,
             base.levels[0].geometry.blockBytes});
    for (std::uint64_t s : l3_sizes)
        family.l3.configs.push_back(
            {s, base.levels[1].geometry.assoc,
             base.levels[1].geometry.blockBytes});
    return family;
}

bool
sameProfile(const TraceProfile &a, const TraceProfile &b)
{
    if (a.instructions != b.instructions ||
        a.stores != b.stores ||
        a.l1ReadRequests != b.l1ReadRequests ||
        a.l1ReadMisses != b.l1ReadMisses ||
        a.pivotChain.size() != b.pivotChain.size() ||
        a.configs.size() != b.configs.size())
        return false;
    for (std::size_t k = 0; k < a.pivotChain.size(); ++k) {
        const PivotLink &x = a.pivotChain[k];
        const PivotLink &y = b.pivotChain[k];
        if (!(x.spec == y.spec) ||
            x.counts.reads != y.counts.reads ||
            x.counts.readMisses != y.counts.readMisses ||
            x.counts.extraAccesses != y.counts.extraAccesses ||
            x.counts.extraMisses != y.counts.extraMisses ||
            x.solo.reads != y.solo.reads ||
            x.solo.readMisses != y.solo.readMisses)
            return false;
    }
    for (std::size_t m = 0; m < a.configs.size(); ++m) {
        const ConfigProfile &x = a.configs[m];
        const ConfigProfile &y = b.configs[m];
        if (!(x.spec == y.spec) ||
            x.filtered.reads != y.filtered.reads ||
            x.filtered.readMisses != y.filtered.readMisses ||
            x.filtered.extraAccesses != y.filtered.extraAccesses ||
            x.filtered.extraMisses != y.filtered.extraMisses ||
            x.solo.reads != y.solo.reads ||
            x.solo.readMisses != y.solo.readMisses ||
            x.faMissRatio != y.faMissRatio ||
            x.faCompulsory != y.faCompulsory)
            return false;
    }
    return true;
}

TEST(CascadeEngine, CrossCheckBitExactOnGoldenThreeLevel)
{
    const expt::TraceStore store =
        expt::TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base = threeLevelBase();
    const CascadeFamilySpec family = jointFamily(
        base, {32 << 10, 64 << 10}, {512 << 10, 1 << 20});

    const CrossCheckReport report =
        crossCheckCascade(base, family, store, 4, /*solo=*/true);
    ASSERT_EQ(report.rows.size(),
              store.size() * family.pivots.size() *
                  family.l3.configs.size());
    for (const CrossCheckRow &row : report.rows)
        EXPECT_TRUE(row.match())
            << row.traceName << " " << row.spec.toString() << ": "
            << row.onepassReads << "/" << row.onepassMisses
            << " vs " << row.timingReads << "/" << row.timingMisses
            << (row.pivotMatch ? "" : " (pivot)")
            << (row.l1Match ? "" : " (l1)");
    EXPECT_TRUE(report.allMatch());
}

TEST(CascadeEngine, CrossCheckAcrossPivotAssocAndBlockSizes)
{
    const expt::TraceStore store =
        expt::TraceStore::materialize(tinySuite());
    hier::HierarchyParams base = threeLevelBase();
    // Mixed pivot geometries exercise the per-pair block ordering
    // and the LRU victim order above one way.
    base.levels[0].geometry.assoc = 2;
    CascadeFamilySpec family;
    family.pivots.push_back({32 << 10, 1, 32});
    family.pivots.push_back({64 << 10, 2, 64});
    family.l3.configs.push_back({512 << 10, 2, 64});
    family.l3.configs.push_back({1 << 20, 1, 128});

    const CrossCheckReport report =
        crossCheckCascade(base, family, store, 4);
    ASSERT_EQ(report.rows.size(),
              store.size() * family.pivots.size() *
                  family.l3.configs.size());
    EXPECT_TRUE(report.allMatch());
}

TEST(CascadeEngine, OneSetCachesCrossCheck)
{
    const expt::TraceStore store = expt::TraceStore::materialize(
        {tinySuite()[0]});
    hier::HierarchyParams base = threeLevelBase();
    base.levels[0].geometry.assoc = 2;
    CascadeFamilySpec family;
    // One-set pivot (64B = 2 ways x 32B) over a one-set member
    // (128B = 4 ways x 32B): the degenerate shard-clamp path.
    family.pivots.push_back({64, 2, 32});
    family.l3.configs.push_back({128, 4, 32});
    family.l3.configs.push_back({64 << 10, 2, 32});

    const CrossCheckReport report =
        crossCheckCascade(base, family, store, 2, /*solo=*/true);
    EXPECT_TRUE(report.allMatch());
}

TEST(CascadeEngine, ShardCountsBitIdentical)
{
    const expt::TraceStore store =
        expt::TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base = threeLevelBase();
    const CascadeFamilySpec family = jointFamily(
        base, {32 << 10, 128 << 10}, {256 << 10, 1 << 20});

    ProfileOptions scalar_opts;
    scalar_opts.solo = true;
    scalar_opts.faBound = true;
    const auto scalar = profileCascadeTrace(
        base, family, store.traces()[0], 20000, scalar_opts);
    for (const std::size_t s : {2u, 7u, 8u}) {
        ProfileOptions opts = scalar_opts;
        opts.shards = s;
        const auto sharded = profileCascadeTrace(
            base, family, store.traces()[0], 20000, opts);
        ASSERT_EQ(scalar.size(), sharded.size());
        for (std::size_t p = 0; p < scalar.size(); ++p)
            EXPECT_TRUE(sameProfile(scalar[p], sharded[p]))
                << "pivot " << p << " shards " << s;
    }
}

TEST(CascadeEngine, SuiteBitIdenticalAcrossJobCounts)
{
    const expt::TraceStore store =
        expt::TraceStore::materialize(tinySuite());
    const hier::HierarchyParams base = threeLevelBase();
    const CascadeFamilySpec family = jointFamily(
        base, {32 << 10, 64 << 10}, {512 << 10, 2 << 20});

    // Pivot-major: entry i is pivot i / traces, trace i % traces.
    const auto serial =
        profileStore(base, family, store, 1, true, false, ExactSinks{});
    const auto parallel =
        profileStore(base, family, store, 5, true, false, ExactSinks{});
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), family.pivots.size() * store.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].traceName, parallel[i].traceName);
        EXPECT_TRUE(sameProfile(serial[i], parallel[i]))
            << "pivot " << i / store.size() << " trace "
            << i % store.size();
    }
}

TEST(CascadeEngine, WarmBoundaryEdgesMatchTimingSimulator)
{
    // A stream whose tail hits entirely in the L1, so the warm
    // boundary can fall after the last departing event (the
    // past-the-end reset path), plus warmup at 0, mid-stream and
    // the final reference.
    auto gen = trace::makeMultiprogrammedWorkload(2, 3000, 7);
    std::vector<trace::MemRef> refs = trace::collect(*gen, 30000);
    for (int i = 0; i < 64; ++i)
        refs.push_back(trace::makeLoad(64));

    const hier::HierarchyParams base = threeLevelBase();
    const CascadeFamilySpec family =
        jointFamily(base, {32 << 10}, {512 << 10});
    for (const std::uint64_t warm :
         {std::uint64_t{0}, std::uint64_t{15000},
          std::uint64_t{refs.size() - 32},
          std::uint64_t{refs.size() - 1}}) {
        ProfileOptions opts;
        opts.solo = true;
        opts.shards = 3;
        const auto profiles =
            profileCascadeTrace(base, family, refs, warm, opts);
        ASSERT_EQ(profiles.size(), 1u);
        const TraceProfile &prof = profiles[0];

        hier::HierarchyParams p = base;
        p.levels[0].geometry.sizeBytes = 32 << 10;
        p.levels[1].geometry.sizeBytes = 512 << 10;
        p.measureSolo = true;
        const hier::SimResults r = expt::runOnTrace(p, refs, warm);

        EXPECT_EQ(prof.l1ReadRequests,
                  r.levels[0].readRequests) << "warm=" << warm;
        EXPECT_EQ(prof.l1ReadMisses, r.levels[0].readMisses);
        EXPECT_EQ(prof.pivotChain[0].counts.reads,
                  r.levels[1].readRequests) << "warm=" << warm;
        EXPECT_EQ(prof.pivotChain[0].counts.readMisses,
                  r.levels[1].readMisses) << "warm=" << warm;
        EXPECT_EQ(prof.configs[0].filtered.reads,
                  r.levels[2].readRequests) << "warm=" << warm;
        EXPECT_EQ(prof.configs[0].filtered.readMisses,
                  r.levels[2].readMisses) << "warm=" << warm;
        EXPECT_EQ(prof.configs[0].solo.localMissRatio(),
                  r.levels[2].soloMissRatio) << "warm=" << warm;
        EXPECT_EQ(prof.pivotChain[0].solo.localMissRatio(),
                  r.levels[1].soloMissRatio) << "warm=" << warm;
    }
}

TEST(CascadeEngine, RandomizedFamiliesCrossCheck)
{
    // Randomized property sweep: random joint geometries, warmups
    // and shard counts, every sample cross-checked bit-exact
    // against the timing simulator (cache::Cache co-simulation).
    std::mt19937_64 rng(0xCA5CADEull);
    auto pick = [&](std::initializer_list<std::uint64_t> xs) {
        std::vector<std::uint64_t> v(xs);
        return v[rng() % v.size()];
    };

    auto suite = tinySuite();
    suite.resize(1);
    for (int iter = 0; iter < 4; ++iter) {
        suite[0].warmupRefs = rng() % 30000;
        const expt::TraceStore store =
            expt::TraceStore::materialize(suite);

        hier::HierarchyParams base = threeLevelBase();
        base.levels[0].geometry.assoc = 2;
        CascadeFamilySpec family;
        const std::uint32_t pivot_block =
            static_cast<std::uint32_t>(pick({16, 32, 64}));
        for (int p = 0; p < 2; ++p)
            family.pivots.push_back(
                {pick({8 << 10, 32 << 10, 64 << 10}),
                 static_cast<std::uint32_t>(pick({1, 2})),
                 pivot_block});
        for (int m = 0; m < 2; ++m)
            family.l3.configs.push_back(
                {pick({128 << 10, 512 << 10, 2 << 20}),
                 static_cast<std::uint32_t>(pick({1, 2, 4})),
                 static_cast<std::uint32_t>(
                     pick({pivot_block, 2 * pivot_block}))});

        ProfileOptions opts;
        opts.solo = true;
        opts.shards = pick({1, 2, 7, 8});
        const auto profiles = profileCascadeTrace(
            base, family, store.traces()[0],
            expt::scaledWarmup(store.specs()[0]), opts);

        const CrossCheckReport report = crossCheckCascade(
            base, family, store, 4, /*solo=*/true);
        EXPECT_TRUE(report.allMatch()) << "iter " << iter;

        // The sharded profile agrees with the suite-path profile.
        const auto suite_profiles =
            profileStore(base, family, store, 1, opts.solo,
                         opts.faBound, ExactSinks{opts.shards});
        for (std::size_t p = 0; p < profiles.size(); ++p) {
            const TraceProfile &from_store =
                suite_profiles[p * store.size()];
            TraceProfile named = profiles[p];
            named.traceName = from_store.traceName;
            EXPECT_TRUE(sameProfile(named, from_store))
                << "iter " << iter << " pivot " << p;
        }
    }
}

TEST(CascadeEngine, EqTimingModelComposesThreeLevels)
{
    const hier::HierarchyParams base = threeLevelBase();
    const EqTimingModel model = EqTimingModel::forMachine(base);
    ASSERT_EQ(model.depth(), 2u);

    // Hand-build the same Equation-1 composition and compare.
    TraceProfile t;
    t.instructions = 1000;
    t.ifetches = 1000;
    t.loads = 400;
    t.stores = 200;
    t.l1ReadRequests = 1400;
    t.l1ReadMisses = 140;
    PivotLink link;
    link.spec = {64 << 10, 1, 32};
    link.counts.reads = 140;
    link.counts.readMisses = 42;
    t.pivotChain.push_back(link);
    ConfigProfile cp;
    cp.spec = {1 << 20, 2, 32};
    cp.filtered.reads = 42;
    cp.filtered.readMisses = 7;
    t.configs.push_back(cp);

    const double reads = 1400.0;
    const model::MultiLevelModel by_hand(
        1000.0 / reads, model.writeExtra(),
        {{140.0 / reads, model.levelCycles(0)},
         {42.0 / reads, model.levelCycles(1)},
         {7.0 / reads, model.nMMread()}});
    model::RefMix mix;
    mix.readsPerInstruction = reads / 1000.0;
    mix.storesPerInstruction = 200.0 / 1000.0;
    EXPECT_DOUBLE_EQ(model.relExec(t, 0),
                     by_hand.relativeExecTime(mix));
    EXPECT_DOUBLE_EQ(model.cpi(t, 0), by_hand.cpi(mix));
}

TEST(CascadeEngine, EqTimingModelDepth2Unchanged)
{
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const EqTimingModel model =
        EqTimingModel::forMachine(base.withL2(512 << 10, 3));
    EXPECT_EQ(model.depth(), 1u);
    EXPECT_DOUBLE_EQ(model.nL2(), 3.0);
    EXPECT_DOUBLE_EQ(model.nMMread(), 27.0);
}

TEST(CascadeEngineDeathTest, ModelRejectsChainDepthMismatch)
{
    const EqTimingModel model =
        EqTimingModel::forMachine(threeLevelBase());
    TraceProfile t;
    t.instructions = 100;
    t.ifetches = 100;
    t.configs.push_back({});
    EXPECT_DEATH(model.relExec(t, 0), "pivot links");
}

TEST(CascadeEngineDeathTest, RejectsMemberBlockBelowPivotBlock)
{
    const hier::HierarchyParams base = threeLevelBase();
    CascadeFamilySpec family;
    family.pivots.push_back({64 << 10, 1, 64});
    family.l3.configs.push_back({1 << 20, 2, 32});
    const std::vector<trace::MemRef> refs = {trace::makeLoad(0)};
    EXPECT_DEATH(profileCascadeTrace(base, family, refs, 0),
                 "smaller block");
}

TEST(CascadeEngineDeathTest, RejectsTwoLevelBaseMachine)
{
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    CascadeFamilySpec family;
    family.pivots.push_back({64 << 10, 1, 32});
    family.l3.configs.push_back({1 << 20, 1, 32});
    const std::vector<trace::MemRef> refs = {trace::makeLoad(0)};
    EXPECT_DEATH(profileCascadeTrace(base, family, refs, 0),
                 "two downstream levels");
}

TEST(CascadeEngine, FamilyKeyNamesPivotsAndMembers)
{
    CascadeFamilySpec family;
    family.pivots.push_back({64 << 10, 1, 32});
    family.pivots.push_back({128 << 10, 1, 32});
    family.l3.configs.push_back({1 << 20, 2, 32});
    const std::string key = family.key();
    EXPECT_NE(key.find("=>"), std::string::npos);
    CascadeFamilySpec other = family;
    other.pivots[1].sizeBytes = 256 << 10;
    EXPECT_NE(key, other.key());
}

} // namespace
} // namespace onepass
} // namespace mlc
