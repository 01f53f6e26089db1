/** @file Bit-exactness tests for the store-backed checkpointed
 *  sweep (sample/sweep.hh + ckpt/store.hh).
 *
 *  PR 5's guarantee — checkpoint-and-branch is bit-identical to
 *  straight-line warming — extended across the disk boundary: a
 *  sweep that tees its warm state to a farm, and a later sweep
 *  that loads that farm in place of warming, must both match the
 *  in-memory sweep and per-config straight-line runs field for
 *  field. Covers the canonical L2 family, a sizes x cycle times
 *  family whose sizes group their cycle times, a lone
 *  configuration, three-level prefix families, adaptive stopping,
 *  jobs invariance, and the grid entry point. */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/store.hh"
#include "expect_sampled.hh"
#include "hier/hierarchy.hh"
#include "sample/sweep.hh"
#include "trace/synthetic_source.hh"

namespace mlc {
namespace sample {
namespace {

const std::vector<trace::MemRef> &
workload()
{
    static const std::vector<trace::MemRef> refs = [] {
        trace::SyntheticTraceParams p;
        p.totalRefs = 600'000;
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

SampledOptions
options()
{
    SampledOptions o;
    o.period = 60'000;
    o.measureRefs = 4'000;
    o.detailWarmRefs = 1'500;
    o.functionalWarmRefs = 18'000;
    return o;
}

std::vector<hier::HierarchyParams>
l2Family()
{
    std::vector<hier::HierarchyParams> configs;
    for (const std::uint64_t kb : {64u, 128u, 512u})
        configs.push_back(
            hier::HierarchyParams::baseMachine().withL2(kb * 1024,
                                                        3));
    return configs;
}

std::string
freshRoot(const char *name)
{
    namespace fs = std::filesystem;
    const fs::path root = fs::path(::testing::TempDir()) /
                          "mlc_ckpt_persist" / name;
    fs::remove_all(root);
    fs::create_directories(root);
    return root.string();
}

void
expectSweepsIdentical(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.perConfig.size(), b.perConfig.size());
    for (std::size_t c = 0; c < a.perConfig.size(); ++c) {
        SCOPED_TRACE("config " + std::to_string(c));
        expectBitIdentical(a.perConfig[c], b.perConfig[c]);
    }
}

/** Tee on first contact, load on second — both must match the
 *  in-memory sweep and straight-line runs exactly. */
TEST(CheckpointPersist, TeeThenLoadMatchesInMemoryAndStraightLine)
{
    ckpt::CheckpointStore store(freshRoot("tee_load"));
    const auto configs = l2Family();
    CheckpointPolicy policy;
    policy.store = &store;
    policy.traceId = "suite/t0";

    const SweepResult teed = runSweepCheckpointed(
        configs, span(), options(), 1, nullptr, policy);
    EXPECT_TRUE(teed.checkpointed);
    EXPECT_FALSE(teed.fromCheckpointFile);
    EXPECT_TRUE(teed.builtCheckpointFile);

    // A distinct store instance over the same root: what a fresh
    // process sees.
    ckpt::CheckpointStore reopened(store.root());
    CheckpointPolicy policy2;
    policy2.store = &reopened;
    policy2.traceId = "suite/t0";
    const SweepResult loaded = runSweepCheckpointed(
        configs, span(), options(), 1, nullptr, policy2);
    EXPECT_TRUE(loaded.fromCheckpointFile);
    EXPECT_FALSE(loaded.builtCheckpointFile);
    EXPECT_TRUE(loaded.checkpointFallback.empty());

    const SweepResult memory =
        runSweepCheckpointed(configs, span(), options());
    expectSweepsIdentical(loaded, teed);
    expectSweepsIdentical(loaded, memory);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE("config " + std::to_string(c));
        expectBitIdentical(loaded.perConfig[c],
                           runSampled(configs[c], span(),
                                      options()));
    }
}

/** A family of sizes x cycle times on the write-through L1 machine,
 *  where each size's later cycle times follow its first: the sweep
 *  that builds the farm, the sweeps that load it at 1 and 3 jobs
 *  and straight-line runs agree field for field. */
TEST(CheckpointPersist, GroupedFamilyLoadEqualsBuildAndStraightLine)
{
    hier::HierarchyParams wt = hier::HierarchyParams::baseMachine();
    wt.l1d.writePolicy = cache::WritePolicy::WriteThrough;
    wt.l1d.allocPolicy = cache::AllocPolicy::NoWriteAllocate;
    std::vector<hier::HierarchyParams> configs;
    for (const std::uint64_t kb : {64u, 512u})
        for (const std::uint32_t cycles : {3u, 7u, 2u})
            configs.push_back(wt.withL2(kb * 1024, cycles));

    ckpt::CheckpointStore store(freshRoot("grouped"));
    CheckpointPolicy policy;
    policy.store = &store;
    policy.traceId = "t";
    const SweepResult built = runSweepCheckpointed(
        configs, span(), options(), 3, nullptr, policy);
    EXPECT_TRUE(built.builtCheckpointFile);
    for (const std::size_t jobs : {1u, 3u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const SweepResult loaded = runSweepCheckpointed(
            configs, span(), options(), jobs, nullptr, policy);
        EXPECT_TRUE(loaded.fromCheckpointFile);
        expectSweepsIdentical(loaded, built);
    }
    for (std::size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE("config " + std::to_string(c));
        expectBitIdentical(built.perConfig[c],
                           runSampled(configs[c], span(), options()));
    }
}

TEST(CheckpointPersist, FarmLoadIsJobsInvariant)
{
    ckpt::CheckpointStore store(freshRoot("jobs"));
    const auto configs = l2Family();
    buildCheckpointFarm(configs, span(), options(), store, "t");
    CheckpointPolicy policy;
    policy.store = &store;
    policy.traceId = "t";
    const SweepResult serial = runSweepCheckpointed(
        configs, span(), options(), 1, nullptr, policy);
    const SweepResult parallel = runSweepCheckpointed(
        configs, span(), options(), 4, nullptr, policy);
    EXPECT_TRUE(serial.fromCheckpointFile);
    EXPECT_TRUE(parallel.fromCheckpointFile);
    expectSweepsIdentical(serial, parallel);
}

/** A lone configuration engages the persistent path only when a
 *  store is attached (no siblings to share warming with, but the
 *  farm replay is still worth it) — and stays bit-identical. */
TEST(CheckpointPersist, SingleConfigEngagesOnlyWithStore)
{
    const std::vector<hier::HierarchyParams> one = {
        hier::HierarchyParams::baseMachine().withL2(256 * 1024, 3)};
    const SweepResult plain =
        runSweepCheckpointed(one, span(), options());
    EXPECT_FALSE(plain.checkpointed);

    ckpt::CheckpointStore store(freshRoot("single"));
    CheckpointPolicy policy;
    policy.store = &store;
    policy.traceId = "t";
    const SweepResult teed = runSweepCheckpointed(
        one, span(), options(), 1, nullptr, policy);
    EXPECT_TRUE(teed.checkpointed);
    EXPECT_TRUE(teed.builtCheckpointFile);
    // The whole functional hierarchy is "shared" by one machine.
    EXPECT_EQ(teed.prefixLevels, 1u);

    const SweepResult loaded = runSweepCheckpointed(
        one, span(), options(), 1, nullptr, policy);
    EXPECT_TRUE(loaded.fromCheckpointFile);
    expectSweepsIdentical(loaded, teed);
    expectBitIdentical(loaded.perConfig[0],
                       runSampled(one[0], span(), options()));
    expectBitIdentical(plain.perConfig[0], loaded.perConfig[0]);
}

/** Three-level machines varying only the L3: the snapshot covers
 *  the L1s and the L2, and the persisted form must carry all of
 *  it. */
TEST(CheckpointPersist, ThreeLevelPrefixFamilyPersists)
{
    hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    cache::CacheParams l3 = base.levels.back();
    l3.name = "l3";
    l3.geometry.blockBytes = 64;
    l3.cycleNs = 60.0;
    base.levels.push_back(l3);
    base.busWidthWords.push_back(base.busWidthWords.back());
    std::vector<hier::HierarchyParams> configs;
    for (const std::uint64_t mb : {1u, 4u}) {
        configs.push_back(base);
        configs.back().levels[1].geometry.sizeBytes = mb << 20;
    }

    ckpt::CheckpointStore store(freshRoot("threelevel"));
    CheckpointPolicy policy;
    policy.store = &store;
    policy.traceId = "t";
    const SweepResult teed = runSweepCheckpointed(
        configs, span(), options(), 1, nullptr, policy);
    EXPECT_TRUE(teed.builtCheckpointFile);
    EXPECT_EQ(teed.prefixLevels, 1u);
    const SweepResult loaded = runSweepCheckpointed(
        configs, span(), options(), 1, nullptr, policy);
    EXPECT_TRUE(loaded.fromCheckpointFile);
    EXPECT_EQ(loaded.prefixLevels, 1u);
    expectSweepsIdentical(loaded, teed);
    expectSweepsIdentical(
        loaded, runSweepCheckpointed(configs, span(), options()));
}

/** Adaptive stopping truncates how much of the schedule a sweep
 *  consumes — but never what a window contains, so one farm entry
 *  (covering the full schedule) serves stopping and non-stopping
 *  sweeps alike. */
TEST(CheckpointPersist, AdaptiveStopLoadsFromFullScheduleFarm)
{
    ckpt::CheckpointStore store(freshRoot("adaptive"));
    const auto configs = l2Family();
    buildCheckpointFarm(configs, span(), options(), store, "t");

    SampledOptions stopping = options();
    stopping.targetRelHalfWidth = 0.08;
    stopping.minWindows = 4;
    CheckpointPolicy policy;
    policy.store = &store;
    policy.traceId = "t";
    const SweepResult loaded = runSweepCheckpointed(
        configs, span(), stopping, 1, nullptr, policy);
    EXPECT_TRUE(loaded.fromCheckpointFile);
    expectSweepsIdentical(loaded, runSweepCheckpointed(
                                      configs, span(), stopping));
}

/** A teeing sweep that stops early must still publish a file
 *  covering the *full* schedule, so later non-stopping sweeps can
 *  load it. */
TEST(CheckpointPersist, EarlyStoppingTeePublishesFullSchedule)
{
    ckpt::CheckpointStore store(freshRoot("stop_tee"));
    const auto configs = l2Family();
    SampledOptions stopping = options();
    stopping.targetRelHalfWidth = 0.5; // stops almost immediately
    stopping.minWindows = 2;
    CheckpointPolicy policy;
    policy.store = &store;
    policy.traceId = "t";
    const SweepResult teed = runSweepCheckpointed(
        configs, span(), stopping, 1, nullptr, policy);
    EXPECT_TRUE(teed.builtCheckpointFile);

    // The non-stopping sweep needs every window; it must hit.
    const SweepResult full = runSweepCheckpointed(
        configs, span(), options(), 1, nullptr, policy);
    EXPECT_TRUE(full.fromCheckpointFile);
    expectSweepsIdentical(
        full, runSweepCheckpointed(configs, span(), options()));
}

/** The whole file a store holds for trace id "t" (one entry). */
std::string
farmBytes(const ckpt::CheckpointStore &store)
{
    const std::vector<ckpt::FarmEntry> entries = store.list("t");
    EXPECT_EQ(entries.size(), 1u);
    if (entries.empty())
        return {};
    std::ifstream in(entries.front().path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** buildCheckpointFarm publishes byte for byte the file a teeing
 *  sweep publishes for the same family, including a tee whose
 *  sweep stopped early and warmed on alone. */
TEST(CheckpointPersist, OfflineFarmEqualsTeedFarm)
{
    const auto configs = l2Family();
    ckpt::CheckpointStore offline(freshRoot("farm_offline"));
    const FarmBuildResult built =
        buildCheckpointFarm(configs, span(), options(), offline, "t");
    ASSERT_TRUE(built.built);
    const std::string expected = farmBytes(offline);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(expected.size(), built.fileBytes);

    SampledOptions stopping = options();
    stopping.targetRelHalfWidth = 0.5;
    stopping.minWindows = 2;
    for (const SampledOptions &opts : {options(), stopping}) {
        ckpt::CheckpointStore teed(freshRoot("farm_teed"));
        CheckpointPolicy policy;
        policy.store = &teed;
        policy.traceId = "t";
        const SweepResult sweep = runSweepCheckpointed(
            configs, span(), opts, 1, nullptr, policy);
        ASSERT_TRUE(sweep.builtCheckpointFile);
        EXPECT_TRUE(farmBytes(teed) == expected);
    }
}

TEST(CheckpointPersist, GridCheckpointedWithStoreMatches)
{
    std::vector<expt::TraceSpec> specs;
    expt::TraceSpec s;
    s.name = "g";
    s.variant = 1;
    s.processes = 3;
    s.warmupRefs = 0;
    s.measureRefs = 250'000;
    specs.push_back(s);
    const auto trace_store =
        expt::TraceStore::materialize(std::move(specs));

    SampledOptions o;
    o.period = 10'000;
    o.measureRefs = 1'000;
    o.detailWarmRefs = 500;
    o.functionalWarmRefs = 6'000;
    const std::vector<std::uint64_t> sizes = {64 * 1024,
                                              512 * 1024};
    const std::vector<std::uint32_t> cycles = {2, 6};
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();

    const auto plain = buildGridCheckpointed(base, sizes, cycles,
                                             trace_store, o, 2);
    ckpt::CheckpointStore store(freshRoot("grid"));
    const auto teed = buildGridCheckpointed(
        base, sizes, cycles, trace_store, o, 2, &store, "suite");
    const auto loaded = buildGridCheckpointed(
        base, sizes, cycles, trace_store, o, 2, &store, "suite");
    EXPECT_FALSE(store.list("suite/g").empty());
    for (std::size_t si = 0; si < sizes.size(); ++si)
        for (std::size_t ci = 0; ci < cycles.size(); ++ci) {
            EXPECT_EQ(teed.at(si, ci), plain.at(si, ci));
            EXPECT_EQ(loaded.at(si, ci), plain.at(si, ci));
        }
}

/** The schedule key deliberately excludes the stopping knobs and
 *  the config key excludes timing — the reuse surface the format
 *  promises. */
TEST(CheckpointPersist, KeysExcludeStoppingAndTiming)
{
    const SampledOptions base_opts = options();
    SampleScheduler sched(span().size, base_opts);
    SampledOptions stopping = base_opts;
    stopping.targetRelHalfWidth = 0.05;
    stopping.minWindows = 3;
    SampleScheduler sched2(span().size, stopping);
    EXPECT_EQ(scheduleKeyFor(sched.plan(), SampleMode::Systematic,
                             1),
              scheduleKeyFor(sched2.plan(), SampleMode::Systematic,
                             1));
    // Seed and mode do key.
    EXPECT_NE(scheduleKeyFor(sched.plan(), SampleMode::Systematic,
                             1),
              scheduleKeyFor(sched.plan(), SampleMode::Systematic,
                             2));

    const hier::HierarchyParams slow =
        hier::HierarchyParams::baseMachine().withL2(256 * 1024, 3);
    const hier::HierarchyParams fast =
        hier::HierarchyParams::baseMachine().withL2(256 * 1024, 9);
    EXPECT_EQ(warmerConfigKey(slow, 0), warmerConfigKey(fast, 0));
    const hier::HierarchyParams other_l1 =
        slow.withL1Total(32 * 1024);
    EXPECT_NE(warmerConfigKey(slow, 0),
              warmerConfigKey(other_l1, 0));
}

} // namespace
} // namespace sample
} // namespace mlc
