/** @file Golden bit-exactness and statistics tests for the
 *  checkpoint-and-branch sweep (sample/sweep.hh).
 *
 *  The sweep's whole claim is that one shared warming pass per
 *  window plus a snapshot restore is *bit-identical* to warming
 *  every configuration straight-line. These tests assert exactly
 *  that — every estimator field, every window CPI sample, every
 *  functional counter — across sizes x cycle times families
 *  derived from the golden-replay configurations (write policies,
 *  sub-blocking, unified L1, replacement policies, three-level
 *  machines), at 1, 4 and 7 jobs, where each functional hierarchy's
 *  first configuration replays live and the rest follow its tapes;
 *  plus adaptive stopping inside those groups, the incompatible-
 *  restore panics and the matched-pair estimator's
 *  variance-reduction guarantees.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "hier/hierarchy.hh"
#include "expect_sampled.hh"
#include "sample/sweep.hh"
#include "trace/synthetic_source.hh"
#include "util/snapshot_arena.hh"

namespace mlc {
namespace sample {
namespace {

const std::vector<trace::MemRef> &
workload()
{
    static const std::vector<trace::MemRef> refs = [] {
        trace::SyntheticTraceParams p;
        p.totalRefs = 1'000'000;
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

/** Skip-heavy schedule, as in production sweeps. */
SampledOptions
options()
{
    SampledOptions o;
    o.period = 100'000;
    o.measureRefs = 5'000;
    o.detailWarmRefs = 2'000;
    o.functionalWarmRefs = 20'000;
    return o;
}

/** Checkpointed sweep vs per-config straight-line runs, at 1, 4
 *  and 7 jobs. */
void
expectSweepMatchesStraightLine(
    const std::vector<hier::HierarchyParams> &configs,
    const SampledOptions &opts, bool expect_checkpointed,
    std::size_t expect_prefix = 0)
{
    std::vector<SampledResult> straight;
    for (const hier::HierarchyParams &p : configs)
        straight.push_back(runSampled(p, span(), opts));
    for (const std::size_t jobs : {1u, 4u, 7u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const SweepResult sweep =
            runSweepCheckpointed(configs, span(), opts, jobs);
        EXPECT_EQ(sweep.checkpointed, expect_checkpointed);
        if (expect_checkpointed) {
            EXPECT_EQ(sweep.prefixLevels, expect_prefix);
        }
        ASSERT_EQ(sweep.perConfig.size(), configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            SCOPED_TRACE("config " + std::to_string(c));
            expectBitIdentical(sweep.perConfig[c], straight[c]);
        }
    }
}

/** The canonical sweep: vary the L2's size and cycle time, share
 *  the L1s (prefix 0). Each size is one functional hierarchy, so
 *  its first cycle time leads and the other two follow. */
std::vector<hier::HierarchyParams>
l2SizeFamily(const hier::HierarchyParams &base)
{
    std::vector<hier::HierarchyParams> configs;
    for (const std::uint64_t kb : {64u, 256u, 512u})
        for (const std::uint32_t cycles : {3u, 2u, 6u})
            configs.push_back(base.withL2(kb * 1024, cycles));
    return configs;
}

TEST(CheckpointSweep, L2SizeSweepMatchesStraightLine)
{
    expectSweepMatchesStraightLine(
        l2SizeFamily(hier::HierarchyParams::baseMachine()),
        options(), true, 0);
}

TEST(CheckpointSweep, WriteThroughL1Family)
{
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
    p.l1i.writePolicy = cache::WritePolicy::WriteThrough;
    p.l1d.writePolicy = cache::WritePolicy::WriteThrough;
    expectSweepMatchesStraightLine(l2SizeFamily(p), options(), true,
                                   0);
}

TEST(CheckpointSweep, WriteThroughNoAllocateFamily)
{
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
    p.l1d.writePolicy = cache::WritePolicy::WriteThrough;
    p.l1d.allocPolicy = cache::AllocPolicy::NoWriteAllocate;
    expectSweepMatchesStraightLine(l2SizeFamily(p), options(), true,
                                   0);
}

TEST(CheckpointSweep, SubBlockedL1Family)
{
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
    p.l1i.fetchBytes = 4;
    p.l1d.fetchBytes = 4;
    expectSweepMatchesStraightLine(l2SizeFamily(p), options(), true,
                                   0);
}

TEST(CheckpointSweep, UnifiedL1Family)
{
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
    p.splitL1 = false;
    p.l1d.geometry.sizeBytes = 4096;
    expectSweepMatchesStraightLine(l2SizeFamily(p), options(), true,
                                   0);
}

TEST(CheckpointSweep, VictimOrderFamilies)
{
    for (const cache::ReplPolicy policy :
         {cache::ReplPolicy::LRU, cache::ReplPolicy::FIFO,
          cache::ReplPolicy::Random}) {
        SCOPED_TRACE(cache::replPolicyName(policy));
        hier::HierarchyParams p =
            hier::HierarchyParams::baseMachine();
        p.l1i.geometry.assoc = 2;
        p.l1d.geometry.assoc = 2;
        p.l1i.replPolicy = policy;
        p.l1d.replPolicy = policy;
        p.levels[0].geometry.assoc = 4;
        p.levels[0].replPolicy = policy;
        expectSweepMatchesStraightLine(l2SizeFamily(p), options(),
                                       true, 0);
    }
}

/** Three-level machines varying only the L3's size and cycle
 *  time: the L2 is part of the shared prefix, so the snapshot
 *  boundary sits *below* it. */
TEST(CheckpointSweep, SharedL2VaryingL3UsesDeeperBoundary)
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
    for (const std::uint64_t mb : {1u, 2u, 4u})
        for (const double ns : {60.0, 30.0, 90.0}) {
            configs.push_back(base);
            configs.back().levels[1].geometry.sizeBytes = mb << 20;
            configs.back().levels[1].cycleNs = ns;
        }
    expectSweepMatchesStraightLine(configs, options(), true, 1);
}

/** Configurations differing only in timing (L2 cycle time) share
 *  the *whole* functional hierarchy: the boundary is main memory
 *  and the snapshot covers every level. */
TEST(CheckpointSweep, TimingOnlySweepSharesWholeHierarchy)
{
    std::vector<hier::HierarchyParams> configs;
    for (const std::uint32_t cycles : {2u, 3u, 5u, 8u})
        configs.push_back(
            hier::HierarchyParams::baseMachine().withL2(512 * 1024,
                                                        cycles));
    expectSweepMatchesStraightLine(configs, options(), true, 1);
}

TEST(CheckpointSweep, JobsCountInvariant)
{
    const auto configs =
        l2SizeFamily(hier::HierarchyParams::baseMachine());
    const SweepResult serial =
        runSweepCheckpointed(configs, span(), options(), 1);
    const SweepResult parallel =
        runSweepCheckpointed(configs, span(), options(), 4);
    ASSERT_EQ(serial.perConfig.size(), parallel.perConfig.size());
    for (std::size_t c = 0; c < serial.perConfig.size(); ++c) {
        SCOPED_TRACE("config " + std::to_string(c));
        expectBitIdentical(serial.perConfig[c],
                           parallel.perConfig[c]);
    }
}

/** A solo co-simulation cannot be checkpointed (it replays the raw
 *  CPU stream); the sweep must fall back, not panic, and still
 *  match straight-line runs. */
TEST(CheckpointSweep, SoloConfigFallsBackAndStillMatches)
{
    auto configs = l2SizeFamily(hier::HierarchyParams::baseMachine());
    configs[1].measureSolo = true;
    expectSweepMatchesStraightLine(configs, options(), false);
}

/** Different L1 organizations share nothing; fall back. */
TEST(CheckpointSweep, DifferentL1FallsBack)
{
    auto configs = l2SizeFamily(hier::HierarchyParams::baseMachine());
    configs.back() = configs.back().withL1Total(32 * 1024);
    expectSweepMatchesStraightLine(configs, options(), false);
}

/** Adaptive stopping retires configurations independently and each
 *  still matches its straight-line twin (same stop window, same
 *  accounting of the untouched tail). */
TEST(CheckpointSweep, AdaptiveStopParity)
{
    SampledOptions o = options();
    o.targetRelHalfWidth = 0.08;
    o.minWindows = 4;
    expectSweepMatchesStraightLine(
        l2SizeFamily(hier::HierarchyParams::baseMachine()), o, true,
        0);
}

/** Adaptive stopping inside groups of one functional hierarchy. A
 *  leader that stops before a follower replays on and records its
 *  tapes, its own result frozen at its stop; a follower that stops
 *  first leaves its leader sampling. The preconditions pin both
 *  orders: 256 KB at cycle times 2, 10, 1 stops after 7, 3 and 10
 *  windows, 1 MB at 10, 6, 3 after 3, 6 and 10. */
TEST(CheckpointSweep, AdaptiveStopLeadersAndFollowersStopApart)
{
    SampledOptions o = options();
    o.targetRelHalfWidth = 0.08;
    o.minWindows = 3;
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    std::vector<hier::HierarchyParams> configs;
    for (const std::uint32_t cycles : {2u, 10u, 1u})
        configs.push_back(base.withL2(256 * 1024, cycles));
    for (const std::uint32_t cycles : {10u, 6u, 3u})
        configs.push_back(base.withL2(1024 * 1024, cycles));

    std::vector<std::size_t> windows;
    for (const hier::HierarchyParams &p : configs)
        windows.push_back(
            runSampled(p, span(), o).windowCpiValues.size());
    // Group 0: a follower stops before its leader, another after.
    ASSERT_GT(windows[0], windows[1]);
    ASSERT_LT(windows[0], windows[2]);
    // Group 1: the leader stops before both followers.
    ASSERT_LT(windows[3], windows[4]);
    ASSERT_LT(windows[4], windows[5]);
    expectSweepMatchesStraightLine(configs, o, true, 0);
}

/** Snapshots that carry a shared 8 MB L2 (over 6 MB of tag state a
 *  window, 10 windows) exceed one batch's budget of window states,
 *  so the sweep branches over several batches; results are still
 *  each configuration's straight-line run. */
TEST(CheckpointSweep, WindowsBeyondOneBatchMatchStraightLine)
{
    std::vector<hier::HierarchyParams> configs;
    for (const std::uint32_t cycles : {4u, 2u, 7u})
        configs.push_back(hier::HierarchyParams::baseMachine().withL2(
            8u << 20, cycles));

    hier::HierarchySimulator warmer(configs[0]);
    warmer.runFunctional(span().first(1'000));
    SnapshotArena arena;
    hier::WarmSnapshot snap;
    warmer.captureWarmState(arena, snap, 1);
    EXPECT_GT(arena.bytesUsed(), std::size_t{6} << 20);

    expectSweepMatchesStraightLine(configs, options(), true, 1);
}

TEST(CheckpointSweep, GridMatchesPerCellStraightLine)
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

    const auto grid =
        buildGridCheckpointed(base, sizes, cycles, store, o, 2);
    for (std::size_t si = 0; si < sizes.size(); ++si)
        for (std::size_t ci = 0; ci < cycles.size(); ++ci) {
            const double direct =
                runSampled(base.withL2(sizes[si], cycles[ci]),
                           store.span(0), o)
                    .estRelExecTime;
            EXPECT_EQ(grid.at(si, ci), direct);
        }
}

TEST(CheckpointSweep, PairedDeltaIntervalNarrowerThanAbsolute)
{
    const hier::HierarchyParams a =
        hier::HierarchyParams::baseMachine();
    const hier::HierarchyParams b = a.withL2(128 * 1024, 5);
    const PairedResult r = runPaired(a, b, span(), options());

    EXPECT_EQ(r.windowsPaired, r.a.windowCpiValues.size());
    EXPECT_EQ(r.windowsPaired, r.b.windowCpiValues.size());
    EXPECT_GE(r.windowsPaired, 5u);

    // The smaller, slower L2 must cost cycles; the paired interval
    // must resolve that difference more tightly than either
    // absolute interval (the windows' shared workload variance
    // cancels in the difference).
    EXPECT_GT(r.deltaInterval.mean, 0.0);
    EXPECT_LT(r.deltaInterval.halfWidth, r.a.cpiInterval.halfWidth);
    EXPECT_LT(r.deltaInterval.halfWidth, r.b.cpiInterval.halfWidth);
    EXPECT_GT(r.pairs.correlation(), 0.5);
}

TEST(CheckpointSweep, PairedJobsInvariantAndDeterministic)
{
    const hier::HierarchyParams a =
        hier::HierarchyParams::baseMachine();
    const hier::HierarchyParams b = a.withL2(128 * 1024, 5);
    const PairedResult serial = runPaired(a, b, span(), options(), 1);
    const PairedResult parallel =
        runPaired(a, b, span(), options(), 2);
    EXPECT_EQ(serial.deltaInterval.mean, parallel.deltaInterval.mean);
    EXPECT_EQ(serial.deltaInterval.halfWidth,
              parallel.deltaInterval.halfWidth);
    expectBitIdentical(serial.a, parallel.a);
    expectBitIdentical(serial.b, parallel.b);
}

/** Adaptive warming: the derived warm length respects its clamps,
 *  grows with the deepest cache, and is recorded in the result. */
TEST(CheckpointSweep, AdaptiveWarmDerivation)
{
    const hier::HierarchyParams small =
        hier::HierarchyParams::baseMachine().withL2(64 * 1024, 3);
    const hier::HierarchyParams big =
        hier::HierarchyParams::baseMachine().withL2(1024 * 1024, 3);
    SampledOptions o = options();
    o.adaptiveWarm = true;
    o.adaptiveWarmProbeRefs = 200'000;

    const std::uint64_t w_small =
        deriveFunctionalWarmRefs(span(), small, o);
    const std::uint64_t w_big =
        deriveFunctionalWarmRefs(span(), big, o);
    const std::uint64_t hi = span().size / 2;
    EXPECT_GE(w_small, std::min(o.measureRefs, hi));
    EXPECT_LE(w_small, hi);
    EXPECT_LE(w_big, hi);
    EXPECT_GE(w_big, w_small);

    const SampledResult r = runSampled(small, span(), o);
    EXPECT_TRUE(r.adaptiveWarmUsed);
    EXPECT_GT(r.warmRefsPerWindow, 0u);

    // The sweep resolves one warm length for the whole family (the
    // largest machine's) and must still match straight-line runs at
    // that same resolved length.
    const SweepResult sweep =
        runSweepCheckpointed({small, big}, span(), o);
    EXPECT_TRUE(sweep.checkpointed);
    SampledOptions fixed = o;
    fixed.adaptiveWarm = false;
    fixed.functionalWarmRefs = w_big;
    for (std::size_t c = 0; c < 2; ++c) {
        SCOPED_TRACE("config " + std::to_string(c));
        SampledResult straight = runSampled(
            c == 0 ? small : big, span(), fixed);
        straight.adaptiveWarmUsed = true; // sweep reports the mode
        EXPECT_TRUE(sweep.perConfig[c].adaptiveWarmUsed);
        expectBitIdentical(sweep.perConfig[c], straight);
    }
}

TEST(CheckpointSweepDeath, RestoreIntoIncompatibleConfigPanics)
{
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    hier::HierarchySimulator donor(base);
    donor.runFunctional(span().first(50'000));
    SnapshotArena arena;
    hier::WarmSnapshot snap;
    donor.captureWarmState(arena, snap, 1);

    // Different L1 geometry: TagArray's fingerprint check fires.
    hier::L1Front other(base.withL1Total(32 * 1024).finalized());
    EXPECT_DEATH(other.restore(arena, snap), "geometry mismatch");

    // Unified-L1 machine: the shape check fires first.
    hier::HierarchyParams unified = base;
    unified.splitL1 = false;
    unified.l1d.geometry.sizeBytes = 4096;
    hier::L1Front uni(unified.finalized());
    EXPECT_DEATH(uni.restore(arena, snap), "split-L1 mismatch");

    // A snapshot prefix deeper than the branch machine.
    hier::L1Front front(base.finalized());
    front.restore(arena, snap);
    const hier::FrontLog log(base, front,
                             span().dropFirst(50'000).first(1'000),
                             span().dropFirst(51'000).first(1'000));
    hier::HierarchyParams l1_only = base;
    l1_only.levels.clear();
    l1_only.busWidthWords.resize(1);
    hier::HierarchySimulator shallow(l1_only);
    EXPECT_DEATH(shallow.replayWindow({}, arena, snap, log),
                 "exceeds hierarchy depth");
}

} // namespace
} // namespace sample
} // namespace mlc
