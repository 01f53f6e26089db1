/** @file Property coverage for the set-partitioned one-pass
 *  profile: the sharded sweep must be bit-identical to one shard for
 *  every shard count — including counts that do not divide the set
 *  count and the degenerate one-set cache — across the
 *  ghost-modellable golden machine variations, and the one-shard
 *  profile must match the timing simulator, an oracle outside the
 *  profiling pipeline, on the golden variants and warm-up edges. */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "expt/runner.hh"
#include "onepass/engine.hh"
#include "onepass/sharded.hh"
#include "trace/interleave.hh"
#include "trace/source.hh"
#include "util/random.hh"

namespace mlc {
namespace onepass {
namespace {

std::vector<trace::MemRef>
workload(std::uint64_t refs, std::uint64_t seed = 0)
{
    auto gen = trace::makeMultiprogrammedWorkload(4, 6000, seed);
    return trace::collect(*gen, refs);
}

/** Every scalar-vs-sharded field the profile carries, compared for
 *  exact (bit-level) equality. */
void
expectProfilesIdentical(const TraceProfile &a, const TraceProfile &b,
                        const std::string &label)
{
    EXPECT_EQ(a.instructions, b.instructions) << label;
    EXPECT_EQ(a.ifetches, b.ifetches) << label;
    EXPECT_EQ(a.loads, b.loads) << label;
    EXPECT_EQ(a.stores, b.stores) << label;
    EXPECT_EQ(a.l1ReadRequests, b.l1ReadRequests) << label;
    EXPECT_EQ(a.l1ReadMisses, b.l1ReadMisses) << label;
    ASSERT_EQ(a.configs.size(), b.configs.size()) << label;
    for (std::size_t i = 0; i < a.configs.size(); ++i) {
        const ConfigProfile &x = a.configs[i];
        const ConfigProfile &y = b.configs[i];
        const std::string who =
            label + " " + x.spec.toString();
        EXPECT_TRUE(x.spec == y.spec) << who;
        EXPECT_EQ(x.filtered.reads, y.filtered.reads) << who;
        EXPECT_EQ(x.filtered.readMisses, y.filtered.readMisses)
            << who;
        EXPECT_EQ(x.filtered.extraAccesses,
                  y.filtered.extraAccesses)
            << who;
        EXPECT_EQ(x.filtered.extraMisses, y.filtered.extraMisses)
            << who;
        EXPECT_EQ(x.solo.reads, y.solo.reads) << who;
        EXPECT_EQ(x.solo.readMisses, y.solo.readMisses) << who;
        EXPECT_EQ(x.solo.extraAccesses, y.solo.extraAccesses)
            << who;
        EXPECT_EQ(x.solo.extraMisses, y.solo.extraMisses) << who;
        // Ratios divide identical integers, so they are
        // bit-identical doubles; assert anyway — they are what the
        // figures print.
        EXPECT_EQ(x.filtered.localMissRatio(),
                  y.filtered.localMissRatio())
            << who;
        EXPECT_EQ(x.solo.localMissRatio(), y.solo.localMissRatio())
            << who;
        EXPECT_EQ(x.faMissRatio, y.faMissRatio) << who;
        EXPECT_EQ(x.faCompulsory, y.faCompulsory) << who;
    }
}

/** Profile at one shard and at every count in @p counts, expecting
 *  the profiles bit-identical; returns the one-shard profile. */
TraceProfile
expectShardedMatchesScalar(const hier::HierarchyParams &base,
                           const FamilySpec &family,
                           const std::vector<trace::MemRef> &refs,
                           std::uint64_t warmup,
                           const std::vector<std::size_t> &counts,
                           bool solo = true, bool fa_bound = false)
{
    ProfileOptions scalar_opts;
    scalar_opts.solo = solo;
    scalar_opts.faBound = fa_bound;
    const TraceProfile scalar =
        profileTrace(base, family, refs, warmup, scalar_opts);
    for (std::size_t shards : counts) {
        ProfileOptions opts = scalar_opts;
        opts.shards = shards;
        const TraceProfile sharded =
            profileTrace(base, family, refs, warmup, opts);
        expectProfilesIdentical(
            scalar, sharded,
            "shards=" + std::to_string(shards));
    }
    return scalar;
}

/** The oracle outside the pipeline: each member of @p family
 *  simulated in full on @p machine by the timing simulator, whose
 *  L1 and member read counts and member solo ratio @p profile must
 *  equal exactly. */
void
expectMatchesTimingSimulator(const hier::HierarchyParams &machine,
                             const FamilySpec &family,
                             const std::vector<trace::MemRef> &refs,
                             std::uint64_t warmup,
                             const TraceProfile &profile)
{
    for (std::size_t m = 0; m < family.configs.size(); ++m) {
        const GhostCacheSpec &spec = family.configs[m];
        SCOPED_TRACE(spec.toString());
        hier::HierarchyParams p = machine;
        p.levels[0].geometry.sizeBytes = spec.sizeBytes;
        p.levels[0].geometry.assoc = spec.assoc;
        p.levels[0].geometry.blockBytes = spec.blockBytes;
        p.levels[0].fetchBytes = spec.blockBytes;
        p.measureSolo = true;
        const hier::SimResults r = expt::runOnTrace(p, refs, warmup);
        EXPECT_EQ(profile.l1ReadRequests, r.levels[0].readRequests);
        EXPECT_EQ(profile.l1ReadMisses, r.levels[0].readMisses);
        EXPECT_EQ(profile.configs[m].filtered.reads,
                  r.levels[1].readRequests);
        EXPECT_EQ(profile.configs[m].filtered.readMisses,
                  r.levels[1].readMisses);
        EXPECT_EQ(profile.configs[m].solo.localMissRatio(),
                  r.levels[1].soloMissRatio);
    }
}

/** The ghost-modellable variants of the golden-replay machine
 *  family set (tests/hier/test_golden_replay.cc): everything the
 *  L1 replica can reproduce with an LRU or direct-mapped L2. */
std::vector<std::pair<std::string, hier::HierarchyParams>>
goldenMachines()
{
    namespace h = hier;
    std::vector<std::pair<std::string, h::HierarchyParams>> out;
    out.emplace_back("base", h::HierarchyParams::baseMachine());
    {
        h::HierarchyParams p = h::HierarchyParams::baseMachine();
        p.l1i.writePolicy = cache::WritePolicy::WriteThrough;
        p.l1d.writePolicy = cache::WritePolicy::WriteThrough;
        out.emplace_back("write-through L1", p);
    }
    {
        h::HierarchyParams p = h::HierarchyParams::baseMachine();
        p.l1d.writePolicy = cache::WritePolicy::WriteThrough;
        p.l1d.allocPolicy = cache::AllocPolicy::NoWriteAllocate;
        out.emplace_back("write-through no-allocate L1", p);
    }
    {
        h::HierarchyParams p = h::HierarchyParams::baseMachine();
        p.l1i.fetchBytes = 4;
        p.l1d.fetchBytes = 4;
        out.emplace_back("sub-blocked L1", p);
    }
    {
        h::HierarchyParams p = h::HierarchyParams::baseMachine();
        cache::CacheParams l3 = p.levels.back();
        l3.name = "l3";
        l3.geometry.sizeBytes = 4u << 20;
        l3.geometry.blockBytes = 64;
        l3.cycleNs = 60.0;
        p.levels.push_back(l3);
        p.busWidthWords.push_back(p.busWidthWords.back());
        out.emplace_back("three-level", p);
    }
    {
        h::HierarchyParams p = h::HierarchyParams::baseMachine();
        p.splitL1 = false;
        p.l1d.geometry.sizeBytes = 4096;
        out.emplace_back("unified L1", p);
    }
    {
        // The LRU member of the victim-order family (FIFO/Random
        // L2s are rejected by the ghost model by design).
        h::HierarchyParams p = h::HierarchyParams::baseMachine();
        p.l1i.geometry.assoc = 2;
        p.l1d.geometry.assoc = 2;
        p.l1i.replPolicy = cache::ReplPolicy::LRU;
        p.l1d.replPolicy = cache::ReplPolicy::LRU;
        p.levels[0].geometry.assoc = 4;
        p.levels[0].replPolicy = cache::ReplPolicy::LRU;
        out.emplace_back("2-way L1 / 4-way LRU L2", p);
    }
    return out;
}

TEST(ShardedProfile, EveryShardCountMatchesScalarMixedFamily)
{
    const auto refs = workload(80000);
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    // Mixed sizes, associativities and block sizes in one family,
    // plus a one-set member (64B = 2 ways x 32B blocks): shard
    // clamping and non-dividing shard counts in the same sweep.
    FamilySpec family = FamilySpec::crossProduct(
        {32 << 10, 128 << 10}, {1, 2}, {32, 64});
    family.configs.push_back(GhostCacheSpec{64, 2, 32});
    expectShardedMatchesScalar(base, family, refs, 20000,
                               {1, 2, 3, 7, 8}, /*solo=*/true,
                               /*fa_bound=*/true);
}

TEST(ShardedProfile, GoldenMachineVariantsBitExact)
{
    const auto refs = workload(60000, 1);
    for (const auto &[name, machine] : goldenMachines()) {
        SCOPED_TRACE(name);
        const FamilySpec family = FamilySpec::l2Grid(
            machine, {16 << 10, 64 << 10, 256 << 10});
        const TraceProfile profile = expectShardedMatchesScalar(
            machine, family, refs, 15000, {3, 8});
        expectMatchesTimingSimulator(machine, family, refs, 15000,
                                     profile);
    }
}

TEST(ShardedProfile, DegenerateOneSetCacheRunsOnOneShard)
{
    const auto refs = workload(30000, 2);
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    // One set (4 ways x 32B = 128B): every shard count must clamp
    // to a single owner and still merge exactly.
    FamilySpec family;
    family.configs.push_back(GhostCacheSpec{128, 4, 32});
    expectShardedMatchesScalar(base, family, refs, 5000,
                               {2, 3, 7, 8});
}

TEST(ShardedProfile, WarmupBoundaryEdgeCases)
{
    const auto refs = workload(20000, 3);
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const FamilySpec family =
        FamilySpec::l2Grid(base, {16 << 10, 64 << 10});
    // No warm-up, boundary on the last reference, boundary at the
    // stream end (never crossed), boundary past the end.
    for (const std::uint64_t warmup :
         {std::uint64_t{0}, std::uint64_t{refs.size() - 1},
          std::uint64_t{refs.size()},
          std::uint64_t{refs.size() + 1000}}) {
        SCOPED_TRACE("warmup=" + std::to_string(warmup));
        const TraceProfile profile = expectShardedMatchesScalar(
            base, family, refs, warmup, {2, 7});
        // A boundary the profile never crosses counts the whole
        // stream, which the simulator measures at warm-up 0.
        expectMatchesTimingSimulator(
            base, family, refs, warmup < refs.size() ? warmup : 0,
            profile);
    }
}

TEST(ShardedProfile, RandomizedFamiliesAndWarmups)
{
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    Rng rng(0xc0ffee11ULL);
    for (int trial = 0; trial < 6; ++trial) {
        const auto refs =
            workload(20000 + 5000 * static_cast<unsigned>(trial),
                     0x100 + static_cast<std::uint64_t>(trial));
        FamilySpec family;
        const std::size_t members = 1 + rng.nextBounded(5);
        for (std::size_t m = 0; m < members; ++m) {
            GhostCacheSpec spec;
            // Blocks >= the 16B L1 block; sizes from one set up.
            spec.blockBytes = 16u << rng.nextBounded(3);
            spec.assoc =
                static_cast<std::uint32_t>(1u << rng.nextBounded(3));
            spec.sizeBytes =
                (static_cast<std::uint64_t>(spec.blockBytes) *
                 spec.assoc)
                << rng.nextBounded(10);
            family.configs.push_back(spec);
        }
        const std::uint64_t warmup =
            rng.nextBounded(refs.size());
        SCOPED_TRACE("trial=" + std::to_string(trial));
        expectShardedMatchesScalar(base, family, refs, warmup,
                                   {1, 2, 3, 7, 8});
    }
}

TEST(ShardedProfile, EventLogRoundTripsKindAndAddress)
{
    FilteredEventLog log;
    log.onRead(0x1000, true);
    log.onRead(0x2040, false);
    log.onWrite(0x30c4);
    ASSERT_EQ(log.events.size(), 3u);
    EXPECT_EQ(log.events[0] & FilteredEventLog::kKindMask,
              FilteredEventLog::ReadCounted);
    EXPECT_EQ(log.events[0] & ~FilteredEventLog::kKindMask,
              0x1000u);
    EXPECT_EQ(log.events[1] & FilteredEventLog::kKindMask,
              FilteredEventLog::ReadUncounted);
    EXPECT_EQ(log.events[1] & ~FilteredEventLog::kKindMask,
              0x2040u);
    EXPECT_EQ(log.events[2] & FilteredEventLog::kKindMask,
              FilteredEventLog::Write);
    EXPECT_EQ(log.events[2] & ~FilteredEventLog::kKindMask,
              0x30c4u);
}

} // namespace
} // namespace onepass
} // namespace mlc
