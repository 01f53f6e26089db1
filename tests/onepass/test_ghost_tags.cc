/** @file Randomized equivalence between ghost tag arrays and the
 *  functional cache (the one-pass engine's exactness claim at the
 *  single-cache level), plus construction-time rejection coverage
 *  for the organizations the ghost model cannot reproduce. */

#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "onepass/ghost_tags.hh"
#include "util/bits.hh"
#include "util/random.hh"

namespace mlc {
namespace onepass {
namespace {

cache::CacheParams
paramsFor(const GhostCacheSpec &spec, cache::AllocPolicy alloc)
{
    cache::CacheParams p;
    p.name = spec.toString();
    p.geometry.sizeBytes = spec.sizeBytes;
    p.geometry.blockBytes = spec.blockBytes;
    p.geometry.assoc = spec.assoc;
    p.allocPolicy = alloc;
    p.finalize();
    return p;
}

/** A small random power-of-two geometry: 1-32 sets, 1-8 ways,
 *  8-64B blocks, so a few thousand references force plenty of
 *  evictions. */
GhostCacheSpec
randomSpec(Rng &rng)
{
    GhostCacheSpec spec;
    spec.blockBytes = 8u << rng.nextBounded(4);
    spec.assoc = static_cast<std::uint32_t>(1u << rng.nextBounded(4));
    spec.sizeBytes =
        (static_cast<std::uint64_t>(spec.blockBytes) * spec.assoc)
        << rng.nextBounded(6);
    return spec;
}

/** Sets of @p spec, a valid power-of-two geometry. */
std::uint64_t
setsOf(const GhostCacheSpec &spec)
{
    return spec.sizeBytes /
           (static_cast<std::uint64_t>(spec.assoc) * spec.blockBytes);
}

trace::MemRef
randomRef(Rng &rng, Addr span)
{
    const Addr addr = rng.nextBounded(span / 4) * 4;
    const double pick = rng.nextDouble();
    if (pick < 0.3)
        return trace::makeStore(addr);
    if (pick < 0.65)
        return trace::makeLoad(addr);
    return trace::makeIFetch(addr);
}

TEST(GhostTagArray, HitMissSequenceMatchesCacheOnRandomConfigs)
{
    Rng rng(0xdecafbadULL);
    // The issue asks for at least 20 random configurations; run a
    // few more for margin, split across both store-miss policies.
    for (int trial = 0; trial < 24; ++trial) {
        const GhostCacheSpec spec = randomSpec(rng);
        const bool write_allocate = (trial % 2) == 0;
        const cache::CacheParams cp = paramsFor(
            spec, write_allocate
                      ? cache::AllocPolicy::WriteAllocate
                      : cache::AllocPolicy::NoWriteAllocate);
        cache::Cache reference(cp);
        GhostTagArray ghost(setsOf(spec), spec.assoc);
        const std::uint64_t mask = ghost.sets() - 1;
        const unsigned shift = exactLog2(spec.blockBytes);
        // Four cache capacities' worth of address span keeps the
        // conflict rate high without making every access a miss.
        const Addr span = spec.sizeBytes * 4;

        cache::AccessOutcome outcome;
        for (int i = 0; i < 5000; ++i) {
            const trace::MemRef ref = randomRef(rng, span);
            reference.access(ref, outcome);
            const std::uint64_t block = ref.addr >> shift;
            const bool ghost_hit =
                (ref.isRead() || write_allocate)
                    ? ghost.touchOrInstallAt(block & mask, block)
                    : ghost.touchOnlyAt(block & mask, block);
            ASSERT_EQ(outcome.hit, ghost_hit)
                << spec.toString() << " diverged at ref " << i
                << " (" << ref.toString() << ")";
        }
        EXPECT_EQ(reference.counts().readAccesses() +
                      reference.counts().storeAccesses,
                  5000u);
    }
}

TEST(GhostTagArray, TouchOnlyMatchesAbsorbWriteUnderWriteAround)
{
    Rng rng(0x0ddba11ULL);
    for (int trial = 0; trial < 20; ++trial) {
        const GhostCacheSpec spec = randomSpec(rng);
        const cache::CacheParams cp =
            paramsFor(spec, cache::AllocPolicy::WriteAllocate);
        cache::Cache reference(cp);
        GhostTagArray ghost(setsOf(spec), spec.assoc);
        const std::uint64_t mask = ghost.sets() - 1;
        const unsigned shift = exactLog2(spec.blockBytes);
        const Addr span = spec.sizeBytes * 4;

        cache::AccessOutcome outcome;
        for (int i = 0; i < 4000; ++i) {
            const Addr addr = rng.nextBounded(span / 4) * 4;
            const std::uint64_t block = addr >> shift;
            if (rng.nextBool(0.4)) {
                // A downstream write: hit touches, miss is passed
                // around without allocation on both sides.
                ASSERT_EQ(reference.absorbWrite(addr),
                          ghost.touchOnlyAt(block & mask, block))
                    << spec.toString() << " write " << i;
            } else {
                reference.access(trace::makeLoad(addr), outcome);
                ASSERT_EQ(outcome.hit,
                          ghost.touchOrInstallAt(block & mask, block))
                    << spec.toString() << " read " << i;
            }
        }
    }
}

TEST(GhostTagArray, ValidCountTracksDistinctBlocksBeforeEviction)
{
    // 1KB, 2-way, 32B blocks: 16 sets.
    GhostTagArray ghost(16, 2);
    EXPECT_EQ(ghost.validCount(), 0u);
    // 32 blocks of capacity: the first 32 distinct blocks all fit.
    for (std::uint64_t b = 0; b < 32; ++b)
        EXPECT_FALSE(ghost.touchOrInstallAt(b & 15, b));
    EXPECT_EQ(ghost.validCount(), 32u);
    for (std::uint64_t b = 0; b < 32; ++b)
        EXPECT_TRUE(ghost.touchOrInstallAt(b & 15, b));
    // Evictions replace rather than grow.
    EXPECT_FALSE(ghost.touchOrInstallAt(100 & 15, 100));
    EXPECT_EQ(ghost.validCount(), 32u);
}

TEST(GhostTagForest, SoloCountsMatchPerConfigCaches)
{
    Rng rng(0x51d0f00dULL);
    std::vector<GhostCacheSpec> specs;
    for (int i = 0; i < 10; ++i)
        specs.push_back(randomSpec(rng));

    GhostPolicies policies;
    policies.alloc = cache::AllocPolicy::WriteAllocate;
    GhostTagForest forest(specs, policies);

    std::vector<cache::Cache> references;
    references.reserve(specs.size());
    for (const GhostCacheSpec &spec : specs)
        references.emplace_back(
            paramsFor(spec, cache::AllocPolicy::WriteAllocate));

    cache::AccessOutcome outcome;
    for (int i = 0; i < 8000; ++i) {
        const trace::MemRef ref = randomRef(rng, 64 << 10);
        forest.soloAccess(ref);
        for (cache::Cache &c : references)
            c.access(ref, outcome);
    }

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const GhostCounts &got = forest.counts(i);
        const cache::CacheCounts &want = references[i].counts();
        EXPECT_EQ(got.reads, want.readAccesses())
            << specs[i].toString();
        EXPECT_EQ(got.readMisses, want.readMisses())
            << specs[i].toString();
        EXPECT_EQ(got.extraAccesses, want.storeAccesses)
            << specs[i].toString();
        EXPECT_EQ(got.extraMisses, want.storeMisses)
            << specs[i].toString();
    }
}

TEST(GhostTagForest, ResetCountsKeepsTagState)
{
    GhostPolicies policies;
    GhostTagForest forest({GhostCacheSpec{4096, 1, 32}}, policies);
    // Distinct sets of the 128-set direct-mapped array.
    forest.read(0x1000, true);
    forest.read(0x1020, true);
    EXPECT_EQ(forest.counts(0).reads, 2u);
    EXPECT_EQ(forest.counts(0).readMisses, 2u);

    forest.resetCounts();
    EXPECT_EQ(forest.counts(0).reads, 0u);
    EXPECT_EQ(forest.counts(0).readMisses, 0u);

    // The blocks installed before the reset still hit.
    forest.read(0x1000, true);
    EXPECT_EQ(forest.counts(0).reads, 1u);
    EXPECT_EQ(forest.counts(0).readMisses, 0u);
}

TEST(GhostTagForest, FillAndStoreOriginReadsStayOutOfTheRatio)
{
    GhostPolicies policies;
    GhostTagForest forest({GhostCacheSpec{4096, 1, 32}}, policies);
    forest.read(0x1000, true);  // demand read miss
    forest.read(0x2000, false); // store-origin fill miss
    forest.fill(0x3000);        // non-demand group fill
    const GhostCounts &c = forest.counts(0);
    EXPECT_EQ(c.reads, 1u);
    EXPECT_EQ(c.readMisses, 1u);
    EXPECT_EQ(c.extraAccesses, 2u);
    EXPECT_EQ(c.extraMisses, 2u);
    EXPECT_DOUBLE_EQ(c.localMissRatio(), 1.0);
    EXPECT_DOUBLE_EQ(c.globalMissRatio(10), 0.1);
}

TEST(GhostCounts, ZeroDenominatorRatiosAreZeroNotNaN)
{
    // A warm-up-only or store-only window records no counted
    // reads; the ratios must stay finite (0), never NaN.
    GhostCounts c;
    EXPECT_EQ(c.localMissRatio(), 0.0);
    EXPECT_EQ(c.globalMissRatio(0), 0.0);
    c.readMisses = 5;
    EXPECT_EQ(c.localMissRatio(), 0.0);
    EXPECT_EQ(c.globalMissRatio(0), 0.0);
    c.reads = 10;
    EXPECT_DOUBLE_EQ(c.localMissRatio(), 0.5);
    EXPECT_DOUBLE_EQ(c.globalMissRatio(20), 0.25);
}

TEST(GhostTagDeathTest, RejectsBrokenGeometry)
{
    GhostPolicies policies;
    EXPECT_DEATH(GhostTagForest({GhostCacheSpec{3000, 1, 32}}, policies),
                 "powers of two");
    EXPECT_DEATH(GhostTagForest({GhostCacheSpec{4096, 3, 32}}, policies),
                 "powers of two");
    EXPECT_DEATH(GhostTagForest({GhostCacheSpec{64, 4, 32}}, policies),
                 "fewer than one set");
    EXPECT_DEATH(GhostTagForest({}, policies),
                 "at least one config");
}

TEST(GhostTagDeathTest, FromLevelRejectsUnmodellableFeatures)
{
    cache::CacheParams level;
    level.name = "l2";
    level.geometry.sizeBytes = 64 << 10;
    level.geometry.blockBytes = 32;
    level.geometry.assoc = 1;
    level.finalize();

    {
        cache::CacheParams sub = level;
        sub.fetchBytes = 16; // sub-block mode
        EXPECT_DEATH(GhostPolicies::fromLevel(sub, 1),
                     "sub-blocking");
    }
    {
        cache::CacheParams pf = level;
        pf.prefetchNextBlock = true;
        EXPECT_DEATH(GhostPolicies::fromLevel(pf, 1), "prefetches");
    }
    {
        cache::CacheParams wide = level;
        wide.fetchBytes = 64; // two-block fetch group
        EXPECT_DEATH(GhostPolicies::fromLevel(wide, 1),
                     "differs from its block size");
    }
    {
        cache::CacheParams rnd = level;
        rnd.replPolicy = cache::ReplPolicy::Random;
        EXPECT_DEATH(GhostPolicies::fromLevel(rnd, 4), "only LRU");
        // Direct-mapped families have no replacement choice, so a
        // nominal non-LRU policy is accepted.
        const GhostPolicies ok = GhostPolicies::fromLevel(rnd, 1);
        EXPECT_EQ(ok.alloc, rnd.allocPolicy);
    }
}

} // namespace
} // namespace onepass
} // namespace mlc
