/** @file Unit and property tests for the stack-distance analyzer:
 *  exact counts against a brute-force LRU stack, and in its sampled
 *  mode bit-identity with exact at p = 1.0, the scaled estimate
 *  tracking the exact curve at real rates, and the adaptive budget
 *  bounding the live sampled footprint. */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "trace/stack_distance.hh"
#include "util/random.hh"

namespace mlc {
namespace trace {
namespace {

TEST(StackDistance, FirstTouchIsInfinite)
{
    StackDistanceAnalyzer an(16);
    EXPECT_EQ(an.access(0x100), StackDistanceAnalyzer::kInfinite);
    EXPECT_EQ(an.access(0x200), StackDistanceAnalyzer::kInfinite);
    EXPECT_EQ(an.distinctGranules(), 2ULL);
}

TEST(StackDistance, ImmediateReuseIsZero)
{
    StackDistanceAnalyzer an(16);
    an.access(0x100);
    EXPECT_EQ(an.access(0x100), 0ULL);
    // Same granule, different word: still distance 0.
    EXPECT_EQ(an.access(0x104), 0ULL);
}

TEST(StackDistance, CountsDistinctIntermediateGranules)
{
    StackDistanceAnalyzer an(16);
    an.access(0x000);
    an.access(0x010);
    an.access(0x020);
    an.access(0x010); // repeats do not add distinct granules
    EXPECT_EQ(an.access(0x000), 2ULL);
}

TEST(StackDistance, ClassicSequence)
{
    // a b c b a: distances inf, inf, inf, 1, 2.
    StackDistanceAnalyzer an(4);
    EXPECT_EQ(an.access(0x0), StackDistanceAnalyzer::kInfinite);
    EXPECT_EQ(an.access(0x4), StackDistanceAnalyzer::kInfinite);
    EXPECT_EQ(an.access(0x8), StackDistanceAnalyzer::kInfinite);
    EXPECT_EQ(an.access(0x4), 1ULL);
    EXPECT_EQ(an.access(0x0), 2ULL);
}

TEST(StackDistance, MissRatioMatchesDefinition)
{
    StackDistanceAnalyzer an(4);
    // Stream over 3 granules: a b c a b c ... distances 2.
    for (int i = 0; i < 30; ++i)
        an.access(static_cast<Addr>(i % 3) * 4);
    // Cache of 2 granules misses everything; of 3+, only the
    // compulsory misses.
    EXPECT_DOUBLE_EQ(an.missRatio(2), 1.0);
    EXPECT_DOUBLE_EQ(an.missRatio(3), 3.0 / 30.0);
    EXPECT_DOUBLE_EQ(an.missRatio(8), 3.0 / 30.0);
}

TEST(StackDistance, MissRatioIsMonotoneInCapacity)
{
    StackDistanceAnalyzer an(16);
    Rng rng(5);
    for (int i = 0; i < 20000; ++i)
        an.access(rng.nextBounded(500) * 16);
    double prev = 1.1;
    for (std::uint64_t cap = 1; cap <= 1024; cap *= 2) {
        const double m = an.missRatio(cap);
        EXPECT_LE(m, prev + 1e-12);
        prev = m;
    }
}

/** Property: matches a brute-force reference implementation. */
TEST(StackDistance, MatchesBruteForce)
{
    StackDistanceAnalyzer an(16);
    std::vector<Addr> lru; // front = most recent granule
    Rng rng(77);
    for (int i = 0; i < 5000; ++i) {
        const Addr granule = rng.nextBounded(300);
        const Addr addr = granule * 16 + rng.nextBounded(4) * 4;

        std::uint64_t expected = StackDistanceAnalyzer::kInfinite;
        for (std::size_t d = 0; d < lru.size(); ++d) {
            if (lru[d] == granule) {
                expected = d;
                lru.erase(lru.begin() +
                          static_cast<std::ptrdiff_t>(d));
                break;
            }
        }
        lru.insert(lru.begin(), granule);

        ASSERT_EQ(an.access(addr), expected) << "at step " << i;
    }
}

TEST(StackDistance, CompactionPreservesAnswers)
{
    // Few live granules, long stream: forces periodic compaction.
    StackDistanceAnalyzer an(16);
    for (int i = 0; i < 100000; ++i) {
        const Addr granule = static_cast<Addr>(i % 7);
        const std::uint64_t d = an.access(granule * 16);
        if (i >= 7) {
            EXPECT_EQ(d, 6ULL);
        }
    }
    EXPECT_EQ(an.distinctGranules(), 7ULL);
}

TEST(StackDistance, InfiniteCountEqualsDistinctGranules)
{
    StackDistanceAnalyzer an(16);
    EXPECT_EQ(an.compulsory(), 0ULL);
    Rng rng(31);
    for (int i = 0; i < 10000; ++i)
        an.access(rng.nextBounded(400) * 16);
    // Granules are never forgotten, so every first touch is an
    // infinite-distance reference and vice versa.
    EXPECT_EQ(an.compulsory(), an.distinctGranules());
    EXPECT_GT(an.compulsory(), 0ULL);
}

TEST(StackDistance, ExactAcrossCompactionBoundaries)
{
    // Small footprint, long random stream: the time axis compacts
    // many times, and every answer must still match the brute-force
    // LRU stack at every step (not just in aggregate).
    StackDistanceAnalyzer an(16);
    std::vector<Addr> lru;
    Rng rng(1234);
    for (int i = 0; i < 60000; ++i) {
        const Addr granule = rng.nextBounded(11);

        std::uint64_t expected = StackDistanceAnalyzer::kInfinite;
        for (std::size_t d = 0; d < lru.size(); ++d) {
            if (lru[d] == granule) {
                expected = d;
                lru.erase(lru.begin() +
                          static_cast<std::ptrdiff_t>(d));
                break;
            }
        }
        lru.insert(lru.begin(), granule);

        ASSERT_EQ(an.access(granule * 16), expected)
            << "at step " << i;
    }
    EXPECT_EQ(an.distinctGranules(), 11ULL);
}

TEST(StackDistanceDeathTest, RejectsNonPowerOfTwoGranule)
{
    EXPECT_DEATH(StackDistanceAnalyzer(24), "power of two");
    EXPECT_DEATH(StackDistanceAnalyzer(0), "power of two");
}

TEST(StackDistance, FootprintCapPanicsPointingAtSampledEngine)
{
    StackDistanceAnalyzer an(16, 1.0, 0, /*max_granules=*/4);
    for (int i = 0; i < 4; ++i)
        an.access(static_cast<Addr>(i) * 16);
    // Reuse below the cap stays legal.
    EXPECT_EQ(an.access(0), 3ULL);
    // The fifth distinct granule trips the loud panic, which must
    // name the escape hatch (the sampled engine).
    EXPECT_DEATH(an.access(4 * 16), "engine=mrc");
    StackDistanceAnalyzer none(16, 1.0, 0, 1);
    none.access(0);
    EXPECT_DEATH(none.access(16), "footprint exceeds 1");
}

TEST(StackDistance, ZeroCapIsRejected)
{
    EXPECT_DEATH(StackDistanceAnalyzer(16, 1.0, 0, 0), "max_granules");
}

/** A stream with hot reuse and a cold tail, the shape real
 *  reference streams have. */
std::vector<Addr>
stream(std::uint64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        if (rng.nextBounded(4) != 0)
            out.push_back(rng.nextBounded(1u << 12) * 16); // hot
        else
            out.push_back(rng.nextBounded(1u << 20) * 16); // tail
    }
    return out;
}

TEST(SampledStack, UnitRateBitIdenticalToExactAnalyzer)
{
    // An adaptive analyzer starts at rate 1 on the SHARDS path
    // (hashing, weighting, scaling); with a budget the stream never
    // reaches, it must agree with the exact path reference for
    // reference.
    StackDistanceAnalyzer exact(16);
    StackDistanceAnalyzer sampled(16, 1.0, /*budget=*/1u << 30);

    for (const Addr a : stream(60'000, 3))
        EXPECT_EQ(sampled.access(a), exact.access(a));
    EXPECT_DOUBLE_EQ(sampled.rate(), 1.0);
    EXPECT_EQ(sampled.references(), exact.references());
    EXPECT_EQ(sampled.sampledReferences(), exact.references());
    EXPECT_EQ(exact.sampledReferences(), exact.references());
    EXPECT_EQ(sampled.distinctGranules(), exact.distinctGranules());
    EXPECT_EQ(sampled.compulsory(), exact.distinctGranules());
    for (const std::uint64_t cap :
         {std::uint64_t{16}, std::uint64_t{256},
          std::uint64_t{4096}, std::uint64_t{1} << 16})
        EXPECT_DOUBLE_EQ(sampled.missRatio(cap),
                         exact.missRatio(cap))
            << cap;
}

TEST(SampledStack, SampledRateTracksExactCurveWithinTolerance)
{
    StackDistanceAnalyzer exact(16);
    StackDistanceAnalyzer sampled(16, 0.1);

    for (const Addr a : stream(200'000, 5)) {
        exact.access(a);
        sampled.access(a);
    }
    // Roughly a tenth of the references pass the spatial filter.
    EXPECT_NEAR(static_cast<double>(sampled.sampledReferences()) /
                    static_cast<double>(sampled.references()),
                0.1, 0.03);
    // The scaled footprint estimate tracks the exact one.
    EXPECT_NEAR(static_cast<double>(sampled.compulsory()) /
                    static_cast<double>(exact.distinctGranules()),
                1.0, 0.1);
    for (const std::uint64_t cap :
         {std::uint64_t{256}, std::uint64_t{4096},
          std::uint64_t{1} << 16})
        EXPECT_NEAR(sampled.missRatio(cap), exact.missRatio(cap),
                    0.05)
            << cap;
}

TEST(SampledStack, NotSampledReferencesAreFlagged)
{
    StackDistanceAnalyzer sampled(16, 0.01);
    std::uint64_t flagged = 0;
    constexpr std::uint64_t kRefs = 20'000;
    for (std::uint64_t i = 0; i < kRefs; ++i)
        if (sampled.access(i * 16) ==
            StackDistanceAnalyzer::kNotSampled)
            ++flagged;
    // Nearly everything misses a 1% filter on distinct granules.
    EXPECT_GT(flagged, kRefs * 95 / 100);
    EXPECT_EQ(sampled.sampledReferences(), kRefs - flagged);
}

TEST(SampledStack, AdaptiveBudgetBoundsLiveFootprint)
{
    constexpr std::uint64_t kBudget = 1000;
    StackDistanceAnalyzer sampled(16, 1.0, kBudget);

    // A pure cold stream: footprint grows without the budget.
    for (std::uint64_t i = 0; i < 100'000; ++i) {
        sampled.access(i * 16);
        EXPECT_LE(sampled.distinctGranules(), kBudget);
    }
    EXPECT_LT(sampled.rate(), 1.0);
    // The scaled footprint estimate still tracks the true 100k
    // granules despite holding at most 1000 live entries.
    EXPECT_NEAR(static_cast<double>(sampled.compulsory()) / 100'000.0,
                1.0, 0.2);
}

TEST(SampledStack, EmptyAndDegenerateQueries)
{
    StackDistanceAnalyzer sampled(16, 1.0, /*budget=*/1000);
    EXPECT_DOUBLE_EQ(sampled.missRatio(64), 0.0);
    sampled.access(0);
    // A single first touch is a compulsory miss at any capacity.
    EXPECT_DOUBLE_EQ(sampled.missRatio(64), 1.0);
}

} // namespace
} // namespace trace
} // namespace mlc
