/** @file SpatialSampler unit coverage: the threshold arithmetic,
 *  the keep predicate as a pure function of the hash, and the
 *  adaptive lowering contract (strictly shrinking kept sets,
 *  generation bumps, fixed-mode panics). */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "trace/sampler.hh"

namespace mlc {
namespace trace {
namespace {

TEST(SpatialSampler, ThresholdForRateMath)
{
    EXPECT_EQ(thresholdForRate(1.0), kKeepAll);
    // 0.5 * 2^64 = 2^63 exactly.
    EXPECT_EQ(thresholdForRate(0.5), std::uint64_t{1} << 63);
    EXPECT_EQ(thresholdForRate(0.25), std::uint64_t{1} << 62);
    // The inverse recovers the rate (1.0 for the sentinel).
    EXPECT_DOUBLE_EQ(rateForThreshold(kKeepAll), 1.0);
    EXPECT_DOUBLE_EQ(rateForThreshold(std::uint64_t{1} << 63), 0.5);
    EXPECT_NEAR(rateForThreshold(thresholdForRate(0.01)), 0.01,
                1e-12);
}

TEST(SpatialSampler, ThresholdPanicsOutsideUnitInterval)
{
    EXPECT_DEATH(thresholdForRate(0.0), "rate");
    EXPECT_DEATH(thresholdForRate(-0.5), "rate");
    EXPECT_DEATH(thresholdForRate(1.5), "rate");
}

TEST(SpatialSampler, HashIsDeterministicAndMixed)
{
    // Determinism is a repo-wide contract: the same block always
    // hashes identically, so sampled runs are reproducible.
    EXPECT_EQ(hashBlock(12345), hashBlock(12345));
    EXPECT_NE(hashBlock(12345), hashBlock(12346));
    // The keep fraction over a dense block range should be near
    // the configured rate — a coarse mixing check, not a
    // statistical test.
    const SpatialSampler s(0.25);
    std::uint64_t kept = 0;
    constexpr std::uint64_t kBlocks = 100'000;
    for (std::uint64_t b = 0; b < kBlocks; ++b)
        kept += s.keep(hashBlock(b)) ? 1u : 0u;
    EXPECT_NEAR(static_cast<double>(kept) / kBlocks, 0.25, 0.02);
}

TEST(SpatialSampler, KeepAllAtUnitRate)
{
    const SpatialSampler s(1.0);
    EXPECT_EQ(s.threshold(), kKeepAll);
    EXPECT_DOUBLE_EQ(s.rate(), 1.0);
    // Even the maximal hash is kept — the sentinel is "keep
    // everything", not a comparison value.
    EXPECT_TRUE(s.keep(~std::uint64_t{0}));
    EXPECT_FALSE(s.adaptive());
}

TEST(SpatialSampler, ConstructorPanicsOnBadRate)
{
    EXPECT_DEATH(SpatialSampler{0.0}, "rate");
    EXPECT_DEATH(SpatialSampler{2.0}, "rate");
}

TEST(SpatialSampler, AdaptiveLoweringShrinksKeptSetStrictly)
{
    SpatialSampler s(1.0, /*budget=*/100);
    ASSERT_TRUE(s.adaptive());
    EXPECT_EQ(s.budget(), 100u);
    EXPECT_EQ(s.generation(), 0u);

    std::vector<std::uint64_t> hashes;
    for (std::uint64_t b = 0; b < 4096; ++b)
        hashes.push_back(hashBlock(b));

    double prev_rate = s.rate();
    for (int round = 0; round < 4; ++round) {
        std::vector<bool> before;
        for (const std::uint64_t h : hashes)
            before.push_back(s.keep(h));
        s.lower();
        EXPECT_EQ(s.generation(),
                  static_cast<std::uint64_t>(round + 1));
        EXPECT_LT(s.rate(), prev_rate);
        prev_rate = s.rate();
        // Evict-only: anything kept after the lowering was kept
        // before it.
        for (std::size_t i = 0; i < hashes.size(); ++i)
            if (s.keep(hashes[i])) {
                EXPECT_TRUE(before[i]) << "hash " << i;
            }
    }
}

TEST(SpatialSampler, FixedModeLowerPanics)
{
    SpatialSampler s(0.5);
    EXPECT_DEATH(s.lower(), "fixed");
}

} // namespace
} // namespace trace
} // namespace mlc
