/** @file The bit-identity check of two sampled results: every
 *  estimator field and every functional counter the simulator
 *  reports, no tolerance anywhere. */

#ifndef MLC_TESTS_SAMPLE_EXPECT_SAMPLED_HH
#define MLC_TESTS_SAMPLE_EXPECT_SAMPLED_HH

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "sample/engine.hh"

namespace mlc {
namespace sample {

inline void
expectSameLevel(const hier::LevelResults &a, const hier::LevelResults &b)
{
    EXPECT_EQ(a.readRequests, b.readRequests);
    EXPECT_EQ(a.readMisses, b.readMisses);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.localMissRatio, b.localMissRatio);
    EXPECT_EQ(a.globalMissRatio, b.globalMissRatio);
}

inline void
expectBitIdentical(const SampledResult &a, const SampledResult &b)
{
    EXPECT_EQ(a.estCpi, b.estCpi);
    EXPECT_EQ(a.estRelExecTime, b.estRelExecTime);
    EXPECT_EQ(a.cpiInterval.mean, b.cpiInterval.mean);
    EXPECT_EQ(a.cpiInterval.halfWidth, b.cpiInterval.halfWidth);
    EXPECT_EQ(a.windowCpiValues, b.windowCpiValues);
    EXPECT_EQ(a.stoppedEarly, b.stoppedEarly);
    EXPECT_EQ(a.cyclesMeasured, b.cyclesMeasured);
    EXPECT_EQ(a.instructionsMeasured, b.instructionsMeasured);
    EXPECT_EQ(a.refsMeasured, b.refsMeasured);
    EXPECT_EQ(a.refsDetailWarmed, b.refsDetailWarmed);
    EXPECT_EQ(a.refsFunctionalWarmed, b.refsFunctionalWarmed);
    EXPECT_EQ(a.refsSkipped, b.refsSkipped);

    const hier::SimResults &fa = a.functional;
    const hier::SimResults &fb = b.functional;
    EXPECT_EQ(fa.instructions, fb.instructions);
    EXPECT_EQ(fa.cpuReads, fb.cpuReads);
    EXPECT_EQ(fa.cpuWrites, fb.cpuWrites);
    EXPECT_EQ(fa.references, fb.references);
    EXPECT_EQ(fa.totalCycles, fb.totalCycles);
    EXPECT_EQ(fa.idealCycles, fb.idealCycles);
    EXPECT_EQ(fa.meanL1MissPenaltyCycles, fb.meanL1MissPenaltyCycles);
    EXPECT_EQ(fa.breakdown.base, fb.breakdown.base);
    EXPECT_EQ(fa.breakdown.storeWriteHit, fb.breakdown.storeWriteHit);
    EXPECT_EQ(fa.breakdown.readStallCacheHit,
              fb.breakdown.readStallCacheHit);
    EXPECT_EQ(fa.breakdown.readStallMemory,
              fb.breakdown.readStallMemory);
    EXPECT_EQ(fa.breakdown.storeStall, fb.breakdown.storeStall);
    EXPECT_EQ(fa.writeBufferFullStalls, fb.writeBufferFullStalls);
    ASSERT_EQ(fa.levels.size(), fb.levels.size());
    for (std::size_t i = 0; i < fa.levels.size(); ++i) {
        SCOPED_TRACE("level " + std::to_string(i));
        expectSameLevel(fa.levels[i], fb.levels[i]);
    }
    ASSERT_EQ(fa.l1Detail.size(), fb.l1Detail.size());
    for (std::size_t i = 0; i < fa.l1Detail.size(); ++i) {
        SCOPED_TRACE("l1 side " + std::to_string(i));
        expectSameLevel(fa.l1Detail[i], fb.l1Detail[i]);
    }
}

} // namespace sample
} // namespace mlc

#endif // MLC_TESTS_SAMPLE_EXPECT_SAMPLED_HH
