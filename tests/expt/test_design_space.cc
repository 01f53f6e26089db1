/** @file Tests for grid construction, contour extraction and shift
 *  measurement, using analytic surfaces with known answers. */

#include <cmath>

#include <gtest/gtest.h>

#include "expt/design_space.hh"
#include "model/tradeoff.hh"

namespace mlc {
namespace expt {
namespace {

std::vector<std::uint64_t>
sizes()
{
    std::vector<std::uint64_t> s;
    for (std::uint64_t c = 4096; c <= (8 << 20); c *= 2)
        s.push_back(c);
    return s;
}

/** An analytic surface from the Equation-1 model. */
DesignSpaceGrid
analyticGrid(double ml1)
{
    model::TwoLevelModel base;
    base.ml1 = ml1;
    base.nMMread = 27.0;
    model::MissRateModel l2(0.30, 4096, 0.69);
    model::SpeedSizeAnalysis a(base, l2, model::RefMix{});
    return buildGrid(sizes(), paperCycles(),
                     [&](std::uint64_t c, std::uint32_t t) {
                         return a.relExecTime(c, t);
                     });
}

TEST(DesignSpace, PaperAxes)
{
    const auto s = paperSizes();
    ASSERT_EQ(s.size(), 11u);
    EXPECT_EQ(s.front(), 4096ULL);
    EXPECT_EQ(s.back(), 4ULL << 20);
    EXPECT_EQ(paperCycles().size(), 10u);
}

TEST(DesignSpace, AtReturnsWhatWasSet)
{
    DesignSpaceGrid g({4096, 8192}, {1, 2});
    g.set(0, 0, 1.5);
    g.set(1, 1, 1.2);
    EXPECT_DOUBLE_EQ(g.at(0, 0), 1.5);
    EXPECT_DOUBLE_EQ(g.at(1, 1), 1.2);
    EXPECT_DEATH(g.at(0, 1), "before being set");
}

TEST(DesignSpace, RejectsDegenerateAxes)
{
    EXPECT_DEATH(DesignSpaceGrid({}, {1, 2}), "at least one");
    EXPECT_DEATH(DesignSpaceGrid({4096}, {}), "at least one");
    EXPECT_DEATH(DesignSpaceGrid({8192, 4096}, {1, 2}),
                 "ascending");
}

TEST(DesignSpace, OneByOneGridHoldsOneCell)
{
    DesignSpaceGrid g({4096}, {3});
    g.set(0, 0, 1.5);
    EXPECT_EQ(g.at(0, 0), 1.5);
    EXPECT_EQ(g.minValue(), 1.5);
    EXPECT_EQ(g.maxValue(), 1.5);
    // No interval to cross and no axis to interpolate along.
    EXPECT_TRUE(g.contourLevels().empty());
    ASSERT_EQ(g.contour(1.5).size(), 1u);
    EXPECT_EQ(g.contour(1.5)[0], 3.0);
    EXPECT_TRUE(std::isnan(g.contour(1.7)[0]));
    EXPECT_TRUE(g.contourSlopes(1.5).empty());
    EXPECT_TRUE(g.maxSlopePerInterval().empty());
    EXPECT_TRUE(std::isnan(g.slopeBoundaryCrossing(1.5)));
}

TEST(DesignSpace, OneSizeRowInterpolatesAlongCycles)
{
    // 1xN: the contour still interpolates along the cycle axis,
    // but there is no size interval for a slope.
    const DesignSpaceGrid g = buildGrid(
        {65536}, paperCycles(),
        [](std::uint64_t, std::uint32_t t) { return 1.0 + 0.1 * t; });
    const auto line = g.contour(1.25);
    ASSERT_EQ(line.size(), 1u);
    EXPECT_NEAR(line[0], 2.5, 1e-12);
    EXPECT_TRUE(g.contourSlopes(1.25).empty());
    EXPECT_TRUE(g.maxSlopePerInterval().empty());
}

TEST(DesignSpace, OneCycleColumnHasNoContourToFollow)
{
    // Nx1: each size has a single cycle time, so a level is met
    // only exactly at it, and no contour level on the 0.1 grid
    // crosses two sizes to give a slope.
    const DesignSpaceGrid g = buildGrid(
        sizes(), {2}, [](std::uint64_t s, std::uint32_t) {
            return s == 4096 ? 1.55 : 1.25;
        });
    const auto line = g.contour(1.55);
    ASSERT_EQ(line.size(), sizes().size());
    EXPECT_EQ(line[0], 2.0);
    for (std::size_t s = 1; s < line.size(); ++s)
        EXPECT_TRUE(std::isnan(line[s])) << s;
    const auto slopes = g.maxSlopePerInterval();
    ASSERT_EQ(slopes.size(), sizes().size() - 1);
    for (const double v : slopes)
        EXPECT_TRUE(std::isnan(v));
}

TEST(DesignSpace, ContourInterpolatesExactly)
{
    // Surface rel = 1 + 0.1 * t (independent of size): the contour
    // for level 1.25 sits at t = 2.5 for every size.
    DesignSpaceGrid g = buildGrid(
        sizes(), paperCycles(),
        [](std::uint64_t, std::uint32_t t) {
            return 1.0 + 0.1 * t;
        });
    const auto line = g.contour(1.25);
    for (double t : line)
        EXPECT_NEAR(t, 2.5, 1e-12);
}

TEST(DesignSpace, ContourNaNWhereUnreachable)
{
    DesignSpaceGrid g = buildGrid(
        sizes(), paperCycles(),
        [](std::uint64_t, std::uint32_t t) {
            return 1.0 + 0.1 * t;
        });
    // Levels outside [1.1, 2.0] don't cross any column.
    for (double t : g.contour(5.0))
        EXPECT_TRUE(std::isnan(t));
}

TEST(DesignSpace, ContourLevelsCoverObservedRange)
{
    const DesignSpaceGrid g = analyticGrid(0.10);
    const auto levels = g.contourLevels(0.1);
    ASSERT_FALSE(levels.empty());
    EXPECT_GE(levels.front(), g.minValue());
    EXPECT_LT(levels.back(), g.maxValue());
    // Steps of 0.1.
    for (std::size_t i = 1; i < levels.size(); ++i)
        EXPECT_NEAR(levels[i] - levels[i - 1], 0.1, 1e-9);
}

TEST(DesignSpace, SlopesMatchAnalyticModel)
{
    const DesignSpaceGrid g = analyticGrid(0.10);
    model::TwoLevelModel base;
    base.ml1 = 0.10;
    base.nMMread = 27.0;
    model::MissRateModel l2(0.30, 4096, 0.69);
    model::SpeedSizeAnalysis a(base, l2, model::RefMix{});

    // Choose a level crossing mid-grid.
    const double level = a.relExecTime(65536, 5.0);
    const auto slopes = g.contourSlopes(level);
    const auto &sz = g.sizes();
    for (std::size_t s = 0; s + 1 < sz.size(); ++s) {
        if (std::isnan(slopes[s]))
            continue;
        EXPECT_NEAR(slopes[s], a.slopePerDoubling(sz[s]),
                    0.05 + 0.05 * a.slopePerDoubling(sz[s]))
            << "size " << sz[s];
    }
}

TEST(DesignSpace, MaxSlopeDecreasesWithSize)
{
    // The defining shape of Figures 4-2..4-4: steep on the left,
    // flat on the right.
    const DesignSpaceGrid g = analyticGrid(0.10);
    const auto slopes = g.maxSlopePerInterval();
    double prev = 1e9;
    for (double s : slopes) {
        if (std::isnan(s))
            continue;
        EXPECT_LE(s, prev * 1.05);
        prev = s;
    }
}

TEST(DesignSpace, HorizontalShiftRecoversKnownShift)
{
    // Grid B is grid A with miss curve shifted right by exactly
    // 2x in size; the measured factor must be ~2.
    model::TwoLevelModel base;
    base.ml1 = 0.10;
    base.nMMread = 27.0;
    model::MissRateModel l2a(0.30, 4096, 0.69);
    model::MissRateModel l2b(0.30, 8192, 0.69);
    model::SpeedSizeAnalysis a(base, l2a, model::RefMix{});
    model::SpeedSizeAnalysis b(base, l2b, model::RefMix{});
    const DesignSpaceGrid ga = buildGrid(
        sizes(), paperCycles(),
        [&](std::uint64_t c, std::uint32_t t) {
            return a.relExecTime(c, t);
        });
    const DesignSpaceGrid gb = buildGrid(
        sizes(), paperCycles(),
        [&](std::uint64_t c, std::uint32_t t) {
            return b.relExecTime(c, t);
        });
    EXPECT_NEAR(ga.horizontalShiftFactor(gb), 2.0, 0.05);
    EXPECT_NEAR(gb.horizontalShiftFactor(ga), 0.5, 0.02);
}

TEST(DesignSpace, SlopeBoundaryCrossingOnAnalyticSurface)
{
    const DesignSpaceGrid g = analyticGrid(0.10);
    // Boundaries must be ordered: the steeper threshold crosses
    // at a smaller size.
    const double at3 = g.slopeBoundaryCrossing(3.0);
    const double at15 = g.slopeBoundaryCrossing(1.5);
    const double at075 = g.slopeBoundaryCrossing(0.75);
    ASSERT_FALSE(std::isnan(at3));
    ASSERT_FALSE(std::isnan(at15));
    ASSERT_FALSE(std::isnan(at075));
    EXPECT_LT(at3, at15);
    EXPECT_LT(at15, at075);
}

TEST(DesignSpace, SlopeBoundaryShiftTracksL1Improvement)
{
    // Halving ml1 doubles every contour slope (Equation 2), which
    // moves each boundary right by one power-law decade of the
    // miss curve: factor 2^(1/0.535) ~ 3.66 for f = 0.69.
    const DesignSpaceGrid worse = analyticGrid(0.10);
    const DesignSpaceGrid better = analyticGrid(0.05);
    const double shift = worse.slopeBoundaryShiftFactor(better);
    ASSERT_FALSE(std::isnan(shift));
    EXPECT_NEAR(shift, std::pow(2.0, 1.0 / 0.535), 0.8);
    // And the reverse direction shrinks.
    EXPECT_LT(better.slopeBoundaryShiftFactor(worse), 1.0);
}

TEST(DesignSpace, SlopeRegionNames)
{
    EXPECT_NE(std::string(slopeRegionName(4.0)).find(">=3"),
              std::string::npos);
    EXPECT_NE(std::string(slopeRegionName(2.0)).find("1.5-3"),
              std::string::npos);
    EXPECT_NE(std::string(slopeRegionName(1.0)).find("0.75-1.5"),
              std::string::npos);
    EXPECT_NE(std::string(slopeRegionName(0.3)).find("<0.75"),
              std::string::npos);
}

} // namespace
} // namespace expt
} // namespace mlc
