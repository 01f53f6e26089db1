/** @file Tests for the workload suite. */

#include <cstdlib>
#include <set>

#include <gtest/gtest.h>

#include "expt/workload_suite.hh"
#include "trace/mem_ref.hh"

namespace mlc {
namespace expt {
namespace {

TEST(WorkloadSuite, EightTracesLikeThePaper)
{
    const auto suite = paperSuite();
    ASSERT_EQ(suite.size(), 8u);
    std::set<std::string> names;
    std::set<std::uint64_t> variants;
    for (const auto &spec : suite) {
        names.insert(spec.name);
        variants.insert(spec.variant);
    }
    EXPECT_EQ(names.size(), 8u) << "names must be distinct";
    EXPECT_EQ(variants.size(), 8u) << "variants must be distinct";
}

TEST(WorkloadSuite, GridSuiteIsASubset)
{
    const auto grid = gridSuite();
    ASSERT_EQ(grid.size(), 4u);
    // Both flavours represented.
    bool vax = false, mips = false;
    for (const auto &spec : grid) {
        vax |= spec.name.find("mips") == std::string::npos;
        mips |= spec.name.find("mips") != std::string::npos;
    }
    EXPECT_TRUE(vax);
    EXPECT_TRUE(mips);
}

TEST(WorkloadSuite, MaterializeIsDeterministic)
{
    TraceSpec spec = paperSuite()[0];
    spec.warmupRefs = 1000;
    spec.measureRefs = 4000;
    const auto a = materialize(spec);
    const auto b = materialize(spec);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.size(), scaledWarmup(spec) + scaledMeasure(spec));
    for (std::size_t i = 0; i < a.size(); i += 37)
        EXPECT_EQ(a[i], b[i]);
}

TEST(WorkloadSuite, TracesHaveThePaperMix)
{
    TraceSpec spec = paperSuite()[1];
    spec.warmupRefs = 0;
    spec.measureRefs = 100000;
    const auto refs = materialize(spec);
    trace::RefCounts counts;
    for (const auto &r : refs)
        counts.observe(r);
    // ~50% of instructions carry a data ref; ~35% of those are
    // stores (with per-process jitter).
    const double data_frac =
        double(counts.loads + counts.stores) /
        double(counts.ifetches);
    EXPECT_GT(data_frac, 0.40);
    EXPECT_LT(data_frac, 0.60);
    const double store_frac =
        double(counts.stores) / double(counts.loads + counts.stores);
    EXPECT_GT(store_frac, 0.25);
    EXPECT_LT(store_frac, 0.45);
}

TEST(WorkloadSuite, QuickModeShortensRuns)
{
    TraceSpec spec;
    spec.warmupRefs = 80000;
    spec.measureRefs = 160000;
    ASSERT_EQ(setenv("MLC_QUICK", "8", 1), 0);
    EXPECT_EQ(scaledWarmup(spec), 10000ULL);
    EXPECT_EQ(scaledMeasure(spec), 20000ULL);
    ASSERT_EQ(setenv("MLC_QUICK", "1", 1), 0);
    EXPECT_EQ(scaledWarmup(spec), 10000ULL) << "junk divisor -> 8x";
    ASSERT_EQ(unsetenv("MLC_QUICK"), 0);
    EXPECT_EQ(scaledWarmup(spec), 80000ULL);
    EXPECT_EQ(scaledMeasure(spec), 160000ULL);
}

} // namespace
} // namespace expt
} // namespace mlc
