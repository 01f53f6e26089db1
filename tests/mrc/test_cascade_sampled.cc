/** @file Sampled cascade engine contracts: at rate 1.0 (any salt
 *  seed) the joint L2xL3 profiles are bit-identical to the exact
 *  cascade engine; at real rates the member estimates stay close,
 *  runs are deterministic, and salt seeds re-draw the kept sets. */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "engines/engines.hh"
#include "expt/workload_suite.hh"
#include "mrc/engine.hh"
#include "onepass/cascade.hh"

namespace mlc {
namespace mrc {
namespace {

expt::TraceStore
smallStore()
{
    std::vector<expt::TraceSpec> specs = {expt::paperSuite()[0],
                                          expt::paperSuite()[1]};
    for (expt::TraceSpec &s : specs) {
        s.warmupRefs = 20'000;
        s.measureRefs = 40'000;
    }
    return expt::TraceStore::materialize(specs, 1);
}

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

onepass::CascadeFamilySpec
jointFamily()
{
    onepass::CascadeFamilySpec family;
    family.pivots.push_back({32 << 10, 1, 32});
    family.pivots.push_back({64 << 10, 1, 32});
    family.l3.configs.push_back({512 << 10, 2, 32});
    family.l3.configs.push_back({1 << 20, 2, 32});
    return family;
}

/** Profiles of the joint family over @p store, pivot-major (entry
 *  i is pivot i / traces, trace i % traces). */
std::vector<onepass::TraceProfile>
suiteProfiles(engines::Engine engine, const SamplerConfig &sampler,
              const expt::TraceStore &store, std::size_t jobs,
              bool solo, bool fa_bound)
{
    engines::EngineOptions opts;
    opts.engine = engine;
    opts.jobs = jobs;
    opts.sampler = sampler;
    return engines::profile(opts, threeLevelBase(), jointFamily(),
                            store, solo, fa_bound);
}

void
expectSameProfiles(const onepass::TraceProfile &a,
                   const onepass::TraceProfile &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1ReadRequests, b.l1ReadRequests);
    EXPECT_EQ(a.l1ReadMisses, b.l1ReadMisses);
    ASSERT_EQ(a.pivotChain.size(), b.pivotChain.size());
    for (std::size_t k = 0; k < a.pivotChain.size(); ++k) {
        EXPECT_EQ(a.pivotChain[k].counts.reads,
                  b.pivotChain[k].counts.reads);
        EXPECT_EQ(a.pivotChain[k].counts.readMisses,
                  b.pivotChain[k].counts.readMisses);
        EXPECT_EQ(a.pivotChain[k].solo.reads,
                  b.pivotChain[k].solo.reads);
        EXPECT_EQ(a.pivotChain[k].solo.readMisses,
                  b.pivotChain[k].solo.readMisses);
    }
    ASSERT_EQ(a.configs.size(), b.configs.size());
    for (std::size_t m = 0; m < a.configs.size(); ++m) {
        const onepass::ConfigProfile &x = a.configs[m];
        const onepass::ConfigProfile &y = b.configs[m];
        EXPECT_EQ(x.filtered.reads, y.filtered.reads) << m;
        EXPECT_EQ(x.filtered.readMisses, y.filtered.readMisses)
            << m;
        EXPECT_EQ(x.filtered.extraAccesses,
                  y.filtered.extraAccesses)
            << m;
        EXPECT_EQ(x.filtered.extraMisses, y.filtered.extraMisses)
            << m;
        EXPECT_EQ(x.solo.reads, y.solo.reads) << m;
        EXPECT_EQ(x.solo.readMisses, y.solo.readMisses) << m;
        EXPECT_EQ(x.faCompulsory, y.faCompulsory) << m;
        EXPECT_DOUBLE_EQ(x.faMissRatio, y.faMissRatio) << m;
    }
}

TEST(MrcCascade, UnitRateBitIdenticalToExactCascade)
{
    const expt::TraceStore store = smallStore();
    const auto exact = suiteProfiles(engines::Engine::OnePass, {},
                                     store, 2, true, true);

    // Any salt seed: naturals keep every set regardless.
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{7777}}) {
        SCOPED_TRACE(seed);
        SamplerConfig sampler;
        sampler.rate = 1.0;
        sampler.saltSeed = seed;
        const auto sampled = suiteProfiles(
            engines::Engine::Mrc, sampler, store, 2, true, true);
        ASSERT_EQ(sampled.size(), exact.size());
        for (std::size_t i = 0; i < exact.size(); ++i)
            expectSameProfiles(sampled[i], exact[i]);
    }
}

TEST(MrcCascade, SampledMemberRatiosStayClose)
{
    const expt::TraceStore store = smallStore();
    const auto exact = suiteProfiles(engines::Engine::OnePass, {},
                                     store, 1, false, false);

    SamplerConfig sampler;
    sampler.rate = 0.25;
    sampler.minSets = 64;
    const auto sampled = suiteProfiles(engines::Engine::Mrc, sampler,
                                       store, 1, false, false);
    for (std::size_t i = 0; i < exact.size(); ++i) {
        // Pivot counts are exact by construction, never estimates.
        EXPECT_EQ(sampled[i].pivotChain[0].counts.readMisses,
                  exact[i].pivotChain[0].counts.readMisses);
        for (std::size_t m = 0; m < exact[i].configs.size(); ++m) {
            const double got =
                sampled[i].configs[m].filtered.localMissRatio();
            const double want =
                exact[i].configs[m].filtered.localMissRatio();
            EXPECT_NEAR(got, want, 0.15)
                << "pivot " << i / store.size() << " trace "
                << i % store.size() << " member " << m;
        }
    }
}

TEST(MrcCascade, DeterministicAcrossJobsAndRepeatRuns)
{
    const expt::TraceStore store = smallStore();
    SamplerConfig sampler;
    sampler.rate = 0.25;
    sampler.minSets = 64;
    const auto one = suiteProfiles(engines::Engine::Mrc, sampler,
                                   store, 1, true, false);
    const auto four = suiteProfiles(engines::Engine::Mrc, sampler,
                                    store, 4, true, false);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        expectSameProfiles(one[i], four[i]);
}

TEST(MrcCascade, SaltSeedRedrawsKeptSetsDeterministically)
{
    const expt::TraceStore store = smallStore();
    const hier::HierarchyParams base = threeLevelBase();
    const onepass::CascadeFamilySpec family = jointFamily();

    MrcOptions a;
    a.sampler.rate = 0.25;
    a.sampler.minSets = 64;
    MrcOptions b = a;
    b.sampler.saltSeed = 1;

    const auto run_a = profileCascadeTrace(
        base, family, store.traces()[0], 20'000, a);
    const auto run_a2 = profileCascadeTrace(
        base, family, store.traces()[0], 20'000, a);
    const auto run_b = profileCascadeTrace(
        base, family, store.traces()[0], 20'000, b);

    // Same seed: same subsets, same integers. Different seed:
    // different kept sets, so at least one member count moves
    // (pivot counts stay exact either way).
    bool any_diff = false;
    for (std::size_t p = 0; p < run_a.size(); ++p) {
        expectSameProfiles(run_a[p], run_a2[p]);
        EXPECT_EQ(run_a[p].pivotChain[0].counts.readMisses,
                  run_b[p].pivotChain[0].counts.readMisses);
        for (std::size_t m = 0; m < run_a[p].configs.size(); ++m)
            any_diff =
                any_diff ||
                run_a[p].configs[m].filtered.readMisses !=
                    run_b[p].configs[m].filtered.readMisses;
    }
    EXPECT_TRUE(any_diff)
        << "seed 1 sampled the exact same sets as seed 0";
}

} // namespace
} // namespace mrc
} // namespace mlc
