/** @file The engine dispatch: engines::buildGrid matches each
 *  engine's own grid builder cell for cell and bitwise, on 1x1
 *  grids and up, at depths 2 and 3 and for any jobs and shards;
 *  the widened family the server keeps prices like the narrow one;
 *  a mapped prefix profiles like the same span; and the one
 *  command-line parser reads the engine flags. */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engines/engines.hh"
#include "expt/design_space.hh"
#include "expt/workload_suite.hh"
#include "mrc/engine.hh"
#include "onepass/cascade.hh"
#include "onepass/grid.hh"
#include "onepass/model_timing.hh"
#include "onepass/pipeline.hh"
#include "sample/engine.hh"
#include "sample/sweep.hh"
#include "../sample/sampled_suite.hh"
#include "trace/binary.hh"
#include "trace/interleave.hh"
#include "trace/source.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace engines {
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
    cache::CacheParams l3;
    l3.name = "l3";
    l3.geometry.sizeBytes = 1 << 20;
    l3.geometry.blockBytes = 32;
    l3.geometry.assoc = 2;
    l3.cycleNs = 60.0;
    p.levels.push_back(l3);
    p.busWidthWords.push_back(p.busWidthWords.back());
    return p;
}

EngineOptions
optionsFor(Engine engine, std::size_t jobs = 1, std::size_t shards = 1)
{
    EngineOptions opts;
    opts.engine = engine;
    opts.jobs = jobs;
    opts.shards = shards;
    opts.sampler.rate = 1.0;
    return opts;
}

/** 1x1, 1xN, Nx1 and NxN grids. */
struct Shape
{
    std::vector<std::uint64_t> sizes;
    std::vector<std::uint32_t> cycles;
};

std::vector<Shape>
shapes()
{
    const std::vector<std::uint64_t> sizes = {16 << 10, 64 << 10,
                                              256 << 10};
    const std::vector<std::uint32_t> cycles = {1, 3, 5};
    return {{{64 << 10}, {3}},
            {{64 << 10}, cycles},
            {sizes, {3}},
            {sizes, cycles}};
}

void
expectSameGrid(const expt::DesignSpaceGrid &got,
               const expt::DesignSpaceGrid &want)
{
    ASSERT_EQ(got.sizes(), want.sizes());
    ASSERT_EQ(got.cycles(), want.cycles());
    for (std::size_t s = 0; s < want.sizes().size(); ++s)
        for (std::size_t c = 0; c < want.cycles().size(); ++c)
            EXPECT_EQ(got.at(s, c), want.at(s, c))
                << "cell (" << s << ", " << c << ")";
}

void
expectSameProfile(const onepass::TraceProfile &a,
                  const onepass::TraceProfile &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1ReadRequests, b.l1ReadRequests);
    EXPECT_EQ(a.l1ReadMisses, b.l1ReadMisses);
    ASSERT_EQ(a.pivotChain.size(), b.pivotChain.size());
    for (std::size_t k = 0; k < a.pivotChain.size(); ++k)
        EXPECT_TRUE(a.pivotChain[k].counts == b.pivotChain[k].counts);
    ASSERT_EQ(a.configs.size(), b.configs.size());
    for (std::size_t m = 0; m < a.configs.size(); ++m) {
        EXPECT_TRUE(a.configs[m].filtered == b.configs[m].filtered)
            << m;
        EXPECT_TRUE(a.configs[m].solo == b.configs[m].solo) << m;
    }
}

TEST(EngineDispatch, TimingMatchesParallelBuildGrid)
{
    const expt::TraceStore store = smallStore();
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    for (const Shape &g : shapes()) {
        const expt::DesignSpaceGrid want = expt::parallelBuildGrid(
            g.sizes, g.cycles, store,
            [&](std::uint64_t size, std::uint32_t cyc) {
                return base.withL2(size, cyc);
            },
            1);
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}})
            expectSameGrid(buildGrid(optionsFor(Engine::Timing, jobs),
                                     base, g.sizes, g.cycles, store),
                           want);
    }
}

TEST(EngineDispatch, OnePassMatchesOnepassBuildGrid)
{
    const expt::TraceStore store = smallStore();
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    for (const Shape &g : shapes()) {
        const expt::DesignSpaceGrid want =
            onepass::buildGrid(base, g.sizes, g.cycles, store);
        expectSameGrid(buildGrid(optionsFor(Engine::OnePass), base,
                                 g.sizes, g.cycles, store),
                       want);
        expectSameGrid(buildGrid(optionsFor(Engine::OnePass, 3, 4),
                                 base, g.sizes, g.cycles, store),
                       want);
    }
}

TEST(EngineDispatch, MrcAtUnitRateMatchesOnePass)
{
    const expt::TraceStore store = smallStore();
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    for (const Shape &g : shapes())
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}})
            expectSameGrid(
                buildGrid(optionsFor(Engine::Mrc, jobs), base,
                          g.sizes, g.cycles, store),
                onepass::buildGrid(base, g.sizes, g.cycles, store));
}

TEST(EngineDispatch, SampledMatchesCheckpointedAndStraightLineGrids)
{
    const expt::TraceStore store = smallStore();
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    EngineOptions opts = optionsFor(Engine::Sampled);
    opts.sampled.period = 6'000;
    opts.sampled.measureRefs = 1'000;
    opts.sampled.detailWarmRefs = 500;
    opts.sampled.functionalWarmRefs = 3'000;
    for (const Shape &g : {shapes().front(), shapes().back()}) {
        const expt::DesignSpaceGrid checkpointed =
            sample::buildGridCheckpointed(base, g.sizes, g.cycles,
                                          store, opts.sampled);
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
            opts.jobs = jobs;
            expectSameGrid(
                buildGrid(opts, base, g.sizes, g.cycles, store),
                checkpointed);
        }
        expectSameGrid(checkpointed,
                       sample::straight_line::buildGrid(
                           base, g.sizes, g.cycles, store,
                           opts.sampled));
    }
}

TEST(EngineDispatch, DepthThreeMatchesACascadePricedPerTrace)
{
    const expt::TraceStore store = smallStore();
    const hier::HierarchyParams base = threeLevelBase();
    const std::vector<std::uint64_t> sizes = {32 << 10, 128 << 10};
    const std::vector<std::uint32_t> cycles = {2, 4};
    onepass::CascadeFamilySpec family;
    for (const std::uint64_t s : sizes)
        family.pivots.push_back({s, 1, 32});
    family.l3.configs.push_back({1 << 20, 2, 32});

    for (const Engine engine : {Engine::OnePass, Engine::Mrc}) {
        SCOPED_TRACE(engineName(engine));
        // The reference: one cascade profile per trace, priced cell
        // by cell with the depth-3 Equation 1-3 model.
        std::vector<std::vector<onepass::TraceProfile>> per_trace;
        for (std::size_t t = 0; t < store.size(); ++t) {
            const std::uint64_t warm =
                expt::scaledWarmup(store.specs()[t]);
            mrc::MrcOptions unit;
            unit.sampler.rate = 1.0;
            per_trace.push_back(
                engine == Engine::OnePass
                    ? onepass::profileCascadeTrace(base, family,
                                                   store.span(t), warm)
                    : mrc::profileCascadeTrace(base, family,
                                               store.span(t), warm,
                                               unit));
        }
        expt::DesignSpaceGrid want(sizes, cycles);
        for (std::size_t c = 0; c < cycles.size(); ++c) {
            const onepass::EqTimingModel model =
                onepass::EqTimingModel::forMachine(
                    base.withL2(sizes[0], cycles[c]));
            for (std::size_t s = 0; s < sizes.size(); ++s) {
                double sum = 0.0;
                for (const auto &profiles : per_trace)
                    sum += model.relExec(profiles[s], 0);
                want.set(s, c,
                         sum / static_cast<double>(per_trace.size()));
            }
        }
        expectSameGrid(
            buildGrid(optionsFor(engine), base, sizes, cycles, store),
            want);
        expectSameGrid(buildGrid(optionsFor(engine, 3, 4), base,
                                 sizes, cycles, store),
                       want);
        // A 1x1 grid prices its cell as the full grid does.
        EXPECT_EQ(buildGrid(optionsFor(engine), base, {sizes[1]},
                            {cycles[0]}, store)
                      .at(0, 0),
                  want.at(1, 0));
    }
}

TEST(EngineDispatch, TimingAtDepthThreeSimulatesTheThreeLevelMachine)
{
    const expt::TraceStore store = smallStore();
    const hier::HierarchyParams base = threeLevelBase();
    const std::vector<std::uint64_t> sizes = {32 << 10, 128 << 10};
    const std::vector<std::uint32_t> cycles = {2, 4};
    const expt::DesignSpaceGrid want = expt::parallelBuildGrid(
        sizes, cycles, store,
        [&](std::uint64_t size, std::uint32_t cyc) {
            return base.withL2(size, cyc);
        },
        1);
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}})
        expectSameGrid(buildGrid(optionsFor(Engine::Timing, jobs), base,
                                 sizes, cycles, store),
                       want);
}

TEST(EngineDispatch, WidenedFamilyPricesLikeTheNarrowOne)
{
    const expt::TraceStore store = smallStore();
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const EngineOptions opts = optionsFor(Engine::OnePass);
    const std::vector<std::uint64_t> sizes = {16 << 10, 64 << 10};
    const std::vector<std::uint32_t> cycles = {2, 7};

    const onepass::CascadeFamilySpec narrow = familyFor(base, sizes);
    const onepass::CascadeFamilySpec wide =
        familyFor(base, expt::paperSizes());
    const auto wide_profiles = std::make_shared<
        const std::vector<onepass::TraceProfile>>(
        profile(opts, base, wide, store));
    const expt::DesignSpaceGrid from_narrow = onepass::price(
        base, narrow, profile(opts, base, narrow, store), sizes,
        cycles);
    expectSameGrid(
        onepass::price(base, wide, *wide_profiles, sizes, cycles),
        from_narrow);

    // The same through buildGrid with a source that widens, as the
    // server's resident profile cache does.
    EngineOptions cached = opts;
    std::size_t asked = 0;
    cached.profiles = [&](onepass::CascadeFamilySpec needed) {
        ++asked;
        EXPECT_EQ(needed.key(), narrow.key());
        return FamilyProfiles{wide, wide_profiles};
    };
    expectSameGrid(buildGrid(cached, base, sizes, cycles, store),
                   from_narrow);
    EXPECT_EQ(asked, 1u);
}

TEST(EngineDispatch, JobsAndShardsNeverChangeTheGrid)
{
    const expt::TraceStore store = smallStore();
    const Shape g = shapes().back();
    for (const hier::HierarchyParams &base :
         {hier::HierarchyParams::baseMachine(), threeLevelBase()})
        for (const Engine engine :
             {Engine::Timing, Engine::OnePass, Engine::Mrc}) {
            SCOPED_TRACE(engineName(engine));
            EngineOptions serial = optionsFor(engine);
            serial.sampler.rate = 0.25;
            serial.sampler.minSets = 64;
            EngineOptions parallel = serial;
            parallel.jobs = 4;
            parallel.shards = 3;
            expectSameGrid(
                buildGrid(parallel, base, g.sizes, g.cycles, store),
                buildGrid(serial, base, g.sizes, g.cycles, store));
        }
}

TEST(EngineDispatchDeathTest, SampledSweepsTwoLevelMachinesOnly)
{
    const expt::TraceStore store = smallStore();
    EXPECT_DEATH(buildGrid(optionsFor(Engine::Sampled),
                           threeLevelBase(), {64 << 10}, {3}, store),
                 "two-level");
}

TEST(EngineDispatchDeathTest, SimulatingEnginesProfileNoFamily)
{
    const expt::TraceStore store = smallStore();
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    EXPECT_DEATH(profile(optionsFor(Engine::Timing), base,
                         familyFor(base, {64 << 10}), store),
                 "profiles no cache family");
}

class EngineProfileMapped : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 "mlc_engine_dispatch_test.mlct")
                    .string();
        auto gen = trace::makeMultiprogrammedWorkload(4, 6000, 11);
        refs_ = trace::collect(*gen, 80'000);
        std::ofstream out(path_, std::ios::binary);
        trace::BinaryWriter writer(out);
        writer.putSpan({refs_.data(), refs_.size()});
        writer.finish();
    }

    void TearDown() override { std::filesystem::remove(path_); }

    std::string path_;
    std::vector<trace::MemRef> refs_;
};

/** Profile @p refs with @p sinks in chunks of 7000 references,
 *  validating and releasing them in @p mapped. */
template <typename Sinks>
std::vector<onepass::TraceProfile>
profileChunked(const Sinks &sinks, const hier::HierarchyParams &base,
               const onepass::CascadeFamilySpec &family,
               trace::RefSpan refs, std::uint64_t warmup,
               const trace::MappedBinaryTrace &mapped)
{
    onepass::Pipeline<Sinks> pipe(base, family.pivots, family.l3,
                                  warmup, true, false, sinks);
    return pipe.run(refs, &mapped, 7'000);
}

TEST_F(EngineProfileMapped, PrefixWithChunkedValidationMatchesTheSpan)
{
    const trace::MappedBinaryTrace mapped(
        path_, trace::MappedBinaryTrace::Backing::Auto,
        trace::MappedBinaryTrace::Validation::Lazy);
    const std::size_t prefix = 50'000;
    const std::uint64_t warmup = prefix / 3;
    const trace::RefSpan in_memory{refs_.data(), prefix};

    for (const hier::HierarchyParams &base :
         {hier::HierarchyParams::baseMachine(), threeLevelBase()}) {
        const onepass::CascadeFamilySpec family =
            familyFor(base, {32 << 10, 256 << 10});
        for (const Engine engine : {Engine::OnePass, Engine::Mrc}) {
            SCOPED_TRACE(engineName(engine));
            EngineOptions opts = optionsFor(engine);
            opts.sampler.rate = 0.25;
            opts.sampler.minSets = 64;
            const auto want = profile(opts, base, family, in_memory,
                                      warmup, nullptr, true);
            const auto got =
                profile(opts, base, family, mapped.span().first(prefix),
                        warmup, &mapped, true);
            const auto chunked =
                engine == Engine::OnePass
                    ? profileChunked(onepass::ExactSinks{}, base,
                                     family,
                                     mapped.span().first(prefix),
                                     warmup, mapped)
                    : profileChunked(mrc::SampledSinks{opts.sampler},
                                     base, family,
                                     mapped.span().first(prefix),
                                     warmup, mapped);
            ASSERT_EQ(got.size(), want.size());
            ASSERT_EQ(chunked.size(), want.size());
            for (std::size_t p = 0; p < want.size(); ++p) {
                expectSameProfile(got[p], want[p]);
                expectSameProfile(chunked[p], want[p]);
            }
            // The prefix is all that was profiled.
            const auto whole = profile(opts, base, family,
                                       mapped.span(), warmup, &mapped);
            EXPECT_LT(got[0].instructions, whole[0].instructions);
        }
    }
}

/** argv for parseArgs from string literals. */
class Argv
{
  public:
    Argv(std::initializer_list<const char *> args)
        : storage_(args.begin(), args.end())
    {
        storage_.insert(storage_.begin(), "prog");
        for (std::string &s : storage_)
            ptrs_.push_back(s.data());
        ptrs_.push_back(nullptr);
    }
    int argc() const { return static_cast<int>(ptrs_.size()) - 1; }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> storage_;
    std::vector<char *> ptrs_;
};

/** Unsets MLC_SHARDS for one test, restoring it after. */
class ScopedNoShardsEnv
{
  public:
    ScopedNoShardsEnv()
    {
        if (const char *v = std::getenv("MLC_SHARDS")) {
            saved_ = v;
            had_ = true;
            ::unsetenv("MLC_SHARDS");
        }
    }
    ~ScopedNoShardsEnv()
    {
        if (had_)
            ::setenv("MLC_SHARDS", saved_.c_str(), 1);
    }

  private:
    std::string saved_;
    bool had_ = false;
};

TEST(EngineArgs, EveryEngineHasOneName)
{
    for (const Engine e : {Engine::Timing, Engine::OnePass,
                           Engine::Sampled, Engine::Mrc}) {
        Engine back = Engine::Timing;
        ASSERT_TRUE(engineNamed(engineName(e), back)) << engineName(e);
        EXPECT_EQ(back, e);
    }
    Engine e = Engine::Mrc;
    EXPECT_FALSE(engineNamed("bogus", e));
    EXPECT_EQ(e, Engine::Mrc);
}

TEST(EngineArgs, DefaultsWithoutFlags)
{
    const ScopedNoShardsEnv no_env;
    Argv args{};
    mrc::SamplerConfig exact;
    exact.rate = 1.0;
    const EngineOptions opts =
        parseArgs(args.argc(), args.argv(), nullptr, exact);
    EXPECT_EQ(opts.engine, Engine::Timing);
    EXPECT_EQ(opts.jobs, defaultJobs());
    EXPECT_EQ(opts.shards, 1u);
    EXPECT_EQ(opts.sampler.rate, 1.0);
    EXPECT_EQ(opts.sampler.budget, 0u);
}

TEST(EngineArgs, MrcTakesItsSampleRate)
{
    Argv args{"--engine=mrc", "--sample-rate=1"};
    const EngineOptions opts = parseArgs(args.argc(), args.argv());
    EXPECT_EQ(opts.engine, Engine::Mrc);
    EXPECT_EQ(opts.sampler.rate, 1.0);
}

TEST(EngineArgs, BothFormsAndTheRestInOrder)
{
    Argv args{"a.cfg",         "--engine", "onepass", "--jobs", "3",
              "--shards=2",    "trace.mlct", "--sample-budget=500",
              "--paired",      "--sample-rate", "0.5", "1000"};
    std::vector<std::string> rest;
    const EngineOptions opts =
        parseArgs(args.argc(), args.argv(), &rest);
    EXPECT_EQ(opts.engine, Engine::OnePass);
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.shards, 2u);
    EXPECT_EQ(opts.sampler.budget, 500u);
    EXPECT_EQ(opts.sampler.rate, 0.5);
    EXPECT_EQ(rest, (std::vector<std::string>{"a.cfg", "trace.mlct",
                                              "--paired", "1000"}));
}

TEST(EngineArgsDeathTest, BadValuesAreFatal)
{
    const auto parse = [](std::initializer_list<const char *> list) {
        Argv args(list);
        parseArgs(args.argc(), args.argv());
    };
    for (const char *rate : {"--sample-rate=0", "--sample-rate=1.5",
                             "--sample-rate=abc", "--sample-rate=0.5x",
                             "--sample-rate="})
        EXPECT_EXIT(parse({rate}), testing::ExitedWithCode(1),
                    "bad --sample-rate value")
            << rate;
    EXPECT_EXIT(parse({"--sample-budget=-1"}),
                testing::ExitedWithCode(1), "bad --sample-budget value");
    EXPECT_EXIT(parse({"--jobs=0"}), testing::ExitedWithCode(1),
                "bad --jobs value");
    EXPECT_EXIT(parse({"--jobs", "abc"}), testing::ExitedWithCode(1),
                "bad --jobs value");
    EXPECT_EXIT(parse({"--shards=0"}), testing::ExitedWithCode(1),
                "bad --shards value");
    EXPECT_EXIT(parse({"--engine=bogus"}), testing::ExitedWithCode(1),
                "bad --engine value");
}

} // namespace
} // namespace engines
} // namespace mlc
