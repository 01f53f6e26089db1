/** @file End-to-end contracts of the streaming sampled-MRC engine:
 *  at rate 1.0 the full pipeline (profileTrace, the store profile
 *  and grid of engines::profile/buildGrid) is bit-identical to the
 *  exact one-pass engine, and
 *  profiling is chunking-invariant: profileMapped at any
 *  streamChunkRefs, and the pipeline under it with the exact sink
 *  or a cascade stage at any chunk size, give the in-memory
 *  profile. */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "engines/engines.hh"
#include "expt/workload_suite.hh"
#include "mrc/engine.hh"
#include "onepass/cascade.hh"
#include "onepass/engine.hh"
#include "onepass/grid.hh"
#include "onepass/pipeline.hh"
#include "trace/binary.hh"
#include "trace/interleave.hh"
#include "trace/source.hh"

namespace mlc {
namespace mrc {
namespace {

// Both engines build the one stack-distance analyzer, exact or
// sampled.
static_assert(std::is_same_v<SampledSinks::Fa, onepass::ExactSinks::Fa>);

/** Pins MLC_QUICK off for one test. The statistical-tolerance test
 *  below is calibrated at smallStore()'s 60k-ref scale, which is
 *  already smoke-sized; letting quick mode divide it further (down
 *  to the 1000/2000-ref floors) inflates cross-set variance past
 *  any meaningful band. */
class ScopedFullScale
{
  public:
    ScopedFullScale()
    {
        const char *v = std::getenv("MLC_QUICK");
        if (v != nullptr) {
            saved_ = v;
            had_ = true;
            ::unsetenv("MLC_QUICK");
        }
    }
    ~ScopedFullScale()
    {
        if (had_)
            ::setenv("MLC_QUICK", saved_.c_str(), 1);
    }

  private:
    std::string saved_;
    bool had_ = false;
};

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

TEST(MrcEngine, UnitRateGridMatchesOnepassBitForBit)
{
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const std::vector<std::uint64_t> sizes = {
        16 << 10, 64 << 10, 256 << 10};
    const std::vector<std::uint32_t> cycles = {1, 3, 5};
    const expt::TraceStore store = smallStore();

    const expt::DesignSpaceGrid exact =
        onepass::buildGrid(base, sizes, cycles, store, 2);
    engines::EngineOptions unit;
    unit.engine = engines::Engine::Mrc;
    unit.jobs = 2;
    unit.sampler.rate = 1.0;
    const expt::DesignSpaceGrid sampled =
        engines::buildGrid(unit, base, sizes, cycles, store);
    for (std::size_t s = 0; s < sizes.size(); ++s)
        for (std::size_t c = 0; c < cycles.size(); ++c)
            EXPECT_EQ(sampled.at(s, c), exact.at(s, c))
                << "cell (" << s << ", " << c << ")";
}

TEST(MrcEngine, SampledGridStaysCloseToExact)
{
    const ScopedFullScale full_scale;
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const std::vector<std::uint64_t> sizes = {64 << 10,
                                              256 << 10};
    const std::vector<std::uint32_t> cycles = {1, 3};
    const expt::TraceStore store = smallStore();

    const expt::DesignSpaceGrid exact =
        onepass::buildGrid(base, sizes, cycles, store, 1);
    engines::EngineOptions cfg;
    cfg.engine = engines::Engine::Mrc;
    cfg.sampler.rate = 0.1;
    cfg.sampler.minSets = 64;
    const expt::DesignSpaceGrid sampled =
        engines::buildGrid(cfg, base, sizes, cycles, store);
    for (std::size_t s = 0; s < sizes.size(); ++s)
        for (std::size_t c = 0; c < cycles.size(); ++c)
            EXPECT_NEAR(sampled.at(s, c), exact.at(s, c), 0.15)
                << "cell (" << s << ", " << c << ")";
}

TEST(MrcEngine, ProfileSuiteDeterministicAcrossJobs)
{
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const onepass::FamilySpec family = onepass::FamilySpec::l2Grid(
        base, {32 << 10, 128 << 10});
    const expt::TraceStore store = smallStore();
    engines::EngineOptions opts;
    opts.engine = engines::Engine::Mrc;
    opts.sampler.rate = 0.1;
    opts.sampler.minSets = 64;
    const auto one =
        engines::profile(opts, base, {{}, family}, store, true);
    opts.jobs = 4;
    const auto four =
        engines::profile(opts, base, {{}, family}, store, true);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t t = 0; t < one.size(); ++t) {
        ASSERT_EQ(one[t].configs.size(), four[t].configs.size());
        EXPECT_EQ(one[t].l1ReadMisses, four[t].l1ReadMisses);
        for (std::size_t i = 0; i < one[t].configs.size(); ++i) {
            EXPECT_EQ(one[t].configs[i].filtered.reads,
                      four[t].configs[i].filtered.reads);
            EXPECT_EQ(one[t].configs[i].filtered.readMisses,
                      four[t].configs[i].filtered.readMisses);
        }
    }
}

/** The base machine over a 1MB 2-way L3 (the cascade tests'
 *  three-level shape). */
hier::HierarchyParams
threeLevelBase()
{
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
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

/** Every field a chunked replay could disturb, compared exactly. */
void
expectSameProfile(const onepass::TraceProfile &a,
                  const onepass::TraceProfile &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1ReadRequests, b.l1ReadRequests);
    EXPECT_EQ(a.l1ReadMisses, b.l1ReadMisses);
    ASSERT_EQ(a.configs.size(), b.configs.size());
    for (std::size_t i = 0; i < a.configs.size(); ++i) {
        const onepass::ConfigProfile &x = a.configs[i];
        const onepass::ConfigProfile &y = b.configs[i];
        EXPECT_TRUE(x.filtered == y.filtered) << i;
        EXPECT_TRUE(x.solo == y.solo) << i;
        EXPECT_EQ(x.faMissRatio, y.faMissRatio) << i;
        EXPECT_EQ(x.faCompulsory, y.faCompulsory) << i;
    }
    ASSERT_EQ(a.pivotChain.size(), b.pivotChain.size());
    for (std::size_t k = 0; k < a.pivotChain.size(); ++k) {
        EXPECT_TRUE(a.pivotChain[k].counts == b.pivotChain[k].counts)
            << k;
        EXPECT_TRUE(a.pivotChain[k].solo == b.pivotChain[k].solo)
            << k;
    }
}

/** Feed @p refs to @p pipe in chunks of @p chunk references (0: one
 *  chunk), as profileMapped does, and finish it. */
template <typename Sinks>
std::vector<onepass::TraceProfile>
profileInChunks(onepass::Pipeline<Sinks> &pipe, trace::RefSpan refs,
                std::uint64_t chunk)
{
    const std::size_t step = chunk == 0 ? refs.size : chunk;
    for (std::size_t at = 0; at < refs.size; at += step)
        pipe.feed(refs.dropFirst(at).first(step));
    return pipe.finish();
}

class MrcEngineMapped : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 "mlc_mrc_engine_test.mlct")
                    .string();
        auto gen = trace::makeMultiprogrammedWorkload(4, 6000, 9);
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

TEST_F(MrcEngineMapped, ChunkingNeverChangesTheProfile)
{
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const onepass::FamilySpec family = onepass::FamilySpec::l2Grid(
        base, {32 << 10, 256 << 10});
    const hier::HierarchyParams three = threeLevelBase();
    onepass::CascadeFamilySpec cascade;
    cascade.pivots = {{32 << 10, 1, 32}, {128 << 10, 1, 32}};
    cascade.l3.configs = {{512 << 10, 2, 32}, {2 << 20, 2, 64}};
    const std::uint64_t warmup = refs_.size() / 4;

    MrcOptions opts;
    opts.sampler.rate = 0.1;
    opts.sampler.minSets = 64;
    opts.solo = true;
    opts.faBound = true;
    const onepass::TraceProfile in_memory = mrc::profileTrace(
        base, family, refs_, warmup, opts);
    onepass::ProfileOptions exact_opts;
    exact_opts.solo = true;
    exact_opts.faBound = true;
    const onepass::TraceProfile exact = onepass::profileTrace(
        base, family, refs_, warmup, exact_opts);
    const std::vector<onepass::TraceProfile> cascaded =
        onepass::profileCascadeTrace(three, cascade, refs_, warmup,
                                     exact_opts);

    const trace::MappedBinaryTrace mapped(
        path_, trace::MappedBinaryTrace::Backing::Auto,
        trace::MappedBinaryTrace::Validation::Lazy);
    ASSERT_EQ(mapped.span().size, refs_.size());

    // One reference per chunk; a partial tail; a chunk edge exactly
    // on the warm-up boundary; the whole trace (0 = one chunk).
    for (const std::uint64_t chunk :
         {std::uint64_t{1}, std::uint64_t{1000}, warmup,
          std::uint64_t{0}}) {
        SCOPED_TRACE(chunk);
        MrcOptions copts = opts;
        copts.streamChunkRefs = chunk;
        expectSameProfile(
            mrc::profileMapped(base, family, mapped, warmup, copts),
            in_memory);

        // The exact sink and a cascade stage over the same chunks;
        // one-reference chunks sweep on one shard, since more would
        // start workers for every reference.
        const onepass::ExactSinks sinks{chunk == 1 ? 1u : 3u};
        onepass::Pipeline<onepass::ExactSinks> two_level(
            base, {}, family, warmup, true, true, sinks);
        expectSameProfile(
            profileInChunks(two_level, mapped.span(), chunk).front(),
            exact);

        onepass::Pipeline<onepass::ExactSinks> three_level(
            three, cascade.pivots, cascade.l3, warmup, true, true,
            sinks);
        const std::vector<onepass::TraceProfile> chunked =
            profileInChunks(three_level, mapped.span(), chunk);
        ASSERT_EQ(chunked.size(), cascaded.size());
        for (std::size_t p = 0; p < chunked.size(); ++p)
            expectSameProfile(chunked[p], cascaded[p]);
    }
}

} // namespace
} // namespace mrc
} // namespace mlc
