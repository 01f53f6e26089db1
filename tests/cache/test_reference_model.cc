/** @file Property tests: the TagArray against a naive reference
 *  cache, and classic cache inclusion/monotonicity properties. */

#include <list>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "cache/tag_array.hh"
#include "util/random.hh"

namespace mlc {
namespace cache {
namespace {

/** Obviously-correct LRU set-associative cache. */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t size, std::uint32_t block,
                   std::uint32_t ways)
        : blockBytes_(block), ways_(ways),
          sets_(size / block / ways)
    {
        lru_.resize(sets_);
    }

    /** @return true on hit; installs on miss, evicting true LRU. */
    bool
    access(Addr addr)
    {
        const Addr blk = addr / blockBytes_;
        const std::size_t set =
            static_cast<std::size_t>(blk % sets_);
        auto &list = lru_[set];
        for (auto it = list.begin(); it != list.end(); ++it) {
            if (*it == blk) {
                list.erase(it);
                list.push_front(blk);
                return true;
            }
        }
        list.push_front(blk);
        if (list.size() > ways_)
            list.pop_back();
        return false;
    }

  private:
    std::uint64_t blockBytes_;
    std::uint32_t ways_;
    std::uint64_t sets_;
    std::vector<std::list<Addr>> lru_;
};

CacheGeometry
geom(std::uint64_t size, std::uint32_t block, std::uint32_t assoc)
{
    CacheGeometry g;
    g.sizeBytes = size;
    g.blockBytes = block;
    g.assoc = assoc;
    g.finalize("ref");
    return g;
}

struct Shape
{
    std::uint64_t size;
    std::uint32_t block;
    std::uint32_t assoc;
};

class TagArrayVsReference : public testing::TestWithParam<Shape>
{
};

TEST_P(TagArrayVsReference, IdenticalHitMissSequence)
{
    const Shape shape = GetParam();
    TagArray tags(geom(shape.size, shape.block, shape.assoc),
                  ReplPolicy::LRU);
    ReferenceCache ref(shape.size, shape.block,
                       shape.assoc == 0
                           ? static_cast<std::uint32_t>(
                                 shape.size / shape.block)
                           : shape.assoc);
    Rng rng(1234 + shape.size + shape.assoc);
    for (int i = 0; i < 30000; ++i) {
        // Cluster addresses so hits actually happen.
        const Addr addr =
            rng.nextBounded(shape.size * 4) & ~Addr{3};
        const bool ref_hit = ref.access(addr);
        const ProbeResult p = tags.probe(addr);
        ASSERT_EQ(p.hit, ref_hit)
            << "step " << i << " addr 0x" << std::hex << addr;
        if (p.hit)
            tags.touch(addr, p.way);
        else
            tags.fill(addr, false);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TagArrayVsReference,
    testing::Values(Shape{256, 16, 1}, Shape{256, 16, 2},
                    Shape{512, 16, 4}, Shape{512, 32, 2},
                    Shape{1024, 16, 8}, Shape{1024, 64, 1},
                    Shape{512, 16, 0}, Shape{2048, 32, 4}),
    [](const testing::TestParamInfo<Shape> &param_info) {
        std::string name = "s";
        name += std::to_string(param_info.param.size);
        name += "_b";
        name += std::to_string(param_info.param.block);
        name += "_a";
        name += std::to_string(param_info.param.assoc);
        return name;
    });

/**
 * LRU inclusion property: with the same number of sets, a cache
 * with more ways contains every block a cache with fewer ways
 * holds, so misses are monotonically non-increasing in
 * associativity (the basis of Section 5's benefit claims).
 */
TEST(LruProperties, MissesMonotoneInAssociativity)
{
    constexpr std::uint32_t kBlock = 16;
    constexpr std::uint64_t kSets = 16;
    Rng rng(777);
    std::vector<Addr> stream;
    for (int i = 0; i < 40000; ++i)
        stream.push_back(rng.nextBounded(1 << 14) & ~Addr{3});

    std::uint64_t prev_misses = ~0ULL;
    for (std::uint32_t ways : {1u, 2u, 4u, 8u}) {
        TagArray tags(geom(kSets * ways * kBlock, kBlock, ways),
                      ReplPolicy::LRU);
        std::uint64_t misses = 0;
        for (Addr a : stream) {
            const ProbeResult p = tags.probe(a);
            if (p.hit) {
                tags.touch(a, p.way);
            } else {
                ++misses;
                tags.fill(a, false);
            }
        }
        EXPECT_LE(misses, prev_misses) << ways << " ways";
        prev_misses = misses;
    }
}

/**
 * Fully-associative LRU stack property: doubling the capacity can
 * only remove misses (same set count = 1).
 */
TEST(LruProperties, MissesMonotoneInSizeFullyAssociative)
{
    Rng rng(888);
    std::vector<Addr> stream;
    for (int i = 0; i < 30000; ++i)
        stream.push_back(rng.nextBounded(1 << 13) & ~Addr{3});

    std::uint64_t prev_misses = ~0ULL;
    for (std::uint64_t size : {256ULL, 512ULL, 1024ULL, 2048ULL}) {
        TagArray tags(geom(size, 16, 0), ReplPolicy::LRU);
        std::uint64_t misses = 0;
        for (Addr a : stream) {
            const ProbeResult p = tags.probe(a);
            if (p.hit) {
                tags.touch(a, p.way);
            } else {
                ++misses;
                tags.fill(a, false);
            }
        }
        EXPECT_LE(misses, prev_misses) << size << " bytes";
        prev_misses = misses;
    }
}

} // namespace
} // namespace cache
} // namespace mlc
