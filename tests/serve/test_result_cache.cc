/** @file Tests for the multi-tenant result memo. */

#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "serve/result_cache.hh"

namespace mlc {
namespace serve {
namespace {

MemoKey
key(const std::string &tag, const std::string &detail,
    const std::string &engine = "onepass")
{
    return MemoKey{tag, engine, detail};
}

ResultCache::Payload
payload(const std::string &s)
{
    return std::make_shared<const std::string>(s);
}

/** Insert n distinct entries "d0".."dn-1" under one tag. */
void
fill(ResultCache &cache, const std::string &tag, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        std::ostringstream digest, body;
        digest << 'd' << i;
        body << tag << i;
        cache.put(key(tag, digest.str()), payload(body.str()));
    }
}

TEST(ResultCache, HitMissAndReplace)
{
    ResultCache cache(8);
    EXPECT_EQ(cache.get(key("grid", "a")), nullptr);
    cache.put(key("grid", "a"), payload("one"));
    ASSERT_NE(cache.get(key("grid", "a")), nullptr);
    EXPECT_EQ(*cache.get(key("grid", "a")), "one");
    // Replacing an existing key keeps a single entry.
    cache.put(key("grid", "a"), payload("two"));
    EXPECT_EQ(*cache.get(key("grid", "a")), "two");
    EXPECT_EQ(cache.tagEntries("grid"), 1u);

    const ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.entries, 1u);
}

TEST(ResultCache, CapacityEvictsLruWithinTheTag)
{
    ResultCache cache(4);
    fill(cache, "grid", 6);
    const ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.entries, 4u);
    EXPECT_EQ(s.evictions, 2u);
    // Oldest two gone, newest four resident.
    EXPECT_EQ(cache.get(key("grid", "d0")), nullptr);
    EXPECT_EQ(cache.get(key("grid", "d1")), nullptr);
    for (const char *digest : {"d2", "d3", "d4", "d5"})
        EXPECT_NE(cache.get(key("grid", digest)), nullptr);
}

TEST(ResultCache, GetBumpsToMru)
{
    ResultCache cache(3);
    fill(cache, "grid", 3);
    // Touch the LRU entry, then overflow: the untouched middle
    // entry must be the victim.
    ASSERT_NE(cache.get(key("grid", "d0")), nullptr);
    cache.put(key("grid", "d3"), payload("x"));
    EXPECT_NE(cache.get(key("grid", "d0")), nullptr);
    EXPECT_EQ(cache.get(key("grid", "d1")), nullptr);
}

TEST(ResultCache, HotTagRecyclesItsOwnEntries)
{
    // Per-tag isolation: a tag at or above its fair share pays for
    // its own overflow instead of wiping out another tenant.
    ResultCache cache(4);
    fill(cache, "hot", 3);
    fill(cache, "cold", 1);
    // Pool full; fair share = 4/2 = 2 and "hot" holds 3.
    cache.put(key("hot", "d99"), payload("x"));
    EXPECT_EQ(cache.tagEntries("cold"), 1u);
    EXPECT_EQ(cache.tagEntries("hot"), 3u);
    EXPECT_EQ(cache.get(key("hot", "d0")), nullptr) << "own LRU";
    EXPECT_NE(cache.get(key("cold", "d0")), nullptr);
}

TEST(ResultCache, BelowShareTagChargesTheLargestTenant)
{
    ResultCache cache(4);
    fill(cache, "big", 4);
    // A brand-new tag is below its share; the overflow lands on
    // the largest resident tenant.
    cache.put(key("newbie", "d0"), payload("x"));
    EXPECT_EQ(cache.tagEntries("newbie"), 1u);
    EXPECT_EQ(cache.tagEntries("big"), 3u);
    EXPECT_EQ(cache.get(key("big", "d0")), nullptr);
}

TEST(ResultCache, CollidingHashesNeverAlias)
{
    // Constant hash: every key lands in one bucket, so any aliasing
    // bug would be exposed immediately.
    ResultCache cache(16, [](const MemoKey &) { return 0u; });
    cache.put(key("grid", "detail", "onepass"), payload("op"));
    cache.put(key("grid", "detail", "timing"), payload("tm"));
    cache.put(key("paper", "detail", "onepass"), payload("pp"));
    cache.put(key("grid", "detail2", "onepass"), payload("d2"));
    EXPECT_EQ(*cache.get(key("grid", "detail", "onepass")), "op");
    EXPECT_EQ(*cache.get(key("grid", "detail", "timing")), "tm");
    EXPECT_EQ(*cache.get(key("paper", "detail", "onepass")), "pp");
    EXPECT_EQ(*cache.get(key("grid", "detail2", "onepass")), "d2");
    EXPECT_EQ(cache.stats().entries, 4u);
}

TEST(ResultCache, CollidingHashesEvictCleanly)
{
    // Eviction must unhook the right entry from inside a colliding
    // bucket (full-key match, not bucket removal).
    ResultCache cache(2, [](const MemoKey &) { return 7u; });
    cache.put(key("t", "a"), payload("a"));
    cache.put(key("t", "b"), payload("b"));
    cache.put(key("t", "c"), payload("c"));
    EXPECT_EQ(cache.get(key("t", "a")), nullptr);
    EXPECT_NE(cache.get(key("t", "b")), nullptr);
    EXPECT_NE(cache.get(key("t", "c")), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, EngineKindIsPartOfTheIdentity)
{
    // The same workload + config string under different engines
    // returns different numbers; the memo must never cross-serve.
    ResultCache cache(8);
    const std::string detail = "query:assoc=0;l1=0;size=4096;cyc=1";
    cache.put(key("grid", detail, "onepass"), payload("0.97"));
    cache.put(key("grid", detail, "timing"), payload("0.95"));
    cache.put(key("grid", detail, "sampled"), payload("0.96"));
    EXPECT_EQ(*cache.get(key("grid", detail, "onepass")), "0.97");
    EXPECT_EQ(*cache.get(key("grid", detail, "timing")), "0.95");
    EXPECT_EQ(*cache.get(key("grid", detail, "sampled")), "0.96");
}

TEST(ResultCache, PayloadSurvivesEviction)
{
    // shared_ptr payloads: a reader holding the result keeps it
    // valid even after the entry is recycled.
    ResultCache cache(1);
    cache.put(key("t", "a"), payload("kept"));
    const ResultCache::Payload held = cache.get(key("t", "a"));
    cache.put(key("t", "b"), payload("evictor"));
    EXPECT_EQ(cache.get(key("t", "a")), nullptr);
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(*held, "kept");
}

TEST(ResultCache, TagQuotaSelfEvictsBelowCapacity)
{
    // Quota engages even when the pool is nowhere near capacity:
    // a tag at quota recycles its own LRU entry on the next put.
    ResultCache cache(16);
    cache.setTagQuota(2);
    fill(cache, "hot", 3);
    EXPECT_EQ(cache.tagEntries("hot"), 2u);
    EXPECT_EQ(cache.get(key("hot", "d0")), nullptr) << "own LRU";
    EXPECT_NE(cache.get(key("hot", "d1")), nullptr);
    EXPECT_NE(cache.get(key("hot", "d2")), nullptr);

    const ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.quotaEvictions, 1u);
    EXPECT_EQ(s.tagQuota, 2u);
    EXPECT_EQ(s.entries, 2u);
}

TEST(ResultCache, TagQuotaIsolatesOtherTenants)
{
    // One tag hammering its quota never touches a neighbour, and
    // the neighbour is free to grow to its own quota.
    ResultCache cache(16);
    cache.setTagQuota(2);
    fill(cache, "cold", 1);
    fill(cache, "hot", 5);
    EXPECT_EQ(cache.tagEntries("hot"), 2u);
    EXPECT_EQ(cache.tagEntries("cold"), 1u);
    EXPECT_NE(cache.get(key("cold", "d0")), nullptr);
    EXPECT_EQ(cache.stats().quotaEvictions, 3u);
}

TEST(ResultCache, TagAtQuotaTracksAdmission)
{
    ResultCache cache(16);
    EXPECT_FALSE(cache.tagAtQuota("t")) << "no quota set";
    cache.setTagQuota(2);
    EXPECT_FALSE(cache.tagAtQuota("t")) << "tag not present yet";
    fill(cache, "t", 1);
    EXPECT_FALSE(cache.tagAtQuota("t"));
    fill(cache, "t", 2);
    EXPECT_TRUE(cache.tagAtQuota("t"));
    // Lifting the quota reopens admission without trimming.
    cache.setTagQuota(0);
    EXPECT_FALSE(cache.tagAtQuota("t"));
    EXPECT_EQ(cache.tagEntries("t"), 2u);
}

TEST(ResultCache, TagQuotaReplaceInPlaceIsFree)
{
    // Replacing an existing key is not an admission; a tag at
    // quota can still refresh its resident entries.
    ResultCache cache(16);
    cache.setTagQuota(2);
    fill(cache, "t", 2);
    cache.put(key("t", "d1"), payload("fresh"));
    EXPECT_EQ(cache.tagEntries("t"), 2u);
    EXPECT_EQ(*cache.get(key("t", "d1")), "fresh");
    EXPECT_EQ(cache.stats().quotaEvictions, 0u);
}

TEST(ResultCache, StatsTagsAreSortedAndComplete)
{
    ResultCache cache(8);
    fill(cache, "zeta", 2);
    fill(cache, "alpha", 3);
    const ResultCache::Stats s = cache.stats();
    ASSERT_EQ(s.tags.size(), 2u);
    EXPECT_EQ(s.tags[0].first, "alpha");
    EXPECT_EQ(s.tags[0].second, 3u);
    EXPECT_EQ(s.tags[1].first, "zeta");
    EXPECT_EQ(s.tags[1].second, 2u);
}

} // namespace
} // namespace serve
} // namespace mlc
