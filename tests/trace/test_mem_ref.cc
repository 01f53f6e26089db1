/** @file Unit tests for trace/mem_ref.hh. */

#include <gtest/gtest.h>

#include "trace/mem_ref.hh"

namespace mlc {
namespace trace {
namespace {

TEST(MemRef, ReadWriteClassification)
{
    EXPECT_TRUE(makeLoad(0x100).isRead());
    EXPECT_TRUE(makeIFetch(0x100).isRead());
    EXPECT_FALSE(makeStore(0x100).isRead());
    EXPECT_TRUE(makeStore(0x100).isWrite());
    EXPECT_FALSE(makeLoad(0x100).isWrite());
}

TEST(MemRef, InstDataClassification)
{
    EXPECT_TRUE(makeIFetch(0).isInst());
    EXPECT_FALSE(makeIFetch(0).isData());
    EXPECT_TRUE(makeLoad(0).isData());
    EXPECT_TRUE(makeStore(0).isData());
}

TEST(MemRef, Equality)
{
    EXPECT_EQ(makeLoad(0x40, 2), makeLoad(0x40, 2));
    EXPECT_FALSE(makeLoad(0x40) == makeStore(0x40));
    EXPECT_FALSE(makeLoad(0x40, 1) == makeLoad(0x40, 2));
    EXPECT_FALSE(makeLoad(0x40) == makeLoad(0x44));
}

TEST(MemRef, TypeNames)
{
    EXPECT_STREQ(refTypeName(RefType::IFetch), "ifetch");
    EXPECT_STREQ(refTypeName(RefType::Load), "load");
    EXPECT_STREQ(refTypeName(RefType::Store), "store");
}

TEST(MemRef, ToStringIsReadable)
{
    const std::string s = makeStore(0x1f00, 3).toString();
    EXPECT_NE(s.find("store"), std::string::npos);
    EXPECT_NE(s.find("1f00"), std::string::npos);
    EXPECT_NE(s.find("pid 3"), std::string::npos);
}

TEST(RefCounts, TalliesByType)
{
    RefCounts counts;
    for (const MemRef &ref :
         {makeIFetch(0x00), makeLoad(0x10), makeStore(0x20),
          makeIFetch(0x04), makeStore(0x30), makeLoad(0x40)})
        counts.observe(ref);
    EXPECT_EQ(counts.ifetches, 2ULL);
    EXPECT_EQ(counts.loads, 2ULL);
    EXPECT_EQ(counts.stores, 2ULL);
    EXPECT_EQ(counts.total(), 6ULL);
}

} // namespace
} // namespace trace
} // namespace mlc
