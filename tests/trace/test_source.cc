/** @file Unit tests for the in-memory trace sources. */

#include <gtest/gtest.h>

#include "trace/source.hh"

namespace mlc {
namespace trace {
namespace {

std::vector<MemRef>
threeRefs()
{
    return {makeIFetch(0x0), makeLoad(0x100), makeStore(0x200)};
}

TEST(VectorSource, DeliversInOrderThenEnds)
{
    VectorSource src(threeRefs());
    MemRef ref;
    ASSERT_TRUE(src.next(ref));
    EXPECT_EQ(ref, makeIFetch(0x0));
    ASSERT_TRUE(src.next(ref));
    EXPECT_EQ(ref, makeLoad(0x100));
    ASSERT_TRUE(src.next(ref));
    EXPECT_EQ(ref, makeStore(0x200));
    EXPECT_FALSE(src.next(ref));
    EXPECT_FALSE(src.next(ref));
}

TEST(VectorSource, RewindReplays)
{
    VectorSource src(threeRefs());
    MemRef ref;
    while (src.next(ref)) {
    }
    src.rewind();
    ASSERT_TRUE(src.next(ref));
    EXPECT_EQ(ref, makeIFetch(0x0));
}

/** A source exposing only next(), so nextBatch() exercises the
 *  scalar default implementation in the TraceSource base. */
class ScalarOnlySource : public TraceSource
{
  public:
    explicit ScalarOnlySource(std::vector<MemRef> refs)
        : inner_(std::move(refs))
    {}
    bool next(MemRef &ref) override { return inner_.next(ref); }

  private:
    VectorSource inner_;
};

TEST(NextBatch, DefaultFallsBackToScalarLoop)
{
    ScalarOnlySource src(threeRefs());
    MemRef buf[8];
    EXPECT_EQ(src.nextBatch(buf, 2), 2u);
    EXPECT_EQ(buf[0], makeIFetch(0x0));
    EXPECT_EQ(buf[1], makeLoad(0x100));
    EXPECT_EQ(src.nextBatch(buf, 8), 1u);
    EXPECT_EQ(buf[0], makeStore(0x200));
    EXPECT_EQ(src.nextBatch(buf, 8), 0u);
}

TEST(NextBatch, VectorSourceCopiesContiguously)
{
    VectorSource src(threeRefs());
    MemRef buf[8];
    EXPECT_EQ(src.nextBatch(buf, 8), 3u);
    const auto expected = threeRefs();
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(buf[i], expected[i]);
    EXPECT_EQ(src.nextBatch(buf, 8), 0u);
}

TEST(NextBatch, MixesWithScalarNext)
{
    VectorSource src(threeRefs());
    MemRef ref;
    ASSERT_TRUE(src.next(ref));
    MemRef buf[8];
    EXPECT_EQ(src.nextBatch(buf, 8), 2u);
    EXPECT_EQ(buf[0], makeLoad(0x100));
    EXPECT_EQ(buf[1], makeStore(0x200));
}

TEST(VectorSource, SpanIsZeroCopyView)
{
    VectorSource src(threeRefs());
    const RefSpan span = src.span();
    ASSERT_EQ(span.size, 3u);
    EXPECT_EQ(span[0], makeIFetch(0x0));
    // remaining() tracks scalar consumption.
    MemRef ref;
    ASSERT_TRUE(src.next(ref));
    const RefSpan rest = src.remaining();
    EXPECT_EQ(rest.size, 2u);
    EXPECT_EQ(rest.data, span.data + 1);
}

TEST(SpanSource, AdaptsSpanToPullInterface)
{
    const auto refs = threeRefs();
    SpanSource src(RefSpan{refs.data(), refs.size()});
    MemRef buf[2];
    EXPECT_EQ(src.nextBatch(buf, 2), 2u);
    EXPECT_EQ(src.remaining().size, 1u);
    MemRef ref;
    ASSERT_TRUE(src.next(ref));
    EXPECT_EQ(ref, makeStore(0x200));
    EXPECT_FALSE(src.next(ref));
    src.rewind();
    EXPECT_EQ(src.nextBatch(buf, 2), 2u);
}

TEST(RefSpan, FirstAndDropFirstClamp)
{
    const auto refs = threeRefs();
    const RefSpan span{refs.data(), refs.size()};
    EXPECT_EQ(span.first(2).size, 2u);
    EXPECT_EQ(span.first(9).size, 3u);
    EXPECT_EQ(span.dropFirst(1).size, 2u);
    EXPECT_EQ(span.dropFirst(1)[0], makeLoad(0x100));
    EXPECT_TRUE(span.dropFirst(7).empty());
}

TEST(Collect, StopsAtLimitOrEnd)
{
    VectorSource src(threeRefs());
    EXPECT_EQ(collect(src, 2).size(), 2u);
    VectorSource src2(threeRefs());
    EXPECT_EQ(collect(src2, 10).size(), 3u);
}

} // namespace
} // namespace trace
} // namespace mlc
