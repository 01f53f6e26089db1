/** @file Unit tests for the in-memory trace sources and the trace
 *  file opener. */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/binary.hh"
#include "trace/compressed.hh"
#include "trace/dinero.hh"
#include "trace/interleave.hh"
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

/** Write @p refs to @p path in @p format with that format's writer. */
void
writeAs(TraceFormat format, const std::string &path,
        const std::vector<MemRef> &refs)
{
    std::ofstream os(path, std::ios::binary);
    const auto put = [&](auto &&writer) {
        for (const MemRef &r : refs)
            writer.put(r);
        if constexpr (requires { writer.finish(); })
            writer.finish();
    };
    switch (format) {
      case TraceFormat::Dinero:
        put(DineroWriter(os, true));
        break;
      case TraceFormat::Compressed:
        put(CompressedWriter(os));
        break;
      case TraceFormat::Binary:
        put(BinaryWriter(os));
        break;
    }
}

TEST(TraceFile, EveryFormatReadsBackThroughTheOpener)
{
    auto gen = makeMultiprogrammedWorkload(2, 3000, 0);
    const std::vector<MemRef> refs = collect(*gen, 5000);
    const std::pair<const char *, TraceFormat> cases[] = {
        {".din", TraceFormat::Dinero},
        {".din.txt", TraceFormat::Dinero},
        {".mlcz", TraceFormat::Compressed},
        {".mlct", TraceFormat::Binary},
    };
    for (const auto &[ext, format] : cases) {
        const std::string path =
            (std::filesystem::temp_directory_path() /
             (std::string("mlc_trace_file_test") + ext))
                .string();
        ASSERT_EQ(formatOf(path), format) << path;
        EXPECT_EQ(isMappable(path), format == TraceFormat::Binary);
        writeAs(format, path, refs);
        const std::vector<MemRef> back =
            collect(*openTraceFile(path), refs.size() + 1);
        std::remove(path.c_str());
        ASSERT_EQ(back.size(), refs.size()) << path;
        // Dinero records carry no access size.
        for (std::size_t i = 0; i < refs.size(); ++i) {
            ASSERT_EQ(back[i].type, refs[i].type) << path << " #" << i;
            ASSERT_EQ(back[i].addr, refs[i].addr) << path << " #" << i;
            if (format != TraceFormat::Dinero) {
                ASSERT_TRUE(back[i] == refs[i]) << path << " #" << i;
            }
        }
    }
}

TEST(TraceFileDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(openTraceFile("/nonexistent/dir/t.mlct"),
                testing::ExitedWithCode(1), "cannot open trace file");
}

} // namespace
} // namespace trace
} // namespace mlc
