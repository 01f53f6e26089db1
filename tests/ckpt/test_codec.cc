/** @file Round-trip and malformed-input tests for the checkpoint
 *  byte codec (ckpt/codec.hh): varints, zigzag deltas, the
 *  bounds-checked reader's latch-don't-panic contract, and the
 *  byte-run RLE compressor's exact-fit validation. */

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/codec.hh"
#include "ckpt/livepoint.hh"
#include "trace/interleave.hh"

namespace mlc {
namespace ckpt {
namespace {

TEST(CkptCodec, FixedWidthRoundTrip)
{
    ByteWriter w;
    w.putU8(0xab);
    w.putU32(0xdeadbeefu);
    w.putU64(0x0123456789abcdefULL);
    ByteReader r(w.bytes().data(), w.size());
    EXPECT_EQ(r.getU8(), 0xab);
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefULL);
    EXPECT_TRUE(r.exhausted());
}

TEST(CkptCodec, VarintRoundTripEdgeValues)
{
    const std::uint64_t values[] = {
        0,
        1,
        0x7f,
        0x80,
        0x3fff,
        0x4000,
        1u << 20,
        std::numeric_limits<std::uint32_t>::max(),
        std::numeric_limits<std::uint64_t>::max() - 1,
        std::numeric_limits<std::uint64_t>::max()};
    ByteWriter w;
    for (const std::uint64_t v : values)
        w.putVarint(v);
    ByteReader r(w.bytes().data(), w.size());
    for (const std::uint64_t v : values)
        EXPECT_EQ(r.getVarint(), v);
    EXPECT_TRUE(r.exhausted());
}

TEST(CkptCodec, ZigzagRoundTrip)
{
    const std::int64_t values[] = {
        0,
        1,
        -1,
        63,
        -64,
        1'000'000,
        -1'000'000,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()};
    for (const std::int64_t v : values)
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    // Small magnitudes must encode small (the whole point).
    EXPECT_LT(zigzagEncode(-1), 4u);
    EXPECT_LT(zigzagEncode(1), 4u);
}

TEST(CkptCodec, ReaderLatchesPastEndInsteadOfPanicking)
{
    const std::uint8_t bytes[] = {0x01, 0x02};
    ByteReader r(bytes, sizeof(bytes));
    EXPECT_EQ(r.getU8(), 0x01);
    EXPECT_FALSE(r.failed());
    r.getU64(); // 7 bytes short
    EXPECT_TRUE(r.failed());
    // Every later read keeps returning zeros, never recovers.
    EXPECT_EQ(r.getU8(), 0);
    EXPECT_EQ(r.getVarint(), 0u);
    EXPECT_TRUE(r.failed());
    EXPECT_FALSE(r.exhausted());
}

TEST(CkptCodec, TruncatedVarintFails)
{
    const std::uint8_t bytes[] = {0x80, 0x80}; // endless continuation
    ByteReader r(bytes, sizeof(bytes));
    r.getVarint();
    EXPECT_TRUE(r.failed());
}

TEST(CkptCodec, OverlongVarintFails)
{
    // 11 continuation bytes: more than 64 bits of payload.
    std::vector<std::uint8_t> bytes(11, 0x80);
    bytes.push_back(0x01);
    ByteReader r(bytes.data(), bytes.size());
    r.getVarint();
    EXPECT_TRUE(r.failed());
}

TEST(CkptCodec, ViewPastEndReturnsNull)
{
    const std::uint8_t bytes[] = {1, 2, 3};
    ByteReader r(bytes, sizeof(bytes));
    EXPECT_NE(r.view(3), nullptr);
    EXPECT_EQ(r.view(1), nullptr);
    EXPECT_TRUE(r.failed());
}

std::vector<std::uint8_t>
roundTripRle(const std::vector<std::uint8_t> &raw)
{
    const std::vector<std::uint8_t> packed =
        rleCompress(raw.data(), raw.size());
    std::vector<std::uint8_t> out(raw.size());
    EXPECT_TRUE(rleDecompress(packed.data(), packed.size(),
                              out.data(), out.size()));
    return out;
}

TEST(CkptCodec, RleRoundTripRepetitiveAndRandom)
{
    // Snapshot-arena-shaped input: long zero runs, repeated high
    // bytes, interleaved with incompressible noise.
    std::vector<std::uint8_t> raw;
    for (int i = 0; i < 4096; ++i)
        raw.push_back(0);
    for (int i = 0; i < 1000; ++i)
        raw.push_back(static_cast<std::uint8_t>(i * 37 + (i >> 3)));
    for (int i = 0; i < 500; ++i)
        raw.push_back(0xee);
    EXPECT_EQ(roundTripRle(raw), raw);

    const std::vector<std::uint8_t> packed =
        rleCompress(raw.data(), raw.size());
    EXPECT_LT(packed.size(), raw.size() / 2); // the runs pay off
}

TEST(CkptCodec, RleRoundTripDegenerateInputs)
{
    EXPECT_EQ(roundTripRle({}), std::vector<std::uint8_t>{});
    EXPECT_EQ(roundTripRle({42}), std::vector<std::uint8_t>{42});
    std::vector<std::uint8_t> three = {1, 1, 1}; // below repeat cut
    EXPECT_EQ(roundTripRle(three), three);
    std::vector<std::uint8_t> four = {9, 9, 9, 9}; // at repeat cut
    EXPECT_EQ(roundTripRle(four), four);
}

TEST(CkptCodec, RleDecompressRejectsWrongRawSize)
{
    const std::vector<std::uint8_t> raw(100, 7);
    const std::vector<std::uint8_t> packed =
        rleCompress(raw.data(), raw.size());
    std::vector<std::uint8_t> out(200);
    EXPECT_FALSE(rleDecompress(packed.data(), packed.size(),
                               out.data(), 99));
    EXPECT_FALSE(rleDecompress(packed.data(), packed.size(),
                               out.data(), 101));
    EXPECT_FALSE(rleDecompress(packed.data(), packed.size(),
                               out.data(), 200));
}

TEST(CkptCodec, RleDecompressRejectsTruncatedAndGarbageInput)
{
    const std::vector<std::uint8_t> raw(64, 5);
    std::vector<std::uint8_t> packed =
        rleCompress(raw.data(), raw.size());
    std::vector<std::uint8_t> out(64);
    // Truncated stream: token promises bytes that never arrive.
    EXPECT_FALSE(rleDecompress(packed.data(), packed.size() - 1,
                               out.data(), out.size()));
    // Trailing garbage after an exact decode.
    packed.push_back(0x02);
    packed.push_back(0xaa);
    EXPECT_FALSE(rleDecompress(packed.data(), packed.size(),
                               out.data(), out.size()));
    // A zero-length run token is never emitted and never accepted.
    const std::uint8_t zero_run[] = {0x00};
    EXPECT_FALSE(
        rleDecompress(zero_run, 1, out.data(), out.size()));
}

TEST(CkptCodec, WindowWithUnequalInstructionSlotsIsRejected)
{
    // MLPT v1 writes the instruction count twice: its second slot
    // held the ifetch count, which always equals it. A window whose
    // two slots disagree is corrupt.
    auto gen = trace::makeMultiprogrammedWorkload(2, 4000, 3);
    const std::vector<trace::MemRef> refs = trace::collect(*gen, 20000);
    hier::HierarchySimulator sim(hier::HierarchyParams::baseMachine());
    sim.runFunctional({refs.data(), refs.size()});
    SnapshotArena arena;
    hier::WarmSnapshot snap;
    sim.captureWarmState(arena, snap, 1);
    snap.instructions = 0x123456789ULL; // a distinctive varint
    ByteWriter w;
    encodeWindow(w, {}, snap, arena);
    std::vector<std::uint8_t> bytes = w.bytes();

    ByteWriter slot;
    slot.putVarint(snap.instructions);
    std::vector<std::uint8_t> both = slot.bytes();
    both.insert(both.end(), slot.bytes().begin(), slot.bytes().end());
    const auto at =
        std::search(bytes.begin(), bytes.end(), both.begin(), both.end());
    ASSERT_NE(at, bytes.end());

    const auto decodes = [&](const std::vector<std::uint8_t> &b) {
        ByteReader r(b.data(), b.size());
        std::vector<hier::BoundaryOp> ops;
        hier::WarmSnapshot got;
        SnapshotArena got_arena;
        return decodeWindow(r, ops, got, got_arena) &&
               got.instructions == snap.instructions;
    };
    EXPECT_TRUE(decodes(bytes));
    // Flip a low bit of the second slot: same length, other count.
    bytes[static_cast<std::size_t>(at - bytes.begin()) + slot.size()] ^=
        1u;
    EXPECT_FALSE(decodes(bytes));
}

TEST(CkptCodec, FnvIsSeedableAndOrderSensitive)
{
    const std::uint8_t a[] = {1, 2, 3};
    const std::uint8_t b[] = {3, 2, 1};
    EXPECT_NE(fnv64(a, 3), fnv64(b, 3));
    EXPECT_NE(fnv64(a, 3), fnv64(a, 2));
    EXPECT_NE(fnv64(a, 3, 1), fnv64(a, 3, 2));
    EXPECT_EQ(fnv64(a, 3), fnv64(a, 3));
}

} // namespace
} // namespace ckpt
} // namespace mlc
