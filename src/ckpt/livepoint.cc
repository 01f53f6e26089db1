#include "ckpt/livepoint.hh"

#include "cache/cache.hh"
#include "cache/tag_array.hh"

namespace mlc {
namespace ckpt {

namespace {

void
encodeTagSnapshot(ByteWriter &w, const cache::TagArraySnapshot &t)
{
    w.putU64(t.numSets);
    w.putU32(t.ways);
    w.putU32(t.blockBytes);
    w.putU32(t.subCount);
    w.putU8(static_cast<std::uint8_t>(t.policy));
    w.putVarint(t.lines);
    w.putU64(t.stamp);
    for (std::uint64_t word : t.rngState)
        w.putU64(word);
    w.putVarint(t.tagsOff);
    w.putVarint(t.validOff);
    w.putVarint(t.dirtyOff);
    w.putVarint(t.useOff);
    w.putVarint(t.insertOff);
}

bool
decodeTagSnapshot(ByteReader &r, cache::TagArraySnapshot &t)
{
    t.numSets = r.getU64();
    t.ways = r.getU32();
    t.blockBytes = r.getU32();
    t.subCount = r.getU32();
    const std::uint8_t policy = r.getU8();
    if (policy > static_cast<std::uint8_t>(cache::ReplPolicy::Random))
        return false;
    t.policy = static_cast<cache::ReplPolicy>(policy);
    t.lines = static_cast<std::size_t>(r.getVarint());
    t.stamp = r.getU64();
    for (std::uint64_t &word : t.rngState)
        word = r.getU64();
    t.tagsOff = static_cast<std::size_t>(r.getVarint());
    t.validOff = static_cast<std::size_t>(r.getVarint());
    t.dirtyOff = static_cast<std::size_t>(r.getVarint());
    t.useOff = static_cast<std::size_t>(r.getVarint());
    t.insertOff = static_cast<std::size_t>(r.getVarint());
    return !r.failed();
}

void
encodeCounts(ByteWriter &w, const cache::CacheCounts &c)
{
    w.putVarint(c.ifetchAccesses);
    w.putVarint(c.ifetchMisses);
    w.putVarint(c.loadAccesses);
    w.putVarint(c.loadMisses);
    w.putVarint(c.storeAccesses);
    w.putVarint(c.storeMisses);
    w.putVarint(c.writebacks);
    w.putVarint(c.fills);
    w.putVarint(c.prefetchFills);
    w.putVarint(c.absorbedWrites);
    w.putVarint(c.bypassedWrites);
}

bool
decodeCounts(ByteReader &r, cache::CacheCounts &c)
{
    c.ifetchAccesses = r.getVarint();
    c.ifetchMisses = r.getVarint();
    c.loadAccesses = r.getVarint();
    c.loadMisses = r.getVarint();
    c.storeAccesses = r.getVarint();
    c.storeMisses = r.getVarint();
    c.writebacks = r.getVarint();
    c.fills = r.getVarint();
    c.prefetchFills = r.getVarint();
    c.absorbedWrites = r.getVarint();
    c.bypassedWrites = r.getVarint();
    return !r.failed();
}

void
encodeCacheSnapshot(ByteWriter &w, const cache::CacheSnapshot &c)
{
    encodeTagSnapshot(w, c.tags);
    encodeCounts(w, c.counts);
}

bool
decodeCacheSnapshot(ByteReader &r, cache::CacheSnapshot &c)
{
    return decodeTagSnapshot(r, c.tags) && decodeCounts(r, c.counts);
}

/** The SoA arrays a TagArraySnapshot indexes must land inside the
 *  restored arena image; a stale offset would make restoreState
 *  read out of bounds. Sizes mirror TagArray::captureState. */
bool
tagOffsetsInBounds(const cache::TagArraySnapshot &t,
                   std::size_t arena_bytes)
{
    const std::size_t lines = t.lines;
    const auto fits = [arena_bytes](std::size_t off,
                                    std::size_t count,
                                    std::size_t elem) {
        if (count != 0 && count > (arena_bytes / elem))
            return false; // count * elem would overflow
        const std::size_t bytes = count * elem;
        return off <= arena_bytes && bytes <= arena_bytes - off;
    };
    return fits(t.tagsOff, lines, sizeof(Addr)) &&
           fits(t.validOff, lines, sizeof(std::uint32_t)) &&
           fits(t.dirtyOff, lines, sizeof(std::uint32_t)) &&
           fits(t.useOff, lines, sizeof(std::uint64_t)) &&
           fits(t.insertOff, lines, sizeof(std::uint64_t));
}

} // namespace

void
encodeWindow(ByteWriter &w,
             const std::vector<hier::BoundaryOp> &ops,
             const hier::WarmSnapshot &snap,
             const SnapshotArena &arena)
{
    // --- boundary ops ---
    w.putVarint(ops.size());
    std::uint64_t prev_addr = 0;
    for (const hier::BoundaryOp &op : ops) {
        std::uint8_t flags = 0;
        if (op.kind == hier::BoundaryOp::Kind::Write)
            flags |= 1u;
        if (op.countRead)
            flags |= 2u;
        w.putU8(flags);
        w.putVarint(op.bytes);
        const std::uint64_t addr =
            static_cast<std::uint64_t>(op.addr);
        w.putVarint(zigzagEncode(static_cast<std::int64_t>(
            addr - prev_addr)));
        prev_addr = addr;
    }

    // --- snapshot metadata ---
    w.putU8(snap.splitL1 ? 1 : 0);
    w.putVarint(snap.prefixLevels);
    if (snap.splitL1)
        encodeCacheSnapshot(w, snap.l1i);
    encodeCacheSnapshot(w, snap.l1d);
    w.putVarint(snap.levels.size());
    for (const cache::CacheSnapshot &level : snap.levels)
        encodeCacheSnapshot(w, level);
    // MLPT v1 keeps a separate ifetch slot; every instruction is
    // one ifetch, so the count fills both.
    w.putVarint(snap.instructions);
    w.putVarint(snap.instructions);
    w.putVarint(snap.loads);
    w.putVarint(snap.stores);
    w.putVarint(snap.refsRun);
    w.putVarint(snap.l1ReadMissCount);
    w.putVarint(snap.readReqs.size());
    for (std::uint64_t v : snap.readReqs)
        w.putVarint(v);
    w.putVarint(snap.readMisses.size());
    for (std::uint64_t v : snap.readMisses)
        w.putVarint(v);

    // --- arena image ---
    const std::size_t raw = arena.bytesUsed();
    const std::vector<std::uint8_t> packed =
        rleCompress(raw ? arena.at(0) : nullptr, raw);
    w.putVarint(raw);
    w.putVarint(packed.size());
    w.putBytes(packed.data(), packed.size());
}

bool
decodeWindow(ByteReader &r,
             std::vector<hier::BoundaryOp> &ops,
             hier::WarmSnapshot &snap,
             SnapshotArena &arena)
{
    // --- boundary ops ---
    const std::uint64_t op_count = r.getVarint();
    // Each op costs >= 3 bytes on the wire; a count the remaining
    // bytes cannot hold is corruption, not a big window.
    if (r.failed() || op_count > r.remaining())
        return false;
    ops.clear();
    ops.reserve(static_cast<std::size_t>(op_count));
    std::uint64_t prev_addr = 0;
    for (std::uint64_t i = 0; i < op_count; ++i) {
        const std::uint8_t flags = r.getU8();
        if (flags & ~3u)
            return false;
        hier::BoundaryOp op;
        op.kind = (flags & 1u) ? hier::BoundaryOp::Kind::Write
                               : hier::BoundaryOp::Kind::Read;
        op.countRead = (flags & 2u) != 0;
        op.bytes = static_cast<std::uint32_t>(r.getVarint());
        const std::int64_t delta =
            zigzagDecode(r.getVarint());
        prev_addr += static_cast<std::uint64_t>(delta);
        op.addr = static_cast<Addr>(prev_addr);
        if (r.failed())
            return false;
        ops.push_back(op);
    }

    // --- snapshot metadata ---
    const std::uint8_t split = r.getU8();
    if (split > 1)
        return false;
    snap.splitL1 = split != 0;
    snap.prefixLevels =
        static_cast<std::size_t>(r.getVarint());
    if (snap.splitL1) {
        if (!decodeCacheSnapshot(r, snap.l1i))
            return false;
    } else {
        snap.l1i = cache::CacheSnapshot{};
    }
    if (!decodeCacheSnapshot(r, snap.l1d))
        return false;
    const std::uint64_t level_count = r.getVarint();
    if (r.failed() || level_count != snap.prefixLevels ||
        level_count > r.remaining())
        return false;
    snap.levels.resize(static_cast<std::size_t>(level_count));
    for (cache::CacheSnapshot &level : snap.levels)
        if (!decodeCacheSnapshot(r, level))
            return false;
    snap.instructions = r.getVarint();
    if (r.getVarint() != snap.instructions) // the ifetch slot
        return false;
    snap.loads = r.getVarint();
    snap.stores = r.getVarint();
    snap.refsRun = r.getVarint();
    snap.l1ReadMissCount = r.getVarint();
    const std::uint64_t reqs = r.getVarint();
    if (r.failed() || reqs != snap.prefixLevels)
        return false;
    snap.readReqs.resize(static_cast<std::size_t>(reqs));
    for (std::uint64_t &v : snap.readReqs)
        v = r.getVarint();
    const std::uint64_t misses = r.getVarint();
    if (r.failed() || misses != snap.prefixLevels)
        return false;
    snap.readMisses.resize(static_cast<std::size_t>(misses));
    for (std::uint64_t &v : snap.readMisses)
        v = r.getVarint();
    if (r.failed())
        return false;

    // --- arena image ---
    const std::uint64_t raw = r.getVarint();
    const std::uint64_t packed = r.getVarint();
    if (r.failed() || packed > r.remaining())
        return false;
    const std::uint8_t *src =
        r.view(static_cast<std::size_t>(packed));
    if (src == nullptr && packed != 0)
        return false;
    arena.reset();
    const std::size_t off =
        arena.alloc(static_cast<std::size_t>(raw));
    // First alloc of a reset arena: stored offsets stay valid.
    if (off != 0)
        return false;
    if (raw != 0 &&
        !rleDecompress(src, static_cast<std::size_t>(packed),
                       arena.at(0),
                       static_cast<std::size_t>(raw)))
        return false;

    // Offsets were checksum-protected, but a wrong-but-valid file
    // must still never index outside the image it shipped with.
    const std::size_t bytes = static_cast<std::size_t>(raw);
    if (snap.splitL1 &&
        !tagOffsetsInBounds(snap.l1i.tags, bytes))
        return false;
    if (!tagOffsetsInBounds(snap.l1d.tags, bytes))
        return false;
    for (const cache::CacheSnapshot &level : snap.levels)
        if (!tagOffsetsInBounds(level.tags, bytes))
            return false;
    return true;
}

} // namespace ckpt
} // namespace mlc
