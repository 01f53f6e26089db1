/**
 * @file
 * Live-point window record: the serialized form of one sample
 * window's warm state — the recorded boundary ops that replay the
 * warmer's downstream traffic into each branch configuration, the
 * `hier::WarmSnapshot` metadata (geometry fingerprints, counters,
 * arena offsets), and the `SnapshotArena` bytes those offsets index
 * into, RLE-compressed.
 *
 * The record round-trips the exact triple that
 * `sample::runSweepCheckpointed` produces in memory per window, so
 * a sweep branched from a decoded record is bit-identical to one
 * branched from a freshly captured snapshot: the arena is restored
 * into offset 0 of a reset arena (the first alloc() of a reset
 * arena is always offset 0, so every stored offset stays valid),
 * and the branch restore (`hier::L1Front::restore`,
 * `HierarchySimulator::replayWindow`) then re-runs its usual shape
 * checks.
 *
 * Decoders never panic on malformed bytes — they return false and
 * the caller falls back to re-warming. Panics are reserved for the
 * caller-side contract (e.g. restoring a verified record into the
 * wrong geometry), which indicates a keying bug, not bit rot.
 */

#ifndef MLC_CKPT_LIVEPOINT_HH
#define MLC_CKPT_LIVEPOINT_HH

#include <cstdint>
#include <vector>

#include "ckpt/codec.hh"
#include "hier/hierarchy.hh"
#include "util/snapshot_arena.hh"

namespace mlc {
namespace ckpt {

/**
 * Append one window's (ops, snapshot, arena) triple to @p w.
 *
 * Layout, in order:
 *  - boundary ops: varint count, then per op a flags byte
 *    (bit0 = write, bit1 = countRead), varint access bytes, and a
 *    zigzag-varint address delta against the previous op;
 *  - snapshot metadata: an explicit field walk of WarmSnapshot
 *    (never a struct memcpy — layout must survive compilers);
 *  - arena: varint raw byte count, varint compressed byte count,
 *    then the rleCompress()ed image of [0, bytesUsed()).
 */
void encodeWindow(ByteWriter &w,
                  const std::vector<hier::BoundaryOp> &ops,
                  const hier::WarmSnapshot &snap,
                  const SnapshotArena &arena);

/**
 * Decode one window record. On success the arena holds the restored
 * image at offset 0 with bytesUsed() equal to the captured size and
 * @p snap / @p ops are fully populated; returns false (with the
 * outputs unspecified) on any structural problem: truncated input,
 * bad varint, arena offsets pointing outside the restored image, or
 * RLE size mismatch. @p r is left positioned after the record only
 * on success.
 */
bool decodeWindow(ByteReader &r,
                  std::vector<hier::BoundaryOp> &ops,
                  hier::WarmSnapshot &snap,
                  SnapshotArena &arena);

} // namespace ckpt
} // namespace mlc

#endif // MLC_CKPT_LIVEPOINT_HH
