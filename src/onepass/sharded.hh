/**
 * @file
 * The post-L1 event log, its one decoder, and set-partitioned
 * (sharded) ghost sweeps over it.
 *
 * The profiling pipeline (pipeline.hh) records the stream leaving
 * the L1s in a compact log (8 bytes per event) that ghost forests
 * then sweep. A ShardedForest splits one family's forest into S set
 * slices swept in parallel, slice s owning the sets
 * `set % S_m == s` of each member m. Sets of a physically-indexed
 * cache are independent — an access to set A never reads or writes
 * the tags, stamps or victim choice of set B — so the slices touch
 * disjoint state, and LRU order inside a set depends only on the
 * *relative* order of that set's accesses, which each slice keeps
 * by scanning the log in order. Per-slice integer counts summed in
 * fixed slice order therefore equal the whole forest's bit for bit,
 * for every shard count (DESIGN.md §5f).
 *
 * Members with fewer sets than shards are clamped: member m is
 * split S_m = min(S, sets_m) ways, so the degenerate one-set cache
 * is processed entirely by slice 0 and still merges exactly.
 */

#ifndef MLC_ONEPASS_SHARDED_HH
#define MLC_ONEPASS_SHARDED_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "onepass/ghost_tags.hh"
#include "trace/mem_ref.hh"

namespace mlc {
namespace onepass {

/**
 * The post-L1 event stream, one 64-bit word per event: the kind in
 * the low two bits of the address. Every emitted address is at
 * least 4-byte aligned (fills and write-backs are block/sector
 * bases, forwarded stores are word-aligned by L1Filter), and every
 * consumer shifts by a block size of >= 4 bytes, so the packed
 * bits are recovered exactly and never leak into a block number.
 */
struct FilteredEventLog
{
    enum Kind : std::uint64_t
    {
        ReadCounted = 0,   //!< demand read of read origin
        ReadUncounted = 1, //!< store-origin or fetch-group fill
        Write = 2,         //!< victim write-back / forwarded store
    };
    static constexpr std::uint64_t kKindMask = 3;
    /** warmEvents value meaning "no warm boundary recorded". */
    static constexpr std::size_t kNoBoundary =
        static_cast<std::size_t>(-1);

    std::vector<std::uint64_t> events;
    /** Events recorded before the warm-up boundary: a sweep zeroes
     *  its counters when it reaches this index, or after the last
     *  event when the index is at or past events.size() (the warm
     *  point fell after the last departing event); kNoBoundary
     *  disables the reset. */
    std::size_t warmEvents = 0;

    /** @{ @name L1Filter sink interface */
    void
    onRead(Addr addr, bool counted)
    {
        events.push_back((addr & ~kKindMask) |
                         (counted ? ReadCounted : ReadUncounted));
    }
    void
    onWrite(Addr addr)
    {
        events.push_back((addr & ~kKindMask) | Write);
    }
    /** @} */
};

/**
 * The one FilteredEventLog decoder: hands every event to @p v in
 * order, as v.onRead(addr, counted) or v.onWrite(addr) (the
 * L1Filter sink verbs), and calls v.onWarm() at the log's warm
 * boundary.
 */
template <typename Visitor>
void
visitEvents(const FilteredEventLog &log, Visitor &&v)
{
    for (std::size_t i = 0; i < log.events.size(); ++i) {
        if (i == log.warmEvents)
            v.onWarm();
        const std::uint64_t word = log.events[i];
        const Addr addr = word & ~FilteredEventLog::kKindMask;
        switch (word & FilteredEventLog::kKindMask) {
          case FilteredEventLog::ReadCounted:
            v.onRead(addr, true);
            break;
          case FilteredEventLog::ReadUncounted:
            v.onRead(addr, false);
            break;
          default:
            v.onWrite(addr);
            break;
        }
    }
    if (log.warmEvents != FilteredEventLog::kNoBoundary &&
        log.warmEvents >= log.events.size())
        v.onWarm();
}

/** Sweep @p log through a ghost forest's event verbs — the exact
 *  GhostTagForest or mrc::SampledGhostForest — zeroing its counters
 *  at the warm boundary. */
template <typename Forest>
void
sweep(Forest &forest, const FilteredEventLog &log)
{
    struct Verbs
    {
        Forest &target;
        void onRead(Addr a, bool counted) { target.read(a, counted); }
        void onWrite(Addr addr) { target.write(addr); }
        void onWarm() { target.resetCounts(); }
    };
    visitEvents(log, Verbs{forest});
}

/** Replay raw CPU references into a ghost forest as solo accesses,
 *  zeroing its counters before reference @p warm_at (never when it
 *  is at or past the end). */
template <typename Forest>
void
sweepSolo(Forest &forest, trace::RefSpan refs, std::size_t warm_at)
{
    for (std::size_t i = 0; i < refs.size; ++i) {
        if (i == warm_at)
            forest.resetCounts();
        forest.soloAccess(refs[i]);
    }
}

/** One family's ghost forest as set slices (GhostTagForest slice s
 *  of @p shards): sweep() and sweepSolo() hand each slice the whole
 *  input on its own parallelFor worker; counts() merges in order. */
class ShardedForest
{
  public:
    ShardedForest(const std::vector<GhostCacheSpec> &specs,
                  const GhostPolicies &policies, std::size_t shards);

    /** Member @p m's counts, summed over the slices in order. */
    GhostCounts counts(std::size_t m) const;
    /** Every member's counts, in family order. */
    std::vector<GhostCounts> counts() const;

    friend void sweep(ShardedForest &forest,
                      const FilteredEventLog &log);
    friend void sweepSolo(ShardedForest &forest, trace::RefSpan refs,
                          std::size_t warm_at);

  private:
    std::vector<GhostTagForest> slices_;
};

/**
 * Sweep one recorded event log over a whole family with a fresh
 * ShardedForest — the L1-filtered stream or a CascadeFilter's
 * L2-filtered stream (cascade.hh) alike. Counts are bit-identical
 * for every @p shards >= 1. ReadCounted events land in
 * reads/readMisses, ReadUncounted in extraAccesses/extraMisses,
 * Write events update recency (allocating only when @p policies
 * says downstream write misses allocate) and count nothing.
 */
std::vector<GhostCounts>
sweepEventLog(const FilteredEventLog &log,
              const std::vector<GhostCacheSpec> &configs,
              const GhostPolicies &policies, std::size_t shards = 1);

/**
 * The raw-stream counterpart: every family member replays the CPU
 * reference stream stand-alone (no upstream filter),
 * set-partitioned like sweepEventLog(). Reads land in
 * reads/readMisses, stores in extraAccesses/extraMisses (a store
 * miss allocates only under @p policies write-allocate), matching
 * GhostTagForest::soloAccess. Counters reset at reference
 * @p warmup_refs; a warm-up at or past the end resets nothing.
 */
std::vector<GhostCounts>
sweepSoloStream(trace::RefSpan refs, std::uint64_t warmup_refs,
                const std::vector<GhostCacheSpec> &configs,
                const GhostPolicies &policies,
                std::size_t shards = 1);

} // namespace onepass
} // namespace mlc

#endif // MLC_ONEPASS_SHARDED_HH
