/**
 * @file
 * Hierarchical ghost filtering: one-pass profiling of a joint
 * (L2 family x L3 family) grid.
 *
 * The two-level engine works because the L2 request stream is a
 * pure function of (L1 configuration, trace): functional cache
 * state never depends on timing, and write-around levels never
 * feed back upstream. The same argument applies one level down —
 * fix one *pivot* L2 configuration and the L3 request stream is a
 * pure function of (L1 config, pivot config, trace). A
 * CascadeFilter therefore replays the pivot exactly (a single
 * cache::Cache fed the L1-filtered event log, emitting fills,
 * write-backs and forwarded writes in the same order
 * hier::HierarchySimulator would) and records the departing stream
 * as a second, far smaller FilteredEventLog. A ghost-tag sweep of
 * that log prices every L3 family member at once, while the
 * ordinary forest over the L1 log continues to cover every L2
 * member — so an N_L2 x N_L3 grid costs one L1 replay plus N_L2
 * cheap filtered replays instead of N_L2 * N_L3 timing runs.
 *
 * Exactness: per (pivot, member) the L3 read request and miss
 * counts equal a full three-level HierarchySimulator run bit for
 * bit (onepass::crossCheckCascade), including the pivot's own
 * counts, which double as a free invariant — they must match the
 * L2 ghost forest's counts for the same spec, and
 * profileCascadeTrace panics if they ever disagree.
 */

#ifndef MLC_ONEPASS_CASCADE_HH
#define MLC_ONEPASS_CASCADE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "onepass/engine.hh"
#include "onepass/sharded.hh"

namespace mlc {
namespace onepass {

/** The joint family profiled by one cascade pass: every pivot
 *  (intermediate, exactly-replayed) configuration crossed with
 *  every downstream family member. Without pivots it is a plain
 *  two-level family, l3 holding the members profiled at the L2's
 *  position (the form profileStore and the engines take for both
 *  depths). */
struct CascadeFamilySpec
{
    /** L2 configurations, one exact filtered replay each. */
    std::vector<GhostCacheSpec> pivots;
    /** The L3 family swept by ghost tags under every pivot. */
    FamilySpec l3;

    /**
     * Canonical identity string: the pivot family joined to the
     * downstream family key ("256KB/1-way/32B|512KB/1-way/32B=>"
     * + l3.key()). Two equal keys mean profile-for-profile equal
     * cascades — what serve::ProfileCache keys three-level entries
     * on (the "pivot hash" of the cache key).
     */
    std::string key() const;
};

/**
 * Exact functional replay of one pivot configuration, built from
 * the base machine's first downstream level reshaped to the pivot
 * geometry (fetch == block, like every ghost family member) and
 * seeded exactly as hier::HierarchySimulator seeds that level, so
 * even a Random-replacement pivot evolves identically.
 *
 * Feed it the L1-filtered event stream; it emits the L2-filtered
 * stream into any sink with the FilteredEventLog interface
 * (onRead/onWrite) and accumulates the pivot's own demand counts.
 */
class CascadeFilter
{
  public:
    CascadeFilter(const hier::HierarchyParams &base,
                  const GhostCacheSpec &pivot);

    /** A demand read arriving at the pivot (@p counted = of read
     *  origin). Emits, on a miss: fills demand-first (only the
     *  demand fill of a counted read stays counted), then dirty
     *  victims — the order hierarchy.cc's fillFromBelow uses. */
    template <typename Sink>
    void
    onRead(Addr addr, bool counted, Sink &&sink)
    {
        if (counted)
            ++counts_.reads;
        else
            ++counts_.extraAccesses;
        const trace::MemRef req = trace::makeLoad(addr);
        // Same fast path as the timing simulator's caches: a hit
        // leaves no outcome to propagate (bit-identical contract,
        // see cache::Cache::tryReadHit).
        if (cache_.tryReadHit(req))
            return;
        cache_.access(req, outcome_);
        if (outcome_.hit)
            return;
        if (counted)
            ++counts_.readMisses;
        else
            ++counts_.extraMisses;
        bool first = true;
        for (Addr fill : outcome_.fills) {
            sink.onRead(fill, counted && first);
            first = false;
        }
        for (const cache::WritebackReq &victim :
             outcome_.writebacks)
            sink.onWrite(victim.base);
    }

    /** A downstream-bound write (victim write-back or forwarded
     *  store), mirroring hierarchy.cc's queueDownstreamWrite arms:
     *  miss + write-around passes it on; miss + allocate installs
     *  dirty and emits the fetch (uncounted) plus any displaced
     *  victim; a write-through hit also forwards the write. */
    template <typename Sink>
    void
    onWrite(Addr base, Sink &&sink)
    {
        if (cache_.absorbWrite(base)) {
            if (writeThrough_)
                sink.onWrite(base);
            return;
        }
        if (!writeAllocates_) {
            sink.onWrite(base);
            return;
        }
        cache_.absorbWriteAllocate(base, outcome_);
        for (Addr fill : outcome_.fills)
            sink.onRead(fill, false);
        for (const cache::WritebackReq &victim :
             outcome_.writebacks)
            sink.onWrite(victim.base);
    }

    /** Zero the demand counters, keeping tag state (warm-up). */
    void resetCounts() { counts_ = GhostCounts{}; }

    /** Demand traffic at the pivot since the last reset: counted
     *  reads in reads/readMisses, uncounted in extra*. */
    const GhostCounts &counts() const { return counts_; }

  private:
    cache::Cache cache_;
    cache::AccessOutcome outcome_;
    GhostCounts counts_;
    bool writeThrough_;
    bool writeAllocates_;
};

/**
 * Replay @p in through @p filter, recording the departing stream
 * into @p out. The warm boundary transfers: when the sweep reaches
 * in.warmEvents the filter's counters reset and out.warmEvents is
 * pinned to the downstream position (including the past-the-end
 * case, so a warm point after the last upstream event still zeroes
 * every downstream count).
 */
void filterEventLog(const FilteredEventLog &in,
                    CascadeFilter &filter, FilteredEventLog &out);

/**
 * Profile the joint family over one trace through the pipeline
 * (pipeline.hh) with one CascadeFilter stage per pivot. Returns one
 * TraceProfile per pivot, in
 * pivot order: configs covers the L3 family and pivotChain carries
 * the pivot's spec and exact counts (plus solo counts under
 * ProfileOptions::solo; member solo and FA-bound outputs are
 * pivot-independent and shared across the returned profiles).
 *
 * @p base must have at least two downstream levels; levels[0]
 * stands in for the pivots, levels[1] for the L3 family, and both
 * positions must be ghost-modellable (GhostPolicies::fromLevel).
 * Block-size ordering l1 <= pivot <= member is enforced.
 */
std::vector<TraceProfile>
profileCascadeTrace(const hier::HierarchyParams &base,
                    const CascadeFamilySpec &family,
                    trace::RefSpan refs, std::uint64_t warmup_refs,
                    const ProfileOptions &opts = {});

} // namespace onepass
} // namespace mlc

#endif // MLC_ONEPASS_CASCADE_HH
