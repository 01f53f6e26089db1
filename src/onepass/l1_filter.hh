/**
 * @file
 * The event stream a second-level cache observes: the timing
 * simulator's own L1 front end (hier::L1Front), its departing
 * traffic turned into ghost-sweep events. That stream depends only
 * on (L1 configuration, trace), so one pass prices a whole family
 * of L2s. Events keep the simulator's order (demand fill, rest of
 * the fetch group, dirty victims, forwarded store), on which
 * downstream LRU state depends.
 */

#ifndef MLC_ONEPASS_L1_FILTER_HH
#define MLC_ONEPASS_L1_FILTER_HH

#include <cstdint>

#include "hier/hierarchy.hh"
#include "trace/mem_ref.hh"

namespace mlc {
namespace onepass {

/**
 * The split (or unified) L1 of @p params, replayed functionally.
 *
 * The Sink passed to step() receives the downstream traffic:
 *
 *   sink.onRead(Addr addr, bool counted)  — a fill request leaving
 *       L1; @p counted marks the demand request of a read-origin
 *       miss (the only requests in the paper's L2 read miss
 *       ratios — store-origin and fetch-group fills still access
 *       the level below but are not counted as L2 read requests).
 *   sink.onWrite(Addr base)               — a dirty victim
 *       write-back or a forwarded store headed downstream.
 */
class L1Filter
{
  public:
    /** @param params is finalized internally (copy). */
    explicit L1Filter(const hier::HierarchyParams &params)
        : params_(params.finalized()), front_(params_)
    {
    }

    /** Replay one CPU reference through the L1s. */
    template <typename Sink>
    void
    step(const trace::MemRef &ref, Sink &&sink)
    {
        const hier::L1Front::Step s = front_.step(ref);
        if (s == hier::L1Front::Step::ReadHit ||
            s == hier::L1Front::Step::StoreHit)
            return;
        // Only the leading (demand) fill of a read-origin miss is a
        // counted L2 read request, as in fillFromBelow.
        const cache::AccessOutcome &out = front_.outcome();
        bool counted = s == hier::L1Front::Step::ReadMiss;
        for (Addr fill : out.fills) {
            sink.onRead(fill, counted);
            counted = false;
        }
        for (const cache::WritebackReq &victim : out.writebacks)
            sink.onWrite(victim.base);
        if (s == hier::L1Front::Step::StoreDown && out.forwardWrite)
            sink.onWrite(ref.addr & ~Addr{3});
    }

    /** Zero all counters, keeping tag state (post-warm-up). */
    void resetCounts() { front_.resetCounts(); }

    /** @{ @name Reference-mix counters since the last reset (every
     *  instruction is one ifetch) */
    std::uint64_t instructions() const { return front_.instructions(); }
    std::uint64_t loads() const { return front_.loads(); }
    std::uint64_t stores() const { return front_.stores(); }
    std::uint64_t cpuReads() const { return instructions() + loads(); }
    /** @} */

    /** @{ @name Combined L1 read traffic (split I+D summed) */
    std::uint64_t
    l1ReadRequests() const
    {
        return front_.counts().readRequests();
    }
    std::uint64_t
    l1ReadMisses() const
    {
        return front_.counts().readMisses();
    }
    /** @} */

    const hier::HierarchyParams &params() const { return params_; }

  private:
    hier::HierarchyParams params_;
    hier::L1Front front_;
};

} // namespace onepass
} // namespace mlc

#endif // MLC_ONEPASS_L1_FILTER_HH
