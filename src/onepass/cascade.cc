#include "onepass/cascade.hh"

#include "onepass/pipeline.hh"
#include "util/logging.hh"

namespace mlc {
namespace onepass {

namespace {

cache::CacheParams
pivotParams(const hier::HierarchyParams &base,
            const GhostCacheSpec &pivot)
{
    if (base.levels.empty())
        mlc_panic("cascade: the base machine has no downstream "
                  "level for the pivot to stand in for");
    cache::CacheParams p = base.levels[0];
    p.geometry.sizeBytes = pivot.sizeBytes;
    p.geometry.assoc = pivot.assoc;
    p.geometry.blockBytes = pivot.blockBytes;
    // Keep fetch == block when the pivot varies block size so
    // finalize() never sees a stale sub-block/fetch-group ratio.
    p.fetchBytes = pivot.blockBytes;
    p.finalize();
    return p;
}

} // namespace

std::string
CascadeFamilySpec::key() const
{
    std::string out;
    for (std::size_t i = 0; i < pivots.size(); ++i) {
        if (i)
            out += '|';
        out += pivots[i].toString();
    }
    out += "=>";
    out += l3.key();
    return out;
}

// Seeded as the simulator seeds levels[0], the level the pivot
// stands in for, so a Random-replacement pivot picks the same
// victims as the timing simulator's L2.
CascadeFilter::CascadeFilter(const hier::HierarchyParams &base,
                             const GhostCacheSpec &pivot)
    : cache_(pivotParams(base, pivot), hier::levelSeed(0)),
      writeThrough_(cache_.params().writePolicy ==
                    cache::WritePolicy::WriteThrough),
      writeAllocates_(cache_.params().downstreamWriteMiss ==
                      cache::DownstreamWriteMissPolicy::Allocate)
{
}

void
filterEventLog(const FilteredEventLog &in, CascadeFilter &filter,
               FilteredEventLog &out)
{
    out.events.clear();
    out.events.reserve(in.events.size() / 4);
    out.warmEvents = FilteredEventLog::kNoBoundary;
    struct Stage
    {
        CascadeFilter &pivot;
        FilteredEventLog &next;

        void
        onRead(Addr addr, bool counted)
        {
            pivot.onRead(addr, counted, next);
        }
        void onWrite(Addr addr) { pivot.onWrite(addr, next); }
        // The warm boundary transfers downstream, past-the-end
        // included: a warm point after the last upstream event
        // still zeroes every downstream count.
        void
        onWarm()
        {
            pivot.resetCounts();
            next.warmEvents = next.events.size();
        }
    };
    visitEvents(in, Stage{filter, out});
}

std::vector<TraceProfile>
profileCascadeTrace(const hier::HierarchyParams &base,
                    const CascadeFamilySpec &family,
                    trace::RefSpan refs, std::uint64_t warmup_refs,
                    const ProfileOptions &opts)
{
    Pipeline<ExactSinks> pipe(base, family.pivots, family.l3,
                              warmup_refs, opts.solo, opts.faBound,
                              ExactSinks{opts.shards});
    return pipe.run(refs);
}

} // namespace onepass
} // namespace mlc
