/**
 * @file
 * The one profiling pipeline behind every one-pass engine: exact
 * (onepass::profileTrace), cascade (profileCascadeTrace) and sampled
 * (mrc::profileTrace, profileMapped, profileCascadeTrace), with
 * profileStore() the one loop that runs it across a trace store.
 *
 *   refs ─▶ L1Filter ─▶ FilteredEventLog ─┬──────────────────────▶ member sink
 *                                         └▶ CascadeFilter(pivot p) ─▶ member sink p
 *   refs ─▶ raw sink (solo forest, FA-LRU analyzers)
 *
 * The L1s replay once into a chunk-sized event log; the warm boundary
 * moves with the chunks (only the chunk holding it carries
 * FilteredEventLog::warmEvents), and a warm-up the stream never
 * reaches leaves the whole stream counted. Sinks keep their state
 * across chunks, so any chunking gives the same profile. The sinks
 * type (ExactSinks, or mrc::SampledSinks) names a Forest that
 * sweep()/sweepSolo() accept (sharded.hh), the FA analyzer Fa (the
 * one trace::StackDistanceAnalyzer, built exact or sampled), and
 * kCheckPivots: whether the pivots' own forest is exact enough to
 * check each pivot replay against (cascade.hh).
 */

#ifndef MLC_ONEPASS_PIPELINE_HH
#define MLC_ONEPASS_PIPELINE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "onepass/cascade.hh"
#include "onepass/engine.hh"
#include "onepass/l1_filter.hh"
#include "onepass/sharded.hh"
#include "trace/binary.hh"
#include "trace/stack_distance.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace onepass {

/** The exact engine's sinks: set-partitioned GhostTagForest sweeps
 *  over @p shards workers and exact FA-LRU analyzers. */
struct ExactSinks
{
    using Forest = ShardedForest;
    using Fa = trace::StackDistanceAnalyzer;
    static constexpr bool kCheckPivots = true;

    std::size_t shards = 1;

    Forest
    forest(const std::vector<GhostCacheSpec> &specs,
           const GhostPolicies &policies) const
    {
        return Forest(specs, policies, shards);
    }
    Fa fa(std::uint32_t block_bytes) const { return Fa(block_bytes); }
};

/** Which parts of a family profile one FamilySink computes. */
struct SinkParts
{
    bool filtered = false; //!< forest over the filtered event stream
    bool solo = false;     //!< forest over the raw CPU stream
    bool faBound = false;  //!< FA-LRU analyzers over the raw stream
};

/** One family's profiling state at one level, under one engine's
 *  sinks. */
template <typename Sinks>
class FamilySink
{
  public:
    FamilySink(const Sinks &sinks,
               const std::vector<GhostCacheSpec> &specs,
               const GhostPolicies &policies, SinkParts parts)
    {
        if (parts.filtered)
            filtered_.emplace(sinks.forest(specs, policies));
        if (parts.solo)
            solo_.emplace(sinks.forest(specs, policies));
        if (parts.faBound) {
            faOf_.resize(specs.size());
            for (const BlockGroup &g : blockGroups(specs)) {
                for (const std::size_t m : g.members)
                    faOf_[m] = fa_.size();
                fa_.push_back(sinks.fa(g.blockBytes));
            }
        }
    }

    /** A chunk of the event stream arriving at the family's level. */
    void
    events(const FilteredEventLog &chunk)
    {
        if (filtered_)
            sweep(*filtered_, chunk);
    }

    /** The same chunk's raw CPU references, warm boundary at index
     *  @p warm_at (as sweepSolo takes it). The FA analyzers span the
     *  whole stream, warm-up included: a stack-distance profile has
     *  no tag state to warm. */
    void
    refs(trace::RefSpan chunk, std::size_t warm_at)
    {
        if (solo_)
            sweepSolo(*solo_, chunk, warm_at);
        for (typename Sinks::Fa &a : fa_)
            for (const trace::MemRef &ref : chunk)
                a.access(ref.addr);
    }

    GhostCounts filtered(std::size_t m) const { return filtered_->counts(m); }
    GhostCounts solo(std::size_t m) const
    {
        return solo_ ? solo_->counts(m) : GhostCounts{};
    }

    /** Member @p m's raw-stream results (solo counts, FA bound)
     *  into @p cp, whose spec is already set. */
    void
    fillRaw(std::size_t m, ConfigProfile &cp) const
    {
        cp.solo = solo(m);
        if (fa_.empty())
            return;
        const typename Sinks::Fa &a = fa_[faOf_[m]];
        cp.faMissRatio =
            a.missRatio(cp.spec.sizeBytes / cp.spec.blockBytes);
        cp.faCompulsory = a.compulsory();
    }

  private:
    std::optional<typename Sinks::Forest> filtered_;
    std::optional<typename Sinks::Forest> solo_;
    std::vector<typename Sinks::Fa> fa_;
    std::vector<std::size_t> faOf_;
};

/**
 * The pipeline over one stream: @p family profiled at
 * base.levels[0] or, given @p pivots, at levels[1] behind an exact
 * replay of each pivot at levels[0]. Feed the stream in order, in
 * chunks of any size, then finish().
 */
template <typename Sinks>
class Pipeline
{
  public:
    /** Validate the families against @p base and build every stage.
     *  Panics when a profiled level is missing, a family is empty, a
     *  member's block is under 4 bytes or smaller than the widest
     *  block above it, or a level is not ghost-modellable
     *  (GhostPolicies::fromLevel). */
    Pipeline(const hier::HierarchyParams &base,
             const std::vector<GhostCacheSpec> &pivots,
             const FamilySpec &family, std::uint64_t warmup_refs,
             bool solo, bool fa_bound, const Sinks &sinks)
        : l1_(base), pivots_(pivots), members_(family.configs),
          warmup_(warmup_refs)
    {
        const hier::HierarchyParams &params = l1_.params();
        const std::size_t depth = pivots_.empty() ? 1u : 2u;
        if (params.levels.size() < depth)
            mlc_panic("profile: the base machine needs ",
                      depth == 1 ? "a downstream level"
                                 : "two downstream levels",
                      " for the profiled families; it has ",
                      params.levels.size());

        // One tier of specs per profiled level, outermost first. The
        // event log packs its kind into the low two address bits, so
        // every block is at least 4 bytes.
        std::vector<GhostPolicies> policies;
        std::uint32_t above = std::max(
            {4u, params.l1d.geometry.blockBytes,
             params.splitL1 ? params.l1i.geometry.blockBytes : 0u});
        for (std::size_t t = 0; t < depth; ++t) {
            const bool pivot_tier = t + 1 < depth;
            const std::vector<GhostCacheSpec> &tier =
                pivot_tier ? pivots_ : members_;
            if (tier.empty())
                mlc_panic("profile: empty ",
                          pivot_tier ? "pivot" : "cache", " family");
            std::uint32_t widest = 0;
            std::uint32_t max_assoc = 1;
            for (const GhostCacheSpec &spec : tier) {
                if (spec.blockBytes < above)
                    mlc_panic("profile: ", spec.toString(),
                              " has a smaller block than the ", above,
                              "B block above it, which the hierarchy "
                              "disallows");
                widest = std::max(widest, spec.blockBytes);
                max_assoc = std::max(max_assoc, spec.assoc);
            }
            policies.push_back(
                GhostPolicies::fromLevel(params.levels[t], max_assoc));
            above = widest;
        }

        raw_.emplace(sinks, members_, policies.back(),
                     SinkParts{false, solo, fa_bound});
        const SinkParts filtered{true, false, false};
        if (pivots_.empty()) {
            memberSinks_.emplace_back(sinks, members_,
                                      policies.back(), filtered);
            return;
        }
        pivotSink_.emplace(sinks, pivots_, policies.front(),
                           SinkParts{Sinks::kCheckPivots, solo, false});
        stages_.reserve(pivots_.size());
        memberSinks_.reserve(pivots_.size());
        for (const GhostCacheSpec &pivot : pivots_) {
            stages_.emplace_back(params, pivot);
            memberSinks_.emplace_back(sinks, members_,
                                      policies.back(), filtered);
        }
    }

    /** Replay the next @p chunk of the stream. */
    void
    feed(trace::RefSpan chunk)
    {
        const std::size_t warm_at =
            warmup_ >= fed_ && warmup_ - fed_ < chunk.size
                ? static_cast<std::size_t>(warmup_ - fed_)
                : FilteredEventLog::kNoBoundary;
        fed_ += chunk.size;
        replay(chunk, warm_at);
    }

    /**
     * Feed all of @p refs, @p chunk_refs at a time (0 = one chunk),
     * and finish(). When @p refs is a prefix of @p mapped, each chunk
     * is validated before its replay and its pages are released
     * after, so a mapped trace streams through in O(chunk) memory.
     */
    std::vector<TraceProfile>
    run(trace::RefSpan refs,
        const trace::MappedBinaryTrace *mapped = nullptr,
        std::size_t chunk_refs = kChunkRefs)
    {
        if (mapped)
            mapped->adviseSequential();
        const std::size_t chunk =
            chunk_refs == 0 ? std::max<std::size_t>(refs.size, 1)
                            : chunk_refs;
        for (std::size_t at = 0; at < refs.size; at += chunk) {
            const trace::RefSpan part = refs.dropFirst(at).first(chunk);
            if (mapped)
                mapped->validateRange(at, part.size);
            feed(part);
            if (mapped)
                mapped->releaseConsumed(at + part.size);
        }
        return finish();
    }

    /** One TraceProfile per pivot, in pivot order (one in all for a
     *  two-level family): the post-warm-up reference mix, the
     *  family's counts and, for a cascade, the pivot's link. Call
     *  once, after the last chunk (run() calls it). */
    std::vector<TraceProfile>
    finish()
    {
        TraceProfile mix;
        mix.instructions = l1_.instructions();
        mix.ifetches = l1_.instructions();
        mix.loads = l1_.loads();
        mix.stores = l1_.stores();
        mix.l1ReadRequests = l1_.l1ReadRequests();
        mix.l1ReadMisses = l1_.l1ReadMisses();
        mix.configs.resize(members_.size());
        for (std::size_t m = 0; m < members_.size(); ++m) {
            mix.configs[m].spec = members_[m];
            raw_->fillRaw(m, mix.configs[m]);
        }

        std::vector<TraceProfile> out(memberSinks_.size(), mix);
        for (std::size_t p = 0; p < out.size(); ++p) {
            for (std::size_t m = 0; m < members_.size(); ++m)
                out[p].configs[m].filtered =
                    memberSinks_[p].filtered(m);
            if (stages_.empty())
                continue;
            const GhostCounts &replayed = stages_[p].counts();
            // The pivot is both exactly replayed and ghost-modelled:
            // provably the same sequence, so the counts must agree.
            if constexpr (Sinks::kCheckPivots)
                if (replayed != pivotSink_->filtered(p))
                    mlc_panic("profile: pivot ", pivots_[p].toString(),
                              " exact replay disagrees with its ghost "
                              "forest");
            out[p].pivotChain.push_back(
                {pivots_[p], replayed, pivotSink_->solo(p)});
        }
        return out;
    }

  private:
    /** One chunk through every stage, the warm boundary at index
     *  @p warm_at. */
    void
    replay(trace::RefSpan chunk, std::size_t warm_at)
    {
        log_.events.clear();
        log_.events.reserve(chunk.size / 8); // miss streams are sparse
        log_.warmEvents = FilteredEventLog::kNoBoundary;
        for (std::size_t i = 0; i < chunk.size; ++i) {
            if (i == warm_at) {
                l1_.resetCounts();
                log_.warmEvents = log_.events.size();
            }
            l1_.step(chunk[i], log_);
        }

        raw_->refs(chunk, warm_at);
        if (stages_.empty()) {
            memberSinks_.front().events(log_);
            return;
        }
        pivotSink_->events(log_);
        pivotSink_->refs(chunk, warm_at);
        for (std::size_t p = 0; p < stages_.size(); ++p) {
            filterEventLog(log_, stages_[p], stageLog_);
            memberSinks_[p].events(stageLog_);
        }
    }

    L1Filter l1_;
    std::vector<GhostCacheSpec> pivots_;
    std::vector<GhostCacheSpec> members_;
    std::uint64_t warmup_;
    std::uint64_t fed_ = 0;
    FilteredEventLog log_;
    FilteredEventLog stageLog_;
    std::vector<CascadeFilter> stages_;
    /** The pivots' forests: the replay check and the pivots' solo
     *  counts (cascades only). */
    std::optional<FamilySink<Sinks>> pivotSink_;
    /** The members' raw-stream parts, shared by every pivot. */
    std::optional<FamilySink<Sinks>> raw_;
    /** The members' filtered forests, one per pivot (one in all for
     *  a two-level family). */
    std::vector<FamilySink<Sinks>> memberSinks_;
};

/**
 * Profile @p family over every trace of @p store, one Pipeline per
 * trace at the trace's scaled warm-up, traces spread over @p jobs
 * workers. Returns the profiles pivot-major, out[p * store.size() +
 * t] (one row for a two-level family), each named after its trace;
 * bit-identical for any @p jobs.
 */
template <typename Sinks>
std::vector<TraceProfile>
profileStore(const hier::HierarchyParams &base,
             const CascadeFamilySpec &family,
             const expt::TraceStore &store, std::size_t jobs,
             bool solo, bool fa_bound, const Sinks &sinks)
{
    const std::size_t traces = store.size();
    std::vector<TraceProfile> out(
        std::max<std::size_t>(family.pivots.size(), 1) * traces);
    parallelFor(jobs, traces, [&](std::size_t t) {
        Pipeline<Sinks> pipe(base, family.pivots, family.l3,
                             expt::scaledWarmup(store.specs()[t]),
                             solo, fa_bound, sinks);
        std::vector<TraceProfile> per_pivot = pipe.run(store.span(t));
        for (std::size_t p = 0; p < per_pivot.size(); ++p) {
            per_pivot[p].traceName = store.specs()[t].name;
            out[p * traces + t] = std::move(per_pivot[p]);
        }
    });
    return out;
}

} // namespace onepass
} // namespace mlc

#endif // MLC_ONEPASS_PIPELINE_HH
