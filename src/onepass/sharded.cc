#include "onepass/sharded.hh"

#include <algorithm>

#include "util/thread_pool.hh"

namespace mlc {
namespace onepass {

ShardedForest::ShardedForest(const std::vector<GhostCacheSpec> &specs,
                             const GhostPolicies &policies,
                             std::size_t shards)
{
    shards = std::max<std::size_t>(1, shards);
    slices_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s)
        slices_.emplace_back(specs, policies, s, shards);
}

GhostCounts
ShardedForest::counts(std::size_t m) const
{
    // The slices partition every count and the sum runs in fixed
    // slice order, so the integers equal the whole forest's for any
    // shard count.
    GhostCounts sum;
    for (const GhostTagForest &slice : slices_) {
        const GhostCounts &c = slice.counts(m);
        sum.reads += c.reads;
        sum.readMisses += c.readMisses;
        sum.extraAccesses += c.extraAccesses;
        sum.extraMisses += c.extraMisses;
    }
    return sum;
}

std::vector<GhostCounts>
ShardedForest::counts() const
{
    std::vector<GhostCounts> out(slices_.front().specs().size());
    for (std::size_t m = 0; m < out.size(); ++m)
        out[m] = counts(m);
    return out;
}

void
sweep(ShardedForest &forest, const FilteredEventLog &log)
{
    std::vector<GhostTagForest> &slices = forest.slices_;
    parallelFor(slices.size(), slices.size(),
                [&](std::size_t s) { sweep(slices[s], log); });
}

void
sweepSolo(ShardedForest &forest, trace::RefSpan refs,
          std::size_t warm_at)
{
    std::vector<GhostTagForest> &slices = forest.slices_;
    parallelFor(slices.size(), slices.size(), [&](std::size_t s) {
        sweepSolo(slices[s], refs, warm_at);
    });
}

std::vector<GhostCounts>
sweepEventLog(const FilteredEventLog &log,
              const std::vector<GhostCacheSpec> &configs,
              const GhostPolicies &policies, std::size_t shards)
{
    ShardedForest forest(configs, policies, shards);
    sweep(forest, log);
    return forest.counts();
}

std::vector<GhostCounts>
sweepSoloStream(trace::RefSpan refs, std::uint64_t warmup_refs,
                const std::vector<GhostCacheSpec> &configs,
                const GhostPolicies &policies, std::size_t shards)
{
    ShardedForest forest(configs, policies, shards);
    sweepSolo(forest, refs, static_cast<std::size_t>(warmup_refs));
    return forest.counts();
}

} // namespace onepass
} // namespace mlc
