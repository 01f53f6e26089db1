/**
 * @file
 * Resident ghost-profile cache: the expensive half of a one-pass
 * query, kept hot across requests.
 *
 * A one-pass query costs one profiling pass over every trace of a
 * workload (engines::profile) plus a closed-form grid
 * evaluation that is microseconds. The pass depends only on
 * (workload, L1 organization, candidate family) — the cycle-time
 * axis and the analytic pricing do not touch cache state — so one
 * resident profile answers every query and sweep over that family
 * until it ages out. This is the Ling-et-al. amortization the
 * ISSUE names: keep locality profiles resident, reuse them across
 * queries.
 *
 * Values are shared_ptr-to-const so a query holds its profile
 * safely while an eviction or a concurrent insert rotates the
 * cache underneath it. Plain LRU; the family universe is tiny (a
 * handful of (workload x family) combinations), tenant fairness
 * lives in the result cache above.
 */

#ifndef MLC_SERVE_PROFILE_CACHE_HH
#define MLC_SERVE_PROFILE_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "onepass/engine.hh"

namespace mlc {
namespace serve {

/** LRU map: canonical (workload, base, family) key -> profiles.
 *
 *  Entries carry an *engine kind* tag ("onepass" for two-level
 *  ghost families, "cascade" for joint L2xL3 families, whose keys
 *  fold in the pivot-family hash via CascadeFamilySpec::key()).
 *  Hit/miss/eviction traffic is accounted per kind so the metrics
 *  page can tell whether the expensive cascade passes are actually
 *  being reused. */
class ProfileCache
{
  public:
    using Profiles =
        std::shared_ptr<const std::vector<onepass::TraceProfile>>;

    explicit ProfileCache(std::size_t capacity);

    /** nullptr on miss; bumps to MRU on hit. @p kind tags the
     *  traffic bucket charged (it is not part of the key — callers
     *  already namespace keys by family shape). */
    Profiles get(const std::string &key,
                 const std::string &kind = "onepass");

    void put(const std::string &key, Profiles profiles,
             const std::string &kind = "onepass");

    /** One engine kind's traffic. */
    struct KindStats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
    };
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
        /** Per-kind buckets, sorted by kind name (deterministic
         *  series order for the metrics renderer). Totals above
         *  are the sums. */
        std::vector<std::pair<std::string, KindStats>> kinds;
    };
    Stats stats() const;

  private:
    struct Entry
    {
        std::string key;
        std::string kind;
        Profiles profiles;
    };

    mutable std::mutex m_;
    std::size_t capacity_;
    /** MRU at front. Linear scan: the cache holds a handful of
     *  families, never thousands. */
    std::list<Entry> lru_;
    /** Kind -> cumulative counters (entries recomputed in
     *  stats()). Ordered map: sorted output for free. */
    std::map<std::string, KindStats> kinds_;
};

} // namespace serve
} // namespace mlc

#endif // MLC_SERVE_PROFILE_CACHE_HH
