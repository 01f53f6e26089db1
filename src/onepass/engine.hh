/**
 * @file
 * One-pass multi-configuration profiling: read miss ratios for an
 * entire family of second-level caches from a single replay of the
 * reference stream.
 *
 * The timing sweep re-simulates the whole machine at every (L2
 * size x cycle time) grid cell, so grid cost grows with cell count.
 * The paper itself separates the concerns: miss ratios are a
 * property of the cache family (Section 3), and execution time
 * follows from them analytically (Equations 1-3). profileTrace()
 * computes the miss-ratio half of that split exactly, through the
 * profiling pipeline every one-pass engine shares (pipeline.hh):
 * one pass replays the L1s (L1Filter) into an event log, a ghost
 * forest with one member per candidate L2 sweeps it
 * (set-partitioned across ProfileOptions::shards workers,
 * sharded.hh), and it reports per-config counts for all three of
 * the paper's read miss-ratio definitions — local, global (both
 * from the filtered stream) and solo (from a second forest fed the
 * raw CPU stream).
 *
 * Exact versus approximate: the per-config read request and miss
 * counts equal a full hier::HierarchySimulator run bit for bit
 * (onepass::crossCheck verifies this), because functional cache
 * state is timing-independent and write-around levels never feed
 * back upstream. What one pass cannot reproduce is the timing
 * texture — write-buffer drain, bus contention, cycle rounding —
 * so execution time is *modelled* from the exact miss ratios
 * (EqTimingModel), not measured.
 */

#ifndef MLC_ONEPASS_ENGINE_HH
#define MLC_ONEPASS_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "expt/workload_suite.hh"
#include "hier/hierarchy_config.hh"
#include "onepass/ghost_tags.hh"

namespace mlc {
namespace onepass {

/** The family of candidate caches profiled in one pass. */
struct FamilySpec
{
    std::vector<GhostCacheSpec> configs;

    /**
     * The design-space grid family: every size in @p sizes at the
     * base machine's L2 associativity and block size (the cycle
     * axis changes timing only, so it needs no extra configs).
     */
    static FamilySpec l2Grid(const hier::HierarchyParams &base,
                             const std::vector<std::uint64_t> &sizes);

    /** Every (size x associativity x block size) combination. */
    static FamilySpec
    crossProduct(const std::vector<std::uint64_t> &sizes,
                 const std::vector<std::uint32_t> &assocs,
                 const std::vector<std::uint32_t> &blocks);

    /**
     * Canonical identity string ("512KB/1-way/32B|1MB/1-way/32B").
     * Two equal keys mean member-for-member equal families, so a
     * cached profile of one prices the other — what the query
     * server's resident profile cache (serve::ProfileCache) keys
     * on.
     */
    std::string key() const;
};

/** References per chunk of the profiling pipeline (pipeline.hh):
 *  bounds its event logs at a few MB however long the trace is. */
constexpr std::size_t kChunkRefs = std::size_t{1} << 20;

/** What to compute beyond the filtered-stream counts. */
struct ProfileOptions
{
    /** Co-profile a solo forest on the raw CPU stream (Section 3's
     *  third miss-ratio definition). */
    bool solo = false;
    /**
     * Also run a trace::StackDistanceAnalyzer per distinct block
     * size over the raw stream for the fully-associative LRU bound
     * and compulsory-miss counts. Diagnostic: it spans the whole
     * stream (warm-up included), unlike the counters, which reset
     * at the warm-up boundary.
     */
    bool faBound = false;
    /**
     * Partition the ghost-forest sweeps by set index across this
     * many ThreadPool workers (sharded.hh).
     * Results are bit-identical for every value — sets are
     * independent, each is owned by exactly one shard, and the
     * per-shard counts merge in fixed order (DESIGN.md §5f).
     * Composes with a suite's jobs: shards parallelize *within*
     * one trace, jobs across traces.
     */
    std::size_t shards = 1;
};

/** Per-config results of one profiled trace. */
struct ConfigProfile
{
    GhostCacheSpec spec;
    /** Demand traffic at the level's position in the hierarchy:
     *  reads/readMisses are the paper's L2 read requests/misses. */
    GhostCounts filtered;
    /** Raw-CPU-stream counts (zero unless ProfileOptions::solo). */
    GhostCounts solo;
    /** Fully-associative LRU miss ratio at this capacity over the
     *  whole stream; negative unless ProfileOptions::faBound. */
    double faMissRatio = -1.0;
    /** Distinct blocks of this config's block size in the stream
     *  (compulsory misses); 0 unless ProfileOptions::faBound. */
    std::uint64_t faCompulsory = 0;
};

/**
 * One exactly-replayed intermediate level of a cascade profile
 * (cascade.hh): the pivot configuration and its demand traffic at
 * that level. A depth-3 profile carries one link (the L2 pivot);
 * the chain generalizes to deeper hierarchies.
 */
struct PivotLink
{
    GhostCacheSpec spec;
    /** Demand traffic arriving at the pivot: reads/readMisses are
     *  the level's counted read requests/misses, extra* the
     *  uncounted (store-origin / fetch-group) traffic. */
    GhostCounts counts;
    /** Raw-CPU-stream stand-alone counts for the pivot (zero unless
     *  ProfileOptions::solo). */
    GhostCounts solo;
};

/** Everything one pass learns about one trace. */
struct TraceProfile
{
    std::string traceName;

    /** @{ @name Measured reference mix (post-warm-up) */
    std::uint64_t instructions = 0;
    std::uint64_t ifetches = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t cpuReads() const { return ifetches + loads; }
    /** @} */

    /** @{ @name Combined L1 read traffic (split I+D summed) */
    std::uint64_t l1ReadRequests = 0;
    std::uint64_t l1ReadMisses = 0;
    double l1GlobalMissRatio() const;
    /** @} */

    /** Parallel to the FamilySpec that produced this profile. */
    std::vector<ConfigProfile> configs;

    /**
     * Exactly-replayed intermediate levels between the L1s and the
     * profiled family, outermost first. Empty for the classic
     * two-level profile; a cascade profile (profileCascadeTrace)
     * carries one link per pivot level, and EqTimingModel composes
     * the chain's miss ratios into the deeper Eq. 1-3 model.
     */
    std::vector<PivotLink> pivotChain;
};

/**
 * Profile @p family at the position of base.levels[0]: replay the
 * first warmup_refs references without counting, then count over
 * the rest (all of the stream when warmup_refs reaches its end, as
 * at warmup_refs = 0). Panics when the family cannot be modelled
 * exactly (see GhostPolicies::fromLevel) or when a member's block
 * size is smaller than the L1 fill size.
 */
TraceProfile profileTrace(const hier::HierarchyParams &base,
                          const FamilySpec &family,
                          trace::RefSpan refs,
                          std::uint64_t warmup_refs,
                          const ProfileOptions &opts = {});

} // namespace onepass
} // namespace mlc

#endif // MLC_ONEPASS_ENGINE_HH
