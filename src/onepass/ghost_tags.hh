/**
 * @file
 * Ghost tag arrays: exact functional miss counting for a *family*
 * of caches over one shared address stream.
 *
 * A GhostTagArray is the minimal state needed to answer "would this
 * access hit?" for one set-associative LRU cache — tags and recency
 * stamps, no data, no dirty bits, no timing. A GhostTagForest holds
 * one array per member of a cache family (size x associativity x
 * block size) and applies every incoming event to all of them,
 * decoding the address into a block number once per distinct block
 * size rather than once per configuration. A forest can also hold
 * one set slice of every member, the unit the sharded sweep
 * (sharded.hh) runs in parallel.
 *
 * Exactness contract: for LRU (any associativity) and for
 * direct-mapped caches (any nominal policy — a 1-way set has no
 * choice), a GhostTagArray's hit/miss sequence is identical to
 * cache::Cache / cache::TagArray fed the same accesses: recency
 * stamps advance on exactly the same events (touch on hit, install
 * on miss) and the victim scan prefers invalid ways in way order,
 * then the minimum stamp — the same tie-breaking TagArray uses.
 * tests/onepass/test_ghost_tags.cc holds a randomized property test
 * of this equivalence. Random/FIFO replacement above 1 way,
 * sub-blocking and prefetch are out of scope and rejected at
 * construction.
 */

#ifndef MLC_ONEPASS_GHOST_TAGS_HH
#define MLC_ONEPASS_GHOST_TAGS_HH

#include <cstdint>
#include <vector>

#include "cache/cache_config.hh"
#include "trace/mem_ref.hh"
#include "util/bits.hh"

namespace mlc {
namespace onepass {

/** Geometry of one family member. */
struct GhostCacheSpec
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t assoc = 1; //!< ways per set (1 = direct-mapped)
    std::uint32_t blockBytes = 32;

    bool
    operator==(const GhostCacheSpec &o) const
    {
        return sizeBytes == o.sizeBytes && assoc == o.assoc &&
               blockBytes == o.blockBytes;
    }

    std::string toString() const;
};

/** Per-configuration access/miss counters. */
struct GhostCounts
{
    /**
     * Paper-visible read requests and misses: for a second-level
     * family these are the *demand* requests of read origin (the
     * quantities behind the local and global read miss ratios);
     * for a solo family they are the CPU's reads.
     */
    std::uint64_t reads = 0;
    std::uint64_t readMisses = 0;

    /** State-changing accesses outside the ratio: store-origin
     *  demand fills and non-demand group fills (filtered family),
     *  stores (solo family). */
    std::uint64_t extraAccesses = 0;
    std::uint64_t extraMisses = 0;

    /** Misses / reads (the local read miss ratio). */
    double localMissRatio() const;
    /** Misses / @p cpu_reads (the global read miss ratio). */
    double globalMissRatio(std::uint64_t cpu_reads) const;

    bool operator==(const GhostCounts &) const = default;
};

/** Distinct block sizes in first-appearance order, with the member
 *  indices using each: the members that share one address decode
 *  in a ghost forest (exact or sampled) and one FA-LRU analyzer in
 *  the profiling pipeline. */
struct BlockGroup
{
    std::uint32_t blockBytes;
    std::vector<std::size_t> members;
};

std::vector<BlockGroup>
blockGroups(const std::vector<GhostCacheSpec> &configs);

/**
 * Branch-free hit scan over one SoA set row: 1 + the matching way,
 * or 0 on a miss. A tag lives in at most one valid way (installs
 * only happen on misses), so the sum over ways of
 * match * (way + 1) *is* the answer, and a plain sum reduction of
 * loads is the form the auto-vectorizer handles on every x86-64
 * level with 64-bit lane compares (v2 and up) — unlike a bitmask
 * build, whose per-way variable shift needs AVX2.
 *
 * Shared between the exact GhostTagArray and the sampled miniature
 * arrays of mrc::SampledGhostForest, so both engines scan tags with
 * the same code and the same vectorization story.
 */
inline std::uint64_t
ghostHitScan(const std::uint64_t *tags, const std::uint64_t *stamps,
             std::uint32_t ways, std::uint64_t tag)
{
    std::uint64_t hit = 0;
    for (std::uint32_t w = 0; w < ways; ++w)
        hit += static_cast<std::uint64_t>(
                   (stamps[w] != 0) & (tags[w] == tag)) *
               (w + 1);
    return hit;
}

/** One valid line of a ghost array, as reported by validLines(). */
struct GhostLine
{
    std::uint64_t set;
    std::uint64_t tag;
    std::uint64_t stamp;
};

/** Tags + LRU stamps of one ghost cache. Addresses are *block
 *  numbers* (byte address >> log2(blockBytes)); the forest does
 *  that shift once per block-size group.
 *
 *  Storage is structure-of-arrays (tags_ and stamps_ as separate
 *  vectors, the layout cache::TagArray proved out) so the per-way
 *  compare loop reduces to a branch-free sum reduction the
 *  compiler auto-vectorizes on targets with 64-bit lane compares
 *  (x86-64-v2 and up; see the MLC_MARCH CMake option). To see the
 *  vectorizer's verdict, pass -fopt-info-vec-optimized (GCC) or
 *  -Rpass=loop-vectorize (Clang) through CMAKE_CXX_FLAGS. */
class GhostTagArray
{
  public:
    /**
     * @p sets rows of @p ways ways each: a whole cache, or a shard's
     * slice of a set-partitioned one (any row count, not necessarily
     * a power of two). The caller picks the row of every access.
     */
    GhostTagArray(std::uint64_t sets, std::uint32_t ways);

    /** Access with allocation (a read, or a write-allocate store) to
     *  row @p set: touch on hit, install-evicting-LRU on miss.
     *  @p tag is the full block number. @return true on hit. */
    bool touchOrInstallAt(std::uint64_t set, std::uint64_t tag);

    /** Access without allocation (an absorbed downstream write
     *  under write-around): touch on hit, no change on miss.
     *  @return true on hit. */
    bool touchOnlyAt(std::uint64_t set, std::uint64_t tag);

    std::uint64_t validCount() const;

    /**
     * Every valid line, sorted by ascending stamp (LRU first, MRU
     * last) — the order a caller must re-insert them in to rebuild
     * an equivalent recency state in another array (what the
     * sampled forest's adaptive shrink does).
     */
    std::vector<GhostLine> validLines() const;

    std::uint64_t sets() const { return tags_.size() / ways_; }
    std::uint32_t ways() const { return ways_; }

  private:
    std::uint32_t ways_;
    std::uint64_t stamp_ = 0;
    /** SoA against stamps_: tags_[set*ways_+w] pairs with
     *  stamps_[set*ways_+w]. */
    std::vector<std::uint64_t> tags_;
    /** 0 = invalid; valid lines carry distinct stamps, so the
     *  victim scan's strict-min naturally prefers the lowest
     *  invalid way, exactly as TagArray::chooseVictim does. */
    std::vector<std::uint64_t> stamps_;
};

/** How the family treats state-changing events, mirrored from the
 *  cache::CacheParams of the level being modelled. */
struct GhostPolicies
{
    /** Stores that miss allocate (solo family only). */
    cache::AllocPolicy alloc = cache::AllocPolicy::WriteAllocate;
    /** Downstream writes that miss allocate (filtered family). */
    cache::DownstreamWriteMissPolicy downstreamWriteMiss =
        cache::DownstreamWriteMissPolicy::Around;

    /** Mirror the relevant policies of @p level; panics when the
     *  level uses features the ghost model cannot reproduce
     *  exactly (sub-blocking, prefetch, fetch != block, or a
     *  non-LRU policy with @p max_assoc > 1). */
    static GhostPolicies fromLevel(const cache::CacheParams &level,
                                   std::uint32_t max_assoc);
};

/** A family of ghost arrays sharing one decode pass, or one set
 *  slice of such a family. */
class GhostTagForest
{
  public:
    /**
     * @param specs family members; every sizeBytes/assoc/blockBytes
     *        must be a power of two with at least one set.
     * @param shard, shards slice @p shard of @p shards keeps member
     *        m's sets s with s mod S_m == shard, S_m = min(shards,
     *        sets_m), at row s / S_m (sharded.hh); 0 of 1 is whole.
     */
    GhostTagForest(std::vector<GhostCacheSpec> specs,
                   GhostPolicies policies, std::size_t shard = 0,
                   std::size_t shards = 1);

    /**
     * A demand read request reaching this level (filtered stream).
     * @param counted it is of read origin, i.e. it enters the
     *        local/global read miss ratios; store-origin fills
     *        update state through the extra counters instead.
     */
    void read(Addr addr, bool counted);

    /** A non-demand fill (fetch group / prefetch of the level
     *  above): allocates but never enters the read ratios. */
    void fill(Addr addr);

    /** A downstream write (victim write-back or forwarded store):
     *  touch on hit; on miss, allocate or pass around per the
     *  forest's DownstreamWriteMissPolicy. */
    void write(Addr addr);

    /** One raw CPU reference (solo families — Section 3's third
     *  miss-ratio definition). */
    void soloAccess(const trace::MemRef &ref);

    /** Zero all counters, keeping tag state (post-warm-up). */
    void resetCounts();

    const std::vector<GhostCacheSpec> &specs() const
    {
        return specs_;
    }
    const GhostCounts &counts(std::size_t config) const;

  private:
    /** One member's rows in this slice, and where its sets go. */
    struct Member
    {
        GhostTagArray array;
        std::uint64_t setMask;
        FixedDivisor slices; //!< S_m
    };

    /** Configs sharing one block size, so the byte-address shift
     *  happens once per group per event; members owning no set in
     *  this slice are left out. */
    struct Group
    {
        unsigned blockShift;
        std::vector<std::size_t> members;
    };

    /** fn(array, row, block, counts) for every member owning the
     *  set @p addr maps to. */
    template <typename Fn>
    void forOwners(Addr addr, Fn &&fn);

    std::vector<GhostCacheSpec> specs_;
    GhostPolicies policies_;
    std::uint64_t shard_;
    std::vector<Member> members_;
    std::vector<GhostCounts> counts_;
    std::vector<Group> groups_;
};

} // namespace onepass
} // namespace mlc

#endif // MLC_ONEPASS_GHOST_TAGS_HH
