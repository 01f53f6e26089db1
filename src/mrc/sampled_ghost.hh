/**
 * @file
 * Sampled ghost forest: the one-pass engine's GhostTagForest over a
 * sampled subset of each member's sets, in miniature.
 *
 * Set-associative caches need more than "scale the counts": a
 * block-sampled stream hitting a full-size tag array under-fills
 * every set and overstates hit ratios, and a hash-indexed mini
 * array destroys the real conflict structure (spatially regular
 * streams that never conflict in the real cache collide at random
 * in a hashed one — a systematic bias, not noise). The construction
 * that keeps per-set behaviour *exact* is Kessler-style set
 * sampling: model each family member with a mini tag array of
 * miniSets = fullSets >> j sets (the requested rate snapped to the
 * nearest power-of-two fraction, floored by SamplerConfig::minSets)
 * holding a fixed subset of the member's *real* sets. Every sampled
 * set then sees byte-for-byte the reference stream the full cache's
 * corresponding set sees, so its hit/miss behaviour is exact; the
 * member's totals scale by weight = 2^j and the only estimation
 * error is cross-set variance, controlled by miniSets (notably it
 * does NOT average out with trace length — hot conflict sets stay
 * hot — which is why SamplerConfig::minSets floors every member).
 *
 * Which sets: a real set s is kept iff t = (s * kSetScatter +
 * salt) mod fullSets lands below miniSets, and t is its mini
 * index. The affine map with an odd multiplier is a bijection on
 * the set index space, so exactly miniSets sets are kept, each
 * with a unique slot — and by the three-distance theorem the kept
 * subset of a golden-ratio progression is spread with near-equal
 * gaps: a *stratified* sample of the index space. Both obvious
 * alternatives measurably bias or inflate the estimate: "keep
 * every 2^j-th set" correlates with the power-of-two alignment
 * real address streams are full of (page-aligned code,
 * segment-aligned heaps), and a pseudo-random permutation
 * Poisson-clumps where the progression stratifies. The per-member
 * salt phases the progressions apart so members' errors are
 * decorrelated and partially cancel in family means.
 *
 * Exactness at p = 1.0: a member whose miniSets equals its full set
 * count is *natural* — it indexes by the real set bits
 * (block & setMask), keeps everything, and weighs 1.0 — so its
 * mini array is byte-for-byte the exact GhostTagArray and counts()
 * reproduces GhostTagForest bit for bit (the property
 * tests/mrc/test_sampled_ghost.cc pins).
 *
 * Adaptive mode (budget > 0) bounds live tag state: when the
 * forest's total valid-line count exceeds the budget, every
 * member's miniSets halves (j grows by one) and its array is
 * rebuilt from validLines() in ascending-stamp order (re-inserting
 * preserves relative recency), dropping lines whose set is no
 * longer sampled — halving only ever *narrows* the kept-set
 * predicate, so no line is ever back-filled. Counts accumulated
 * before the shrink keep their old weight — each sampled reference
 * is scaled by the reciprocal of the rate *in force when it was
 * seen*, which keeps the estimator unbiased across lowerings
 * (DESIGN.md §5i).
 */

#ifndef MLC_MRC_SAMPLED_GHOST_HH
#define MLC_MRC_SAMPLED_GHOST_HH

#include <cstdint>
#include <vector>

#include "onepass/ghost_tags.hh"

namespace mlc {
namespace mrc {

/** How a sampled engine component samples: the SHARDS filter of the
 *  FA analyzers (trace/sampler.hh) and the set sampling of the
 *  ghost forest. */
struct SamplerConfig
{
    /** Initial sampling rate p in (0, 1]; 1.0 = exact. */
    double rate = 0.01;
    /**
     * SHARDS-adaptive live-set budget s_max; 0 = fixed-rate. With
     * a budget the owner starts at @ref rate (often 1.0) and halves
     * its rate whenever it holds more than s_max live sampled
     * blocks, keeping memory bounded no matter the trace footprint.
     */
    std::uint64_t budget = 0;
    /**
     * Per-member floor on miniature set counts for the sampled
     * ghost forest: a member never scales below min(minSets, its
     * full set count), which bounds cross-set variance — the only
     * error source of set sampling, and one that does NOT average
     * out with trace length (hot conflict sets stay hot). Members
     * at or below the floor run exact; the per-member effective
     * rate snaps to miniSets/fullSets so the scaling stays
     * unbiased. The default keeps the paper-grid family within the
     * bench/mrc_streaming 0.3%-absolute error gate at p = 0.01
     * while still sampling the large members at ~1/128 of their
     * sets; 4096-set members cost ~64KB of tags each, noise next
     * to the O(trace) state the engine exists to avoid.
     */
    std::uint64_t minSets = 4096;
    /**
     * Extra salt folded into every forest member's kept-set phase.
     * 0 (the default) keeps the canonical per-member subsets, so
     * existing results are bit-stable; distinct seeds re-draw which
     * sets each member keeps, giving independent estimates of the
     * same curve whose spread *measures* the cross-set variance —
     * bench/mrc_streaming's multi-salt error bars. Natural members
     * (p = 1.0 or at the minSets floor) keep every set under any
     * seed, so the exactness contract is seed-independent.
     */
    std::uint64_t saltSeed = 0;
};

/**
 * Drop-in sampled counterpart of onepass::GhostTagForest: same
 * event verbs, same GhostCounts shape out, so
 * onepass::EqTimingModel prices a sampled profile unchanged.
 */
class SampledGhostForest
{
  public:
    SampledGhostForest(std::vector<onepass::GhostCacheSpec> specs,
                       onepass::GhostPolicies policies,
                       const SamplerConfig &sampler);

    /** @{ @name GhostTagForest-compatible event verbs */
    void read(Addr addr, bool counted);
    void fill(Addr addr) { read(addr, false); }
    void write(Addr addr);
    void soloAccess(const trace::MemRef &ref);
    void resetCounts();
    /** @} */

    /** Rescaled estimate: each weighted sum rounded to the nearest
     *  count. Bit-identical to the exact forest when every member
     *  is natural (p = 1.0, no lowering has fired). */
    onepass::GhostCounts counts(std::size_t config) const;

    const std::vector<onepass::GhostCacheSpec> &
    specs() const
    {
        return specs_;
    }

    /** Member's current keep rate miniSets / fullSets. */
    double effectiveRate(std::size_t config) const;

    /** Live tag lines across all mini arrays (what the adaptive
     *  budget bounds). */
    std::uint64_t liveLines() const;

    /** Times the adaptive shrink has fired (0 in fixed mode). */
    std::uint64_t generation() const { return generation_; }

  private:
    /** Weighted (1/p-scaled) counterpart of GhostCounts. */
    struct WeightedCounts
    {
        double reads = 0;
        double readMisses = 0;
        double extraAccesses = 0;
        double extraMisses = 0;
    };

    struct Member
    {
        std::uint64_t fullSets;
        std::uint64_t miniSets;
        /** log2(fullSets / miniSets); 0 when natural. */
        unsigned ratioLog2;
        /** fullSets / miniSets; exactly 1.0 when natural. */
        double weight;
        /** miniSets == fullSets: real set indexing, keep-all. */
        bool natural;
        std::uint64_t setMask;
        /** Per-member phase of the kept-set progression (derived
         *  from the spec), so members' kept-set subsets err
         *  independently. */
        std::uint64_t salt;
        onepass::GhostTagArray array;
    };

    /** Members sharing one block size share one address decode. */
    struct Group
    {
        unsigned blockShift;
        std::vector<std::size_t> members;
    };

    /** Which counter bucket an event lands in. None mirrors the
     *  exact forest's write(): tags change, no counter does. */
    enum class Count
    {
        Read,
        Extra,
        None,
    };

    void touch(std::uint64_t block, std::size_t m, bool install,
               Count count);
    void maybeShrink();
    void shrinkMember(Member &mem) const;
    static Member makeMember(const onepass::GhostCacheSpec &spec,
                             const SamplerConfig &sampler);

    std::vector<onepass::GhostCacheSpec> specs_;
    onepass::GhostPolicies policies_;
    std::uint64_t budget_;
    std::vector<Member> members_;
    std::vector<WeightedCounts> counts_;
    std::vector<Group> groups_;
    std::uint64_t events_ = 0;
    std::uint64_t generation_ = 0;
};

} // namespace mrc
} // namespace mlc

#endif // MLC_MRC_SAMPLED_GHOST_HH
