/**
 * @file
 * Spatially-hashed reference sampling (the SHARDS construction).
 *
 * A reference stream is sampled *by block*, not by position: block
 * b is kept iff fnv(b) < p * 2^64. Because the filter is a pure
 * function of the block address, every reference to a kept block is
 * kept — which preserves reuse structure exactly on the sampled
 * subset — and any count accumulated over the subset is unbiased
 * after scaling by 1/p. That one property is what lets miss-ratio
 * curves over arbitrarily long traces fit in O(sample) memory
 * (Waldspurger et al., "Efficient MRC Construction with SHARDS").
 *
 * Two modes:
 *
 *  - fixed-rate: the threshold never moves; memory is O(p * blocks)
 *    and the caller picks p.
 *  - adaptive (budget s_max > 0): start at the configured rate and
 *    halve the threshold whenever the tracked live set outgrows the
 *    budget. Every lowering strictly shrinks the kept-block set
 *    (h < T/2 implies h < T), so an owner only ever *evicts* on a
 *    lowering, never back-fills — the correctness argument DESIGN.md
 *    §5i spells out. Counts recorded before a lowering keep their
 *    old 1/p weight ("per-ref effective rate").
 *
 * The hash is deterministic and seedless: two runs over the same
 * trace sample identical subsets, so sampled results are exactly
 * reproducible — the same discipline the rest of the repo's
 * bit-identity gates rely on.
 */

#ifndef MLC_TRACE_SAMPLER_HH
#define MLC_TRACE_SAMPLER_HH

#include <cstdint>

namespace mlc {
namespace trace {

/** Threshold meaning "keep everything" (rate 1.0). A real
 *  comparison threshold never takes this value: rates below 1.0
 *  map to at most 2^64 - 2^11. */
constexpr std::uint64_t kKeepAll = ~std::uint64_t{0};

/** 64-bit FNV-1a over the 8 little-endian bytes of a block number.
 *  Cheap, well-mixed in the low and high bits, and already the
 *  repo's checksum/fingerprint hash family. */
inline std::uint64_t
hashBlock(std::uint64_t block)
{
    std::uint64_t h = 14695981039346656037ull;
    for (int i = 0; i < 8; ++i) {
        h ^= (block >> (i * 8)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

/** p * 2^64 as a comparison threshold; kKeepAll for p >= 1.
 *  Panics on p <= 0 or p > 1. */
std::uint64_t thresholdForRate(double rate);

/** The effective rate a threshold implements (1.0 for kKeepAll). */
double rateForThreshold(std::uint64_t threshold);

/** The hash filter itself: threshold + adaptive bookkeeping. */
class SpatialSampler
{
  public:
    /**
     * @param rate initial sampling rate p in (0, 1]; panics outside.
     * @param budget SHARDS-adaptive live-set budget s_max; 0 =
     *        fixed-rate. With a budget the owner halves the
     *        threshold (lower()) whenever it holds more than s_max
     *        live sampled blocks.
     */
    explicit SpatialSampler(double rate, std::uint64_t budget = 0);

    /** Keep a block with this hash? */
    bool
    keep(std::uint64_t hash) const
    {
        return threshold_ == kKeepAll || hash < threshold_;
    }

    /** Current effective rate (monotonically non-increasing). */
    double rate() const { return rateForThreshold(threshold_); }

    std::uint64_t threshold() const { return threshold_; }

    bool adaptive() const { return budget_ != 0; }
    std::uint64_t budget() const { return budget_; }

    /** Bumped on every lowering; owners detect a change and prune
     *  entries whose hash no longer passes keep(). */
    std::uint64_t generation() const { return generation_; }

    /**
     * Halve the threshold (adaptive mode only; panics in fixed
     * mode). Every kept set after the call is a strict subset of
     * the kept set before it.
     */
    void lower();

  private:
    std::uint64_t threshold_;
    std::uint64_t budget_;
    std::uint64_t generation_ = 0;
};

} // namespace trace
} // namespace mlc

#endif // MLC_TRACE_SAMPLER_HH
