/**
 * @file
 * LRU stack-distance analysis of a reference stream, exact or
 * spatially sampled.
 *
 * The stack distance of a reference is the number of *distinct*
 * granules referenced since the previous reference to the same
 * granule (0 = immediate re-reference; first touches are
 * "infinite"). The distance profile determines the miss ratio of a
 * fully-associative LRU cache of any size in one pass, which is how
 * the calibration tests check that the synthetic traces show the
 * paper's miss-ratio-vs-size behaviour.
 *
 * Implementation: Fenwick tree over access times with one mark per
 * granule at its most recent access; distance queries and updates
 * are O(log T). The time axis is compacted when it grows far beyond
 * the number of live granules, keeping memory proportional to the
 * footprint rather than the trace length.
 *
 * Exact (rate 1, no budget): every granule is tracked and every
 * count is exact. Granules are never forgotten, so memory grows
 * with the *footprint* (one hash-map entry plus one Fenwick slot
 * per distinct granule, ~100 bytes each), not with the trace
 * length: a trace touching 1G distinct 16-byte granules wants
 * ~100GB. The analyzer panics when the tracked footprint exceeds a
 * configurable cap rather than driving the machine into swap.
 *
 * Sampled (any other rate or budget): the SHARDS construction
 * (trace/sampler.hh). Only granules whose hash passes the spatial
 * filter enter the tree, the measured distance (distinct *sampled*
 * granules between reuses) is scaled up by 1/p, and every kept
 * reference contributes weight 1/p to a weighted histogram, so
 *
 *   missRatio(c) = (W_inf + W_over + sum_{d >= c} W[d]) / W_total
 *
 * is an unbiased estimate of the full-stream FA-LRU miss ratio at
 * capacity c. Under adaptive lowering (budget > 0) each reference
 * carries the reciprocal of the rate in force when it was seen, and
 * whenever the live sampled footprint exceeds the budget the filter
 * halves and granules that no longer pass are evicted — memory is
 * O(budget) regardless of trace footprint. At rate 1 the filter
 * keeps everything with weight exactly 1.0, so an adaptive analyzer
 * matches the exact one bit for bit until its first lowering.
 */

#ifndef MLC_TRACE_STACK_DISTANCE_HH
#define MLC_TRACE_STACK_DISTANCE_HH

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "trace/mem_ref.hh"
#include "trace/sampler.hh"

namespace mlc {
namespace trace {

/** Online LRU stack-distance profiler. */
class StackDistanceAnalyzer
{
  public:
    /** Distance reported for a (kept) granule's first reference. */
    static constexpr std::uint64_t kInfinite =
        std::numeric_limits<std::uint64_t>::max();
    /** Reported when the sampling filter drops the granule. */
    static constexpr std::uint64_t kNotSampled = kInfinite - 1;

    /** Default footprint cap: 2^28 granules is ~25GB of tracking
     *  state — past any plausible deliberate use of the exact
     *  analyzer, hit well before the OOM killer would be. */
    static constexpr std::uint64_t kDefaultMaxGranules = 1u << 28;

    /**
     * @param granule_bytes addresses are collapsed to granules of
     *        this (power-of-two) size before analysis.
     * @param rate initial sampling rate p in (0, 1]; 1 = every
     *        granule.
     * @param budget adaptive live-granule budget; 0 = fixed rate.
     * @param max_granules panic (loudly, with a pointer at
     *        sampling) when the tracked footprint exceeds this;
     *        without sampling the analyzer's memory is proportional
     *        to it and unbounded otherwise.
     */
    explicit StackDistanceAnalyzer(
        std::uint64_t granule_bytes = 16, double rate = 1.0,
        std::uint64_t budget = 0,
        std::uint64_t max_granules = kDefaultMaxGranules);

    /**
     * Record one reference.
     * @return its stack distance (1/p-scaled when sampling),
     *         kInfinite for a first touch, or kNotSampled when the
     *         filter drops the granule.
     */
    std::uint64_t access(Addr addr);

    /** All references offered (kept or not). */
    std::uint64_t references() const { return references_; }

    /** References that passed the filter (all of them when exact). */
    std::uint64_t
    sampledReferences() const
    {
        return sampledReferences_;
    }

    /** Live tracked granules: the footprint when exact, what the
     *  adaptive budget bounds when sampling. */
    std::uint64_t distinctGranules() const { return last_.size(); }

    /** First-touch (compulsory-miss) references, scaled by 1/p when
     *  sampling: the stream's distinct granules, exact at rate 1. */
    std::uint64_t compulsory() const;

    /** Current sampling rate (non-increasing in adaptive mode). */
    double rate() const { return sampler_.rate(); }

    /**
     * Miss ratio of a fully-associative LRU cache holding
     * @p capacity_granules granules, over the stream seen so far:
     * the weight of references with distance >= capacity (plus
     * first touches) over the weight of all kept references; 0
     * when nothing was kept. Panics at or beyond the exact
     * tracking limit.
     */
    double missRatio(std::uint64_t capacity_granules) const;

  private:
    void fenwickAdd(std::size_t pos, std::int64_t delta);
    std::int64_t fenwickPrefix(std::size_t pos) const;
    void compact();
    void enforceBudget();

    std::uint64_t granuleShift_;
    std::uint64_t maxGranules_;
    SpatialSampler sampler_;
    /** Rate 1 and no budget: no hash, no scaling. */
    bool exact_;
    std::uint64_t references_ = 0;
    std::uint64_t sampledReferences_ = 0;

    // Fenwick tree over kept time slots, 1-based positions.
    std::vector<std::int64_t> fenwick_;
    std::size_t now_ = 0;
    std::unordered_map<Addr, std::size_t> last_;

    // Weight per (scaled) distance, grown on demand up to
    // kExactLimit; distances beyond the limit are lumped into
    // overLimitW_. This makes missRatio() exact for any capacity
    // below the limit. Exact weights are 1.0, so the sums stay
    // exact integers.
    std::vector<double> distanceW_;
    double overLimitW_ = 0;
    double infiniteW_ = 0;
    double totalW_ = 0;
    static constexpr std::size_t kExactLimit = 1u << 22;
};

} // namespace trace
} // namespace mlc

#endif // MLC_TRACE_STACK_DISTANCE_HH
