#include "trace/stack_distance.hh"

#include <algorithm>
#include <cmath>

#include "util/bits.hh"
#include "util/logging.hh"

namespace mlc {
namespace trace {

StackDistanceAnalyzer::StackDistanceAnalyzer(std::uint64_t granule_bytes,
                                             double rate,
                                             std::uint64_t budget,
                                             std::uint64_t max_granules)
    : maxGranules_(max_granules), sampler_(rate, budget),
      exact_(sampler_.threshold() == kKeepAll && !sampler_.adaptive())
{
    if (granule_bytes == 0 || !isPowerOfTwo(granule_bytes))
        mlc_panic("StackDistanceAnalyzer: granule size must be a "
                  "power of two, got ",
                  granule_bytes, " bytes");
    if (max_granules == 0)
        mlc_panic("StackDistanceAnalyzer: max_granules must be "
                  "nonzero");
    granuleShift_ = exactLog2(granule_bytes);
    fenwick_.assign(1, 0);
}

void
StackDistanceAnalyzer::fenwickAdd(std::size_t pos, std::int64_t delta)
{
    for (std::size_t i = pos; i < fenwick_.size();
         i += i & (~i + 1))
        fenwick_[i] += delta;
}

std::int64_t
StackDistanceAnalyzer::fenwickPrefix(std::size_t pos) const
{
    std::int64_t sum = 0;
    for (std::size_t i = pos; i > 0; i -= i & (~i + 1))
        sum += fenwick_[i];
    return sum;
}

void
StackDistanceAnalyzer::compact()
{
    // Renumber live granules by recency order so the time axis
    // shrinks back to the footprint size.
    std::vector<std::pair<std::size_t, Addr>> order;
    order.reserve(last_.size());
    for (const auto &[granule, when] : last_)
        order.emplace_back(when, granule);
    std::sort(order.begin(), order.end());

    now_ = order.size();
    fenwick_.assign(2 * now_ + 2, 0);
    std::size_t t = 1;
    for (auto &[when, granule] : order) {
        last_[granule] = t;
        fenwickAdd(t, 1);
        ++t;
    }
}

std::uint64_t
StackDistanceAnalyzer::access(Addr addr)
{
    const Addr granule = addr >> granuleShift_;
    ++references_;

    double rate = 1.0;
    if (!exact_) {
        if (!sampler_.keep(hashBlock(granule)))
            return kNotSampled;
        rate = sampler_.rate();
    }
    ++sampledReferences_;
    const double weight = 1.0 / rate;
    totalW_ += weight;

    ++now_;
    if (now_ >= fenwick_.size()) {
        if (fenwick_.size() > 4 * (last_.size() + 1)) {
            compact();
            ++now_;
        } else {
            // A Fenwick tree cannot simply be zero-extended: the
            // new high-index nodes must cover existing marks, so
            // rebuild from the per-granule positions.
            fenwick_.assign(2 * fenwick_.size() + 2, 0);
            for (const auto &[live_granule, when] : last_) {
                (void)live_granule;
                fenwickAdd(when, 1);
            }
        }
    }

    auto it = last_.find(granule);
    std::uint64_t distance;
    if (it == last_.end()) {
        if (last_.size() >= maxGranules_)
            mlc_panic(
                "StackDistanceAnalyzer: trace footprint exceeds ",
                maxGranules_,
                " distinct granules; stack-distance state grows "
                "with the tracked footprint and would keep growing. "
                "Sample the stream (a rate below 1 or a budget; "
                "--engine=mrc in the CLIs) for traces this large, "
                "or raise the cap explicitly if the memory is "
                "truly available.");
        distance = kInfinite;
        infiniteW_ += weight;
    } else {
        // Marks strictly after the previous access are exactly the
        // distinct kept granules touched in between; each stands
        // for 1/p distinct full-stream granules.
        const std::int64_t between =
            fenwickPrefix(now_ - 1) - fenwickPrefix(it->second);
        distance = exact_ ? static_cast<std::uint64_t>(between)
                          : static_cast<std::uint64_t>(std::llround(
                                static_cast<double>(between) / rate));
        fenwickAdd(it->second, -1);
        if (distance < kExactLimit) {
            if (distance >= distanceW_.size())
                distanceW_.resize(
                    static_cast<std::size_t>(distance) + 1, 0.0);
            distanceW_[static_cast<std::size_t>(distance)] += weight;
        } else {
            overLimitW_ += weight;
        }
    }

    fenwickAdd(now_, 1);
    last_[granule] = now_;

    if (sampler_.adaptive() && last_.size() > sampler_.budget())
        enforceBudget();
    return distance;
}

void
StackDistanceAnalyzer::enforceBudget()
{
    // Halve the filter until the kept live set fits; a lowering
    // only ever narrows the filter, so this evicts, never refills.
    while (last_.size() > sampler_.budget() &&
           sampler_.threshold() > 1) {
        sampler_.lower();
        for (auto it = last_.begin(); it != last_.end();) {
            if (!sampler_.keep(hashBlock(it->first))) {
                fenwickAdd(it->second, -1);
                it = last_.erase(it);
            } else {
                ++it;
            }
        }
    }
}

std::uint64_t
StackDistanceAnalyzer::compulsory() const
{
    return static_cast<std::uint64_t>(std::llround(infiniteW_));
}

double
StackDistanceAnalyzer::missRatio(std::uint64_t capacity_granules) const
{
    if (capacity_granules >= kExactLimit)
        mlc_panic("StackDistanceAnalyzer::missRatio beyond exact "
                  "tracking limit");
    if (totalW_ == 0.0)
        return 0.0;
    double misses = infiniteW_ + overLimitW_;
    for (std::size_t d = static_cast<std::size_t>(capacity_granules);
         d < distanceW_.size(); ++d)
        misses += distanceW_[d];
    return misses / totalW_;
}

} // namespace trace
} // namespace mlc
