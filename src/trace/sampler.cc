#include "trace/sampler.hh"

#include "util/logging.hh"

namespace mlc {
namespace trace {

std::uint64_t
thresholdForRate(double rate)
{
    if (!(rate > 0.0) || rate > 1.0)
        mlc_panic("sampling rate ", rate,
                  " outside (0, 1]; use 1.0 for exact");
    if (rate >= 1.0)
        return kKeepAll;
    // long double carries the full 64-bit mantissa; clamp to at
    // least 1 so a pathologically tiny rate still keeps *some*
    // blocks rather than silently none.
    const long double t =
        static_cast<long double>(rate) * 18446744073709551616.0L;
    if (t < 1.0L)
        return 1;
    if (t >= 18446744073709551615.0L)
        return kKeepAll - 1;
    return static_cast<std::uint64_t>(t);
}

double
rateForThreshold(std::uint64_t threshold)
{
    if (threshold == kKeepAll)
        return 1.0;
    return static_cast<double>(
        static_cast<long double>(threshold) /
        18446744073709551616.0L);
}

SpatialSampler::SpatialSampler(double rate, std::uint64_t budget)
    : threshold_(thresholdForRate(rate)), budget_(budget)
{
}

void
SpatialSampler::lower()
{
    if (budget_ == 0)
        mlc_panic("SpatialSampler::lower: fixed-rate sampler has no "
                  "budget to adapt to");
    if (threshold_ == kKeepAll)
        threshold_ = kKeepAll / 2 + 1; // rate 1.0 -> rate 0.5
    else if (threshold_ > 1)
        threshold_ /= 2;
    ++generation_;
}

} // namespace trace
} // namespace mlc
