#include "expt/workload_suite.hh"

#include <cstdlib>

#include "trace/interleave.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace expt {

std::vector<TraceSpec>
paperSuite()
{
    std::vector<TraceSpec> suite;
    // VAX-flavoured: heavier multiprogramming, OS-like churn.
    for (std::uint64_t v = 0; v < 4; ++v) {
        TraceSpec s;
        s.name = (v < 3 ? "vms" : "ultrix") + std::to_string(v);
        s.variant = v;
        s.processes = 6 + v % 2;
        s.switchInterval = 9000 + 2000 * v;
        suite.push_back(s);
    }
    // MIPS-flavoured: interleaved user programs.
    for (std::uint64_t v = 4; v < 8; ++v) {
        TraceSpec s;
        s.name = "mips" + std::to_string(v - 4);
        s.variant = v;
        s.processes = 4;
        s.switchInterval = 15000 + 3000 * (v - 4);
        suite.push_back(s);
    }
    return suite;
}

std::vector<TraceSpec>
gridSuite()
{
    const auto full = paperSuite();
    // Two of each flavour keeps the mix while quartering the cost
    // of the (size x cycle-time) grid sweeps.
    return {full[0], full[2], full[4], full[6]};
}

double
suiteScale()
{
    const char *quick = std::getenv("MLC_QUICK");
    if (!quick || quick[0] == '\0')
        return 1.0;
    double divisor = 0.0;
    if (parseDouble(quick, divisor) && divisor > 1.0)
        return 1.0 / divisor;
    return 0.125; // MLC_QUICK=1 (or junk): 8x shorter
}

std::uint64_t
scaledWarmup(const TraceSpec &spec)
{
    const auto scaled = static_cast<std::uint64_t>(
        static_cast<double>(spec.warmupRefs) * suiteScale());
    return scaled < 1000 ? 1000 : scaled;
}

std::uint64_t
scaledMeasure(const TraceSpec &spec)
{
    const auto scaled = static_cast<std::uint64_t>(
        static_cast<double>(spec.measureRefs) * suiteScale());
    return scaled < 2000 ? 2000 : scaled;
}

std::vector<trace::MemRef>
materialize(const TraceSpec &spec)
{
    auto source = trace::makeMultiprogrammedWorkload(
        spec.processes, spec.switchInterval, spec.variant);
    const std::uint64_t total =
        scaledWarmup(spec) + scaledMeasure(spec);
    return trace::collect(*source, total);
}

TraceStore::TraceStore(std::vector<TraceSpec> specs,
                       std::vector<std::vector<trace::MemRef>> traces)
    : specs_(std::move(specs)), traces_(std::move(traces))
{
}

TraceStore::TraceStore(std::vector<TraceSpec> specs, Materializer m)
    : specs_(std::move(specs)), traces_(specs_.size()),
      materializer_(std::move(m))
{
    latches_.reserve(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i)
        latches_.push_back(std::make_unique<OnceSlot>());
}

TraceStore
TraceStore::materialize(std::vector<TraceSpec> specs,
                        std::size_t jobs)
{
    std::vector<std::vector<trace::MemRef>> traces(specs.size());
    parallelFor(jobs, specs.size(), [&](std::size_t i) {
        traces[i] = expt::materialize(specs[i]);
    });
    return TraceStore(std::move(specs), std::move(traces));
}

TraceStore
TraceStore::deferred(std::vector<TraceSpec> specs, Materializer m)
{
    if (!m)
        m = [](const TraceSpec &spec) {
            return expt::materialize(spec);
        };
    return TraceStore(std::move(specs), std::move(m));
}

void
TraceStore::ensure(std::size_t i) const
{
    if (latches_.empty())
        return; // eager store: everything resident at construction
    if (i >= latches_.size())
        mlc_panic("TraceStore::ensure: trace ", i, " of ",
                  latches_.size());
    // The slot is the race arbiter: exactly one caller runs the
    // materializer, everyone else blocks until the stream is
    // resident (or rethrows what the materializer threw), and the
    // write to traces_[i] happens-before every post-latch read.
    latches_[i]->build([&] { traces_[i] = materializer_(specs_[i]); });
}

bool
TraceStore::resident(std::size_t i) const
{
    if (latches_.empty())
        return true;
    return latches_[i]->ready();
}

std::size_t
TraceStore::residentCount() const
{
    if (latches_.empty())
        return specs_.size();
    std::size_t n = 0;
    for (std::size_t i = 0; i < latches_.size(); ++i)
        if (resident(i))
            ++n;
    return n;
}

void
TraceStore::ensureAll(std::size_t jobs) const
{
    if (latches_.empty())
        return;
    parallelFor(jobs, specs_.size(),
                [this](std::size_t i) { ensure(i); });
}

} // namespace expt
} // namespace mlc
