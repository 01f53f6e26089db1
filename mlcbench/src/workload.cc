#include "workload.hh"

#include <cstdio>
#include <iostream>

#include "ckpt/store.hh"
#include "trace/interleave.hh"
#include "trace/synthetic.hh"

namespace mlcbench {

double
Rounds::tracingOverhead() const
{
    std::vector<double> on, off;
    for (std::size_t i = 0; i < seconds.size(); ++i)
        (traced[i] ? on : off).push_back(seconds[i]);
    if (on.empty() || off.empty())
        return 0.0;
    return median(on) / median(off) - 1.0;
}

Rounds
timedRounds(const Options &opts,
            const std::function<void(std::size_t)> &round,
            const std::function<void()> &setUp)
{
    Rounds r;
    const std::size_t min_rounds = opts.trace ? 2 : 1;
    // One set-up ran before the phase; the k-th of the others is due
    // k / kSetups of the way through it. Their time stops the phase
    // clock.
    int setupsDone = 1;
    double paused = 0.0;
    const auto t0 = Clock::now();
    const auto phase = [&] { return secondsSince(t0) - paused; };
    const auto setUpOnce = [&] {
        tracer::enable(opts.trace);
        const auto s0 = Clock::now();
        setUp();
        paused += secondsSince(s0);
        ++setupsDone;
    };
    for (std::size_t i = 0; i < min_rounds || phase() < opts.seconds;
         ++i) {
        const bool traced = opts.trace && i % 2 == 1;
        tracer::enable(traced);
        const auto r0 = Clock::now();
        {
            Span span("bench.round");
            round(i);
        }
        r.seconds.push_back(secondsSince(r0));
        r.traced.push_back(traced);
        if (setupsDone < kSetups &&
            phase() >= opts.seconds * setupsDone / kSetups)
            setUpOnce();
    }
    while (setupsDone < kSetups)
        setUpOnce();
    tracer::enable(false);
    return r;
}

double
nsPerWork(const std::vector<SpanRecord> &spans, const char *name)
{
    const std::string want(name);
    double ns = 0.0, work = 0.0;
    for (const SpanRecord &s : spans) {
        if (want != s.name)
            continue;
        ns += static_cast<double>(s.endNs - s.startNs);
        work += static_cast<double>(s.work);
    }
    return work > 0.0 ? ns / work : 0.0;
}

void
reportTrace(const Options &opts, const Rounds &rounds, Report &rep)
{
    std::uint64_t dropped = 0;
    const std::vector<SpanRecord> spans = tracer::collect(&dropped);
    rep.metric("bench.tracing_overhead", rounds.tracingOverhead());

    const auto self = tracer::selfSecondsByLayer(spans);
    double total = 0.0;
    for (const auto &[layer, s] : self)
        total += s;
    std::cerr << "self time by layer (" << spans.size()
              << " spans, " << dropped << " dropped):\n";
    for (const auto &[layer, s] : self) {
        std::cerr << "  " << layer << ": " << s << " s\n";
        rep.metric(layer + ".self_frac", total > 0 ? s / total : 0);
    }
    rep.fact("spans", static_cast<double>(spans.size()));
    rep.check("no_spans_dropped", dropped == 0, "spans_dropped");
    if (!opts.traceOut.empty())
        rep.check("trace_written",
                  tracer::write(opts.traceOut, spans),
                  "trace_write_failed");
}

std::vector<mlc::trace::MemRef>
suiteTrace(const mlc::expt::TraceSpec &spec, std::uint64_t seed)
{
    using namespace mlc::trace;
    std::vector<std::unique_ptr<TraceSource>> procs;
    for (std::size_t i = 0; i < spec.processes; ++i) {
        const auto pid = static_cast<std::uint16_t>(i);
        // The same parameter draw makeMultiprogrammedWorkload makes
        // for this variant; only the streams are re-seeded.
        procs.push_back(std::make_unique<WorkloadGenerator>(
            makeProcessParams(pid, spec.variant * 131 + i),
            mixSeed(seed, spec.variant * 64 + i)));
    }
    Interleaver src(std::move(procs), spec.switchInterval,
                    mixSeed(seed, spec.variant * 64 + 63));
    return collect(src, spec.warmupRefs + spec.measureRefs);
}

mlc::expt::TraceStore
suiteStore(std::vector<mlc::expt::TraceSpec> specs, std::uint64_t seed,
           std::size_t jobs)
{
    mlc::expt::TraceStore store = mlc::expt::TraceStore::deferred(
        std::move(specs), [seed](const mlc::expt::TraceSpec &spec) {
            return suiteTrace(spec, seed);
        });
    store.ensureAll(jobs);
    return store;
}

void
fingerprintInputs(const std::vector<mlc::trace::RefSpan> &traces,
                  const std::string &extra, Report &rep)
{
    std::uint64_t h = mlc::ckpt::fnv64(
        reinterpret_cast<const std::uint8_t *>(extra.data()),
        extra.size());
    for (const mlc::trace::RefSpan &t : traces)
        h = h * 1099511628211ULL ^
            mlc::ckpt::traceFingerprint(t.data, t.size);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    rep.fact("input_fingerprint", buf);
}

} // namespace mlcbench
