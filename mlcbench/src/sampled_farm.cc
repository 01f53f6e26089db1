/**
 * @file
 * sampled_farm: the sampled engine's checkpointed L2 sweep on the
 * write-through, no-allocate L1 machine. A request is one farm
 * cycle: a build pass into an empty ckpt::CheckpointStore farm
 * (functional warming, snapshot encode, publish), then a load pass
 * from that farm (open, verify, decode) that must give the same
 * grid. The timed windows are store-heavy (write buffers, memory
 * writes) where grid_timing is read-miss-heavy, and the farm is
 * written and then read, so a gain on one path that costs the other
 * shows.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "ckpt/store.hh"
#include "hier/config_file.hh"
#include "hier/hierarchy.hh"
#include "sample/sweep.hh"
#include "workload.hh"

namespace mlcbench {

namespace {

using namespace mlc;
namespace fs = std::filesystem;

/** Farm trace id of store trace @p t. */
std::string
traceIdOf(const expt::TraceStore &store, std::size_t t)
{
    return "farm/" + store.specs()[t].name;
}

/** One pass over every trace: per-config results, trace-major. */
struct Pass
{
    std::vector<sample::SweepResult> sweeps;
    double seconds = 0.0;

    /** Suite-mean relative execution time per config, reduced in
     *  trace order as sample::buildGridCheckpointed does. */
    std::vector<double>
    grid() const
    {
        std::vector<double> acc(sweeps[0].perConfig.size(), 0.0);
        for (const sample::SweepResult &s : sweeps)
            for (std::size_t c = 0; c < acc.size(); ++c)
                acc[c] += s.perConfig[c].estRelExecTime;
        for (double &v : acc)
            v /= static_cast<double>(sweeps.size());
        return acc;
    }
};

Pass
runPass(const char *name,
        const std::vector<hier::HierarchyParams> &configs,
        const expt::TraceStore &store,
        const sample::SampledOptions &sopts, std::size_t jobs,
        ckpt::CheckpointStore &farm)
{
    Pass pass;
    Span span(name);
    const auto t0 = Clock::now();
    for (std::size_t t = 0; t < store.size(); ++t) {
        sample::CheckpointPolicy policy;
        policy.store = &farm;
        policy.traceId = traceIdOf(store, t);
        Span sweep("sample.runSweepCheckpointed");
        sweep.setWork(1);
        pass.sweeps.push_back(sample::runSweepCheckpointed(
            configs, store.span(t), sopts, jobs, nullptr, policy));
    }
    pass.seconds = secondsSince(t0);
    return pass;
}

bool
sameResults(const Pass &a, const Pass &b)
{
    for (std::size_t t = 0; t < a.sweeps.size(); ++t)
        for (std::size_t c = 0; c < a.sweeps[t].perConfig.size(); ++c) {
            const sample::SampledResult &x = a.sweeps[t].perConfig[c];
            const sample::SampledResult &y = b.sweeps[t].perConfig[c];
            if (x.estRelExecTime != y.estRelExecTime ||
                x.windowCpiValues != y.windowCpiValues ||
                x.cpiInterval.halfWidth != y.cpiInterval.halfWidth)
                return false;
        }
    return true;
}

std::vector<char>
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

} // namespace

void
runSampledFarm(const Options &opts, Report &rep)
{
    const std::uint64_t refs = opts.tiny ? 120'000 : 1'000'000;
    const hier::HierarchyParams base = hier::parseConfigFile(
        opts.root + "/examples/configs/writethrough_l1.cfg");
    const std::vector<std::uint64_t> sizes = {
        64u << 10, 128u << 10, 256u << 10, 512u << 10, 1u << 20,
        2u << 20};
    const std::vector<std::uint32_t> cycles = {2, 6};
    std::vector<hier::HierarchyParams> configs;
    for (const std::uint64_t s : sizes)
        for (const std::uint32_t c : cycles)
            configs.push_back(base.withL2(s, c));

    // A skip-heavy schedule: 100 windows per trace, 60% of each
    // period warmed functionally (what the farm saves), a short
    // detailed warm and measurement.
    sample::SampledOptions sopts;
    sopts.period = refs / 100;
    sopts.measureRefs = opts.tiny ? 200 : 1'000;
    sopts.detailWarmRefs = opts.tiny ? 100 : 500;
    sopts.functionalWarmRefs = sopts.period * 3 / 5;

    std::vector<expt::TraceSpec> specs = expt::gridSuite();
    specs.resize(2);
    for (expt::TraceSpec &s : specs) {
        s.warmupRefs = 1000; // the sampled engine replays the whole span
        s.measureRefs = refs - 1000;
    }

    // --- set-up: materialize the traces, create a farm root.
    std::vector<double> setups;
    const auto setUp = [&](const char *root) {
        fs::remove_all(root);
        const auto t0 = Clock::now();
        std::unique_ptr<expt::TraceStore> s;
        {
            Span span("expt.materialize");
            span.setWork(specs.size() * refs);
            s = std::make_unique<expt::TraceStore>(
                suiteStore(specs, opts.seed, opts.jobs));
        }
        fs::create_directory(root);
        setups.push_back(secondsSince(t0));
        return s;
    };
    tracer::enable(opts.trace);
    const std::unique_ptr<expt::TraceStore> store = setUp("farms");
    tracer::enable(false);

    // --- timed phase: one build + load farm cycle per round.
    std::vector<Pass> builds, loads;
    std::vector<double> latencies, loadRates;
    std::uint64_t fallbacks = 0, fromFile = 0, published = 0;
    const Rounds rounds = timedRounds(opts, [&](std::size_t round) {
        const auto t0 = Clock::now();
        if (round > 0)
            fs::remove_all("farms/" + std::to_string(round - 1));
        ckpt::CheckpointStore farm("farms/" + std::to_string(round));
        builds.push_back(runPass("sample.farm_build", configs, *store,
                                 sopts, opts.jobs, farm));
        loads.push_back(runPass("sample.farm_load", configs, *store,
                                sopts, opts.jobs, farm));
        for (const sample::SweepResult &s : builds.back().sweeps)
            published += s.builtCheckpointFile ? 1 : 0;
        for (const sample::SweepResult &s : loads.back().sweeps) {
            fromFile += s.fromCheckpointFile ? 1 : 0;
            fallbacks += s.checkpointFallback.empty() ? 0u : 1u;
        }
        latencies.push_back(secondsSince(t0) * 1e6);
        loadRates.push_back(static_cast<double>(configs.size()) /
                            loads.back().seconds);
    }, [&] { (void)setUp("farms-setup"); });
    const std::size_t n = rounds.seconds.size();
    rep.operations(2 * configs.size() * n);
    rep.fact("trace_refs", static_cast<double>(refs));
    rep.fact("traces", static_cast<double>(specs.size()));
    rep.fact("configs", static_cast<double>(configs.size()));
    rep.fact("rounds", static_cast<double>(n));
    rep.fact("latency_samples", static_cast<double>(latencies.size()));
    std::vector<trace::RefSpan> inputs;
    for (std::size_t t = 0; t < store->size(); ++t)
        inputs.push_back(store->span(t));
    fingerprintInputs(inputs, "", rep);

    // --- checks.
    bool loadEqualsBuild = true, repeat = true;
    for (std::size_t r = 0; r < n; ++r) {
        loadEqualsBuild = loadEqualsBuild && sameResults(builds[r], loads[r]);
        repeat = repeat && sameResults(builds[r], builds[0]);
    }
    rep.check("farm_load_equals_build", loadEqualsBuild, "grid_mismatch");
    rep.check("farm_rounds_repeat_identically", repeat, "grid_changed");
    rep.check("farm_built_and_loaded",
              published == n * specs.size() &&
                  fromFile == n * specs.size(),
              "checkpoint_not_used");
    rep.check("farm_no_fallbacks", fallbacks == 0, "fallback");

    const std::string lastFarm = "farms/" + std::to_string(n - 1);
    ckpt::CheckpointStore farm(lastFarm);
    const expt::DesignSpaceGrid lib = sample::buildGridCheckpointed(
        base, sizes, cycles, *store, sopts, opts.jobs, &farm, "farm");
    const std::vector<double> mine = loads[0].grid();
    bool libEqual = true;
    for (std::size_t s = 0; s < sizes.size(); ++s)
        for (std::size_t c = 0; c < cycles.size(); ++c)
            libEqual = libEqual &&
                       lib.at(s, c) == mine[s * cycles.size() + c];
    rep.check("grid_equals_library_buildGridCheckpointed", libEqual,
              "grid_mismatch");
    rep.check("farm_load_jobs1_equals_jobsN",
              sameResults(runPass("sample.farm_load", configs, *store,
                                  sopts, 1, farm),
                          loads[0]),
              "jobs_changed_results");

    // The widest relative CI half-width (sampled_ci_max), and the
    // mean over every (config, trace) result, which varies far less
    // from one trace to the next.
    double ciMax = 0.0, ciSum = 0.0;
    std::size_t results = 0;
    for (const sample::SweepResult &s : loads[0].sweeps)
        for (const sample::SampledResult &r : s.perConfig) {
            ciMax = std::max(ciMax, r.cpiInterval.relativeHalfWidth());
            ciSum += r.cpiInterval.relativeHalfWidth();
            ++results;
        }

    if (!opts.trace) {
        rep.metric("setup_s", median(setups));
        rep.metric("cells_per_s", median(loadRates));
        std::vector<double> qps;
        for (const double us : latencies)
            qps.push_back(1e6 / us);
        rep.metric("qps", median(qps));
        rep.metric("p50_us", percentile(latencies, 50));
        rep.metric("p99_us", tail(latencies, rep));
        rep.metric("err", ciSum / static_cast<double>(results));
        return;
    }

    // --- traced run: probe the codec and the functional simulator.
    tracer::enable(true);
    std::uint64_t farmBytes = 0, windows = 0;
    bool roundTrip = true;
    for (std::size_t t = 0; t < store->size(); ++t) {
        for (const ckpt::FarmEntry &e : farm.list(traceIdOf(*store, t))) {
            if (!e.ok) {
                roundTrip = false;
                continue;
            }
            farmBytes += e.meta.fileBytes;
            ckpt::CheckpointReader reader;
            std::vector<std::vector<hier::BoundaryOp>> ops;
            std::vector<hier::WarmSnapshot> snaps;
            std::vector<SnapshotArena> arenas;
            {
                Span span("ckpt.decode");
                span.setWork(e.meta.fileBytes);
                std::string err;
                roundTrip = reader.open(e.path, &err) && roundTrip;
                const std::size_t w = reader.meta().windows;
                ops.resize(w);
                snaps.resize(w);
                arenas.resize(w);
                for (std::size_t i = 0; i < w; ++i)
                    roundTrip = reader.loadWindow(i, ops[i], snaps[i],
                                                  arenas[i]) &&
                                roundTrip;
            }
            windows += reader.meta().windows;
            const std::string copy = e.path + ".reencoded";
            {
                Span span("ckpt.encode");
                span.setWork(e.meta.fileBytes);
                ckpt::CheckpointWriter writer(reader.meta().key,
                                              reader.meta().totalRefs,
                                              reader.meta().traceFingerprint);
                for (std::size_t i = 0; i < ops.size(); ++i)
                    writer.addWindow(ops[i], snaps[i], arenas[i]);
                std::string err;
                roundTrip = writer.finalize(copy, &err) != 0 && roundTrip;
            }
            roundTrip = roundTrip && fileBytes(copy) == fileBytes(e.path);
        }
    }
    rep.check("ckpt_decode_encode_round_trip", roundTrip && windows > 0,
              "bytes_differ");
    {
        hier::HierarchySimulator sim(configs[0]);
        Span span("hier.runFunctional");
        span.setWork(refs);
        sim.runFunctional(store->span(0));
    }
    {
        Span span("trace.generate");
        span.setWork(refs);
        (void)suiteTrace(specs.front(), opts.seed);
    }
    tracer::enable(false);

    const std::vector<SpanRecord> spans = tracer::collect();
    const sample::SampledResult &first = loads[0].sweeps[0].perConfig[0];
    const sample::SampledResult &built = builds[0].sweeps[0].perConfig[0];
    std::vector<double> buildSeconds, loadSeconds;
    for (std::size_t r = 0; r < n; ++r) {
        buildSeconds.push_back(builds[r].seconds);
        loadSeconds.push_back(loads[r].seconds);
    }
    rep.metric("expt.materialize_s", median(setups));
    rep.metric("trace.gen_ns_per_ref", nsPerWork(spans, "trace.generate"));
    rep.metric("hier.functional_ns_per_ref",
               nsPerWork(spans, "hier.runFunctional"));
    rep.metric("sample.sweep_s",
               nsPerWork(spans, "sample.runSweepCheckpointed") * 1e-9);
    rep.metric("sample.farm_build_s", median(buildSeconds));
    rep.metric("sample.farm_load_s", median(loadSeconds));
    rep.metric("sample.windows",
               static_cast<double>(first.windowCpiValues.size()));
    rep.metric("sample.replayed_frac",
               static_cast<double>(built.refsMeasured +
                                   built.refsDetailWarmed +
                                   built.refsFunctionalWarmed) /
                   static_cast<double>(built.refsTotal));
    rep.metric("sample.ci_max", ciMax);
    rep.metric("ckpt.encode_mb_per_s",
               1e3 / nsPerWork(spans, "ckpt.encode"));
    rep.metric("ckpt.decode_mb_per_s",
               1e3 / nsPerWork(spans, "ckpt.decode"));
    rep.metric("ckpt.farm_bytes", static_cast<double>(farmBytes));
    rep.metric("ckpt.loads", static_cast<double>(fromFile) /
                                 static_cast<double>(n));
    rep.metric("ckpt.fallbacks", static_cast<double>(fallbacks));
    reportTrace(opts, rounds, rep);
}

} // namespace mlcbench
