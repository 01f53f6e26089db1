/**
 * @file
 * grid_timing: the Fig 4-1 grid (11 L2 sizes x 10 L2 cycle times)
 * on the base write-back machine, priced cell by cell by the timing
 * simulator through the library's store-driven
 * expt::parallelBuildGrid. A request is one cell: a worker runs
 * expt::runSuite for the cell's machine over every suite trace, so
 * trace replay and the simulator's read-miss path do nearly all the
 * work. The one-pass grid of the same store is built once, after
 * the timed phase, for err_max (modelled against simulated time).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>

#include "expt/design_space.hh"
#include "expt/runner.hh"
#include "hier/hierarchy.hh"
#include "onepass/grid.hh"
#include "onepass/validate.hh"
#include "util/thread_pool.hh"
#include "workload.hh"

namespace mlcbench {

namespace {

using namespace mlc;

/** The grid suite's four traces at fixed lengths. */
std::vector<expt::TraceSpec>
suiteFor(std::uint64_t warm, std::uint64_t measure)
{
    std::vector<expt::TraceSpec> specs = expt::gridSuite();
    for (expt::TraceSpec &s : specs) {
        s.warmupRefs = warm;
        s.measureRefs = measure;
    }
    return specs;
}

bool
sameCells(const expt::DesignSpaceGrid &sub,
          const expt::DesignSpaceGrid &full)
{
    for (std::size_t s = 0; s < sub.sizes().size(); ++s) {
        const auto fs = static_cast<std::size_t>(
            std::find(full.sizes().begin(), full.sizes().end(),
                      sub.sizes()[s]) -
            full.sizes().begin());
        for (std::size_t c = 0; c < sub.cycles().size(); ++c) {
            const auto fc = static_cast<std::size_t>(
                std::find(full.cycles().begin(), full.cycles().end(),
                          sub.cycles()[c]) -
                full.cycles().begin());
            if (sub.at(s, c) != full.at(fs, fc))
                return false;
        }
    }
    return true;
}

} // namespace

void
runGridTiming(const Options &opts, Report &rep)
{
    const std::uint64_t warm = opts.tiny ? 4'000 : 40'000;
    const std::uint64_t measure = opts.tiny ? 12'000 : 160'000;
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const std::vector<std::uint64_t> sizes = expt::paperSizes();
    const std::vector<std::uint32_t> cycles = expt::paperCycles();
    const auto machineFor = [&](std::uint64_t size,
                                std::uint32_t cyc) {
        return base.withL2(size, cyc);
    };
    const std::vector<expt::TraceSpec> specs = suiteFor(warm, measure);

    // --- set-up: materialize the suite.
    std::vector<double> setups;
    const auto setUp = [&] {
        const auto t0 = Clock::now();
        Span span("expt.materialize");
        span.setWork(specs.size() * (warm + measure));
        auto s = std::make_unique<expt::TraceStore>(
            suiteStore(specs, opts.seed, opts.jobs));
        setups.push_back(secondsSince(t0));
        return s;
    };
    tracer::enable(opts.trace);
    const std::unique_ptr<expt::TraceStore> store = setUp();
    tracer::enable(false);

    // --- timed phase: whole grids through the library's store-driven
    // parallelBuildGrid. A request is one cell; its latency is the
    // interval between the library's successive machineFor calls on
    // one worker. A worker's last cell of a grid has no successor
    // call and is not sampled.
    std::vector<double> latencies;
    std::vector<double> gridSeconds;
    std::vector<expt::DesignSpaceGrid> grids;
    const Rounds rounds = timedRounds(opts, [&](std::size_t) {
        std::mutex mu;
        std::map<std::thread::id, Clock::time_point> cellStart;
        const auto t0 = Clock::now();
        Span span("expt.parallelBuildGrid");
        span.setWork(sizes.size() * cycles.size());
        expt::DesignSpaceGrid grid = expt::parallelBuildGrid(
            sizes, cycles, *store,
            [&](std::uint64_t size, std::uint32_t cyc) {
                const auto now = Clock::now();
                std::lock_guard<std::mutex> lk(mu);
                const auto [it, first] = cellStart.try_emplace(
                    std::this_thread::get_id(), now);
                if (!first) {
                    latencies.push_back(
                        std::chrono::duration<double, std::micro>(
                            now - it->second)
                            .count());
                    it->second = now;
                }
                return machineFor(size, cyc);
            },
            opts.jobs);
        gridSeconds.push_back(secondsSince(t0));
        grids.push_back(std::move(grid));
    }, [&] { (void)setUp(); });
    const std::size_t cells = sizes.size() * cycles.size();
    rep.operations(cells * grids.size());
    rep.fact("trace_refs", static_cast<double>(warm + measure));
    rep.fact("trace_warmup_refs", static_cast<double>(warm));
    rep.fact("traces", static_cast<double>(specs.size()));
    rep.fact("grids", static_cast<double>(grids.size()));
    rep.fact("latency_samples", static_cast<double>(latencies.size()));
    std::vector<trace::RefSpan> inputs;
    for (std::size_t t = 0; t < store->size(); ++t)
        inputs.push_back(store->span(t));
    fingerprintInputs(inputs, "", rep);

    // --- checks.
    bool repeat = true;
    for (const expt::DesignSpaceGrid &g : grids)
        repeat = repeat && sameCells(g, grids.front());
    rep.check("grid_repeats_identically", repeat, "grid_changed");

    // The grid at jobs = 1, on corner and middle cells, equals the
    // timed grids at jobs = N.
    const std::vector<std::uint64_t> sub_sizes = {
        sizes.front(), sizes[sizes.size() / 2], sizes.back()};
    const std::vector<std::uint32_t> sub_cycles = {cycles.front(),
                                                   cycles.back()};
    const expt::DesignSpaceGrid lib1 = expt::parallelBuildGrid(
        sub_sizes, sub_cycles, *store, machineFor, 1);
    rep.check("grid_jobs1_equals_jobsN", sameCells(lib1, grids.front()),
              "jobs_changed_grid");

    // One-pass read miss counts equal the simulator's, on a prefix
    // of every trace.
    const expt::TraceStore prefix =
        suiteStore(suiteFor(warm / 4, measure / 8), opts.seed, opts.jobs);
    const onepass::CrossCheckReport cc = onepass::crossCheck(
        base, onepass::FamilySpec::l2Grid(base, sub_sizes), prefix,
        opts.jobs, true);
    rep.check("onepass_counts_equal_timing", cc.allMatch(),
              "count_mismatch");

    const expt::DesignSpaceGrid modelled =
        onepass::buildGrid(base, sizes, cycles, *store, opts.jobs);
    double err = 0.0;
    for (std::size_t s = 0; s < sizes.size(); ++s)
        for (std::size_t c = 0; c < cycles.size(); ++c) {
            const double t = grids.front().at(s, c);
            err = std::max(err, std::fabs(modelled.at(s, c) - t) / t);
        }

    if (!opts.trace) {
        rep.metric("setup_s", median(setups));
        std::vector<double> rates;
        for (const double s : gridSeconds)
            rates.push_back(static_cast<double>(cells) / s);
        rep.metric("cells_per_s", median(rates));
        rep.metric("qps", median(rates));
        rep.metric("p50_us", percentile(latencies, 50));        rep.metric("p99_us", tail(latencies, rep));
        rep.metric("err", err);
        return;
    }

    // --- traced run: layer probes and per-layer metrics.
    // Deterministic simulator counts of one grid, every (cell, trace)
    // pair run once more through runOnTrace.
    std::vector<hier::SimResults> sims(cells * store->size());
    parallelFor(opts.jobs, sims.size(), [&](std::size_t i) {
        const std::size_t cell = i / store->size();
        const std::size_t t = i % store->size();
        sims[i] = expt::runOnTrace(
            machineFor(sizes[cell / cycles.size()],
                       cycles[cell % cycles.size()]),
            store->span(t), expt::scaledWarmup(store->specs()[t]));
    });
    double refsSimulated = 0, l1Reads = 0, l1ReadMisses = 0,
           l2ReadMisses = 0, writebacks = 0;
    for (const hier::SimResults &r : sims) {
        refsSimulated += static_cast<double>(r.references);
        l1Reads += static_cast<double>(r.levels[0].readRequests);
        l1ReadMisses += static_cast<double>(r.levels[0].readMisses);
        l2ReadMisses += static_cast<double>(r.levels[1].readMisses);
        for (const hier::LevelResults &lv : r.levels)
            writebacks += static_cast<double>(lv.writebacks);
    }

    tracer::enable(true);
    {
        Span span("trace.generate");
        span.setWork(warm + measure);
        (void)suiteTrace(specs.front(), opts.seed);
    }
    // HierarchySimulator::run on the middle cell of the grid, over
    // every suite trace, one worker.
    const hier::HierarchyParams middle =
        machineFor(sizes[sizes.size() / 2], cycles[cycles.size() / 2]);
    for (std::size_t t = 0; t < store->size(); ++t) {
        const trace::RefSpan refs = store->span(t);
        const std::uint64_t w = expt::scaledWarmup(store->specs()[t]);
        hier::HierarchySimulator sim(middle);
        sim.warmUp(refs.first(w));
        Span span("hier.run");
        span.setWork(refs.size - w);
        sim.run(refs.dropFirst(w));
    }
    tracer::enable(false);
    const std::vector<SpanRecord> spans = tracer::collect();
    rep.metric("trace.gen_ns_per_ref",
               nsPerWork(spans, "trace.generate"));
    rep.metric("expt.materialize_s", median(setups));
    rep.metric("hier.sim_ns_per_ref", nsPerWork(spans, "hier.run"));
    rep.metric("hier.refs_simulated", refsSimulated);
    rep.metric("hier.l1_hit_frac", 1.0 - l1ReadMisses / l1Reads);
    rep.metric("hier.l2_read_misses", l2ReadMisses);
    rep.metric("hier.writebacks", writebacks);
    rep.metric("onepass.model_err_max", err);
    reportTrace(opts, rounds, rep);
}

} // namespace mlcbench
