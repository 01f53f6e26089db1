/**
 * @file
 * Micro-benchmark: the one-pass engine versus the timing simulator
 * on the Figure 4-1 design-space grid (11 L2 sizes x 10 cycle
 * times), same traces, same machine.
 *
 * Prints one JSON object per measurement (trace-materialization and
 * simulation milliseconds reported separately, plus process max
 * RSS) and a summary line with the jobs=1 speedup and the largest
 * per-cell difference between the two grids — the engines agree on
 * miss ratios exactly, so the delta is purely the
 * modelled-vs-simulated timing gap.
 *
 *   $ ./onepass_vs_timing [--jobs=N]
 *
 * Note on RSS: ru_maxrss is a process-lifetime high-water mark, so
 * the one-pass engine runs first — its reading is its own, while
 * the timing engine's includes whatever the one-pass run peaked at.
 * On platforms without getrusage the field is null, never garbage.
 */

#include <chrono>
#include <cmath>
#include <iostream>

#include "bench_common.hh"
#include "engines/engines.hh"
#include "onepass/grid.hh"

using namespace mlc;

namespace {

/** Materialization cost, shared by every record (the store is
 *  built once and reused by both engines). */
double g_materialize_ms = 0.0;

/** Time one grid build and emit its JSON record. */
template <typename Fn>
expt::DesignSpaceGrid
timed(const char *engine, std::size_t jobs, Fn &&build)
{
    const auto start = std::chrono::steady_clock::now();
    expt::DesignSpaceGrid grid = build();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    std::cout << "{\"engine\":\"" << engine << "\",\"jobs\":" << jobs
              << ",\"materialize_ms\":" << g_materialize_ms
              << ",\"simulate_ms\":" << wall.count() * 1000.0
              << ",\"wall_s\":" << wall.count()
              << ",\"max_rss_kb\":" << bench::maxRssJson() << ","
              << bench::provenanceJson() << "}\n";
    return grid;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t jobs = engines::parseArgs(argc, argv).jobs;
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const auto sizes = expt::paperSizes();
    const auto cycles = expt::paperCycles();
    std::cerr << "onepass vs timing on the " << sizes.size() << "x"
              << cycles.size() << " Figure 4-1 grid\n";

    const auto store = bench::materializeAll(expt::gridSuite(), jobs,
                                             g_materialize_ms);
    const auto machineFor = [&](std::uint64_t size,
                                std::uint32_t cyc) {
        return base.withL2(size, cyc);
    };

    // One-pass first (see the RSS note above); serial runs give the
    // engine-vs-engine headline, parallel runs the scaling picture.
    const expt::DesignSpaceGrid onepass1 =
        timed("onepass", 1, [&] {
            return onepass::buildGrid(base, sizes, cycles, store, 1);
        });
    if (jobs > 1) {
        timed("onepass", jobs, [&] {
            return onepass::buildGrid(base, sizes, cycles, store,
                                      jobs);
        });
    }

    const auto t0 = std::chrono::steady_clock::now();
    const expt::DesignSpaceGrid timing1 = timed("timing", 1, [&] {
        return expt::parallelBuildGrid(sizes, cycles, store,
                                       machineFor, 1);
    });
    const std::chrono::duration<double> timing_wall =
        std::chrono::steady_clock::now() - t0;
    if (jobs > 1) {
        timed("timing", jobs, [&] {
            return expt::parallelBuildGrid(sizes, cycles, store,
                                           machineFor, jobs);
        });
    }

    // Re-time the serial one-pass build for the speedup quotient so
    // both numbers come from the same steady-state process.
    const auto o0 = std::chrono::steady_clock::now();
    onepass::buildGrid(base, sizes, cycles, store, 1);
    const std::chrono::duration<double> onepass_wall =
        std::chrono::steady_clock::now() - o0;

    double max_delta = 0.0;
    for (std::size_t s = 0; s < sizes.size(); ++s)
        for (std::size_t c = 0; c < cycles.size(); ++c)
            max_delta =
                std::max(max_delta, std::fabs(onepass1.at(s, c) -
                                              timing1.at(s, c)));

    std::cout << "{\"speedup_jobs1\":"
              << timing_wall.count() / onepass_wall.count()
              << ",\"max_cell_delta\":" << max_delta << ","
              << bench::provenanceJson() << "}\n";
    return 0;
}
