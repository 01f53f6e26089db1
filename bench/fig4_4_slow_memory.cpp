/**
 * @file
 * Figure 4-4: lines of constant performance with a main memory
 * twice as slow as the base system (read 360ns, write 200ns, gap
 * 240ns), 4KB L1.
 *
 * The paper's claim: doubling the memory latency shifts the slope
 * regions right by approximately a factor of two in cache size —
 * slower memory skews the speed-size tradeoff toward larger
 * caches.
 */

#include <cmath>
#include <iostream>

#include "bench_common.hh"
#include "engines/engines.hh"

using namespace mlc;

int
main(int argc, char **argv)
{
    const engines::EngineOptions opts = engines::parseArgs(argc, argv);
    hier::HierarchyParams slow =
        hier::HierarchyParams::baseMachine();
    slow.memory = mem::MainMemoryParams::slow();
    bench::printHeader(
        "Figure 4-4",
        "lines of constant performance, 2x slower main memory",
        slow);

    const auto store =
        bench::materializeAll(expt::gridSuite(), opts.jobs);

    std::cerr << "grid with base memory (reference)...\n";
    const expt::DesignSpaceGrid base_grid = engines::buildGrid(
        opts, hier::HierarchyParams::baseMachine(), expt::paperSizes(),
        expt::paperCycles(), store);
    std::cerr << "grid with slow memory...\n";
    const expt::DesignSpaceGrid slow_grid = engines::buildGrid(
        opts, slow, expt::paperSizes(), expt::paperCycles(), store);

    bench::printConstantPerformance(slow_grid);
    bench::maybeDumpCsv(base_grid, "fig4_4_base_memory");
    bench::maybeDumpCsv(slow_grid, "fig4_4_slow_memory");

    // Region shift: compare where the max slope crosses the
    // paper's 1.5 cycles-per-doubling threshold.
    auto crossing = [](const expt::DesignSpaceGrid &g,
                       double threshold) -> double {
        const auto slopes = g.maxSlopePerInterval();
        for (std::size_t s = 0; s < slopes.size(); ++s) {
            if (!std::isnan(slopes[s]) && slopes[s] < threshold)
                return static_cast<double>(g.sizes()[s]);
        }
        return static_cast<double>(g.sizes().back());
    };
    const double base_cross = crossing(base_grid, 1.5);
    const double slow_cross = crossing(slow_grid, 1.5);
    std::cout << "\nslope-region shift: the 1.5-cyc/doubling "
                 "boundary moves from "
              << base_cross / 1024 << "KB to " << slow_cross / 1024
              << "KB (" << slow_cross / base_cross
              << "x; paper: ~2x right-shift for 2x slower "
                 "memory)\n";
    return 0;
}
