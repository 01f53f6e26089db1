/**
 * @file
 * Figure 4-1: relative execution time of the base two-level system
 * as the L2 size sweeps 4KB..4MB and the L2 cycle time sweeps 1..10
 * CPU cycles.
 *
 * The paper's claims to reproduce: larger caches give diminishing
 * returns; the effect of a cycle-time change is nearly independent
 * of cache size; for small caches size dominates, for large caches
 * cycle time dominates.
 */

#include <iostream>

#include "bench_common.hh"
#include "engines/engines.hh"

using namespace mlc;

int
main(int argc, char **argv)
{
    const engines::EngineOptions opts = engines::parseArgs(argc, argv);
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    bench::printHeader(
        "Figure 4-1",
        "L2 speed-size tradeoff (relative execution time), 4KB L1",
        base);

    const auto store =
        bench::materializeAll(expt::gridSuite(), opts.jobs);
    const expt::DesignSpaceGrid grid = engines::buildGrid(
        opts, base, expt::paperSizes(), expt::paperCycles(), store);

    bench::printRelExecGrid(grid);
    bench::maybeDumpCsv(grid, "fig4_1");

    // The shape checks the paper's prose makes about this figure.
    const auto &sizes = grid.sizes();
    const std::size_t last_s = sizes.size() - 1;
    const double gain_small = grid.at(0, 2) - grid.at(1, 2);
    const double gain_large =
        grid.at(last_s - 1, 2) - grid.at(last_s, 2);
    const double cyc_cost_small = grid.at(0, 5) - grid.at(0, 4);
    const double cyc_cost_large =
        grid.at(last_s, 5) - grid.at(last_s, 4);
    std::cout << "\nshape checks:\n"
              << "  doubling 4KB->8KB buys " << gain_small
              << " vs 2MB->4MB " << gain_large
              << " (diminishing returns)\n"
              << "  +1 cycle at 4KB costs " << cyc_cost_small
              << " vs at 4MB " << cyc_cost_large
              << " (cycle-time cost ~independent of size)\n"
              << "  min " << grid.minValue() << ", max "
              << grid.maxValue()
              << " (paper plots ~1.1 to ~2.6)\n";
    return 0;
}
