/**
 * @file
 * Figure 4-2: lines of constant performance across the L2 design
 * space for the base 4KB L1, in increments of 0.1 in relative
 * execution time, with the 0.75 / 1.5 / 3.0 cycles-per-doubling
 * slope regions.
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
    bench::printHeader("Figure 4-2",
                       "lines of constant performance, 4KB L1",
                       base);

    const auto store =
        bench::materializeAll(expt::gridSuite(), opts.jobs);
    const expt::DesignSpaceGrid grid = engines::buildGrid(
        opts, base, expt::paperSizes(), expt::paperCycles(), store);

    bench::printConstantPerformance(grid);
    bench::maybeDumpCsv(grid, "fig4_2");

    std::cout << "\nshape check: slopes fall from >3 cycles per "
                 "doubling on the left toward <0.75 on the right "
                 "(the paper's shaded regions), pulling the "
                 "optimum toward caches >=128KB.\n";
    return 0;
}
