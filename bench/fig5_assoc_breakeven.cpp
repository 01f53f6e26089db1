/**
 * @file
 * Figures 5-1, 5-2, 5-3: cumulative break-even implementation
 * times for 2-way, 4-way and 8-way set-associative L2 caches
 * across the L2 size range, 4KB L1.
 *
 * The break-even time is the L2 cycle-time degradation (in ns)
 * that exactly cancels the miss-ratio benefit of the higher
 * associativity; an implementation is worthwhile only if its mux
 * overhead is below it (the paper's TTL threshold: an 11ns 2:1
 * Advanced-Schottky multiplexor).
 *
 * Two independent estimates are printed per point:
 *  - Equation 3 applied to simulated global miss ratios
 *    (dM_global * t_MMread / M_L1), and
 *  - a direct timing measurement: the cycle-time difference at
 *    which the set-associative machine's simulated execution time
 *    equals the direct-mapped machine's.
 * Their agreement is itself a validation of Equation 3. Because
 * miss ratios do not depend on cycle time, the value is nearly
 * constant across the cycle-time axis of the paper's figures.
 */

#include <iostream>

#include "bench_common.hh"
#include "engines/engines.hh"
#include "model/associativity.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace mlc;

namespace {

struct Point
{
    double relExec3; //!< relative exec time at 3 CPU-cycle L2
    double relExec4; //!< ... at 4 CPU cycles (for the local slope)
    double globalMiss;
    double l1Global;
};

Point
measure(const hier::HierarchyParams &base, std::uint64_t size,
        std::uint32_t assoc, const expt::TraceStore &store,
        std::size_t jobs)
{
    Point pt{};
    const expt::SuiteResults r3 = expt::runSuite(
        base.withL2(size, 3, assoc), store, jobs);
    const expt::SuiteResults r4 = expt::runSuite(
        base.withL2(size, 4, assoc), store, jobs);
    pt.relExec3 = r3.relExecTime;
    pt.relExec4 = r4.relExecTime;
    pt.globalMiss = r3.globalMiss[0];
    pt.l1Global = r3.l1LocalMiss; // requests == CPU reads at L1
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t jobs = engines::parseArgs(argc, argv).jobs;
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    bench::printHeader("Figures 5-1..5-3",
                       "set-associativity break-even times, 4KB L1",
                       base);

    const auto store =
        bench::materializeAll(expt::gridSuite(), jobs);

    // Mean main-memory read time for Equation 3 (the minimum
    // penalty; recency adds up to the refresh gap).
    const double mem_read_ns = 270.0;

    for (std::uint32_t assoc : {2u, 4u, 8u}) {
        std::cout << "\n--- Figure 5-" << (assoc == 2 ? 1 : assoc == 4 ? 2 : 3)
                  << ": set size " << assoc << " vs direct-mapped ---\n";
        Table t;
        t.addColumn("L2 size", Align::Left);
        t.addColumn("dM global");
        t.addColumn("Eq3 be (ns)");
        t.addColumn("timed be (ns)");
        t.addColumn("vs 11ns mux", Align::Left);

        for (std::uint64_t size : expt::paperSizes()) {
            std::cerr << "  " << assoc << "-way "
                      << formatSize(size) << "...\n";
            const Point dm =
                measure(base, size, 1, store, jobs);
            const Point sa =
                measure(base, size, assoc, store, jobs);

            const double dm_miss_delta =
                dm.globalMiss - sa.globalMiss;
            const double eq3 = model::breakEvenNs(
                dm_miss_delta, mem_read_ns, dm.l1Global);

            // Timed estimate: extra cycle time the SA machine may
            // spend before its execution time reaches the DM
            // machine's, using the local d(rel)/d(cycle) slope.
            const double slope_per_cycle =
                sa.relExec4 - sa.relExec3; // per CPU cycle
            const double timed =
                slope_per_cycle > 0.0
                    ? (dm.relExec3 - sa.relExec3) /
                          slope_per_cycle * base.cpuCycleNs
                    : 0.0;

            t.newRow()
                .cell(formatSize(size))
                .cell(dm_miss_delta, 5)
                .cell(eq3, 1)
                .cell(timed, 1)
                .cell(std::string(
                    timed > model::kMuxSelectNs ? "worthwhile"
                                                : "too costly"));
        }
        t.print(std::cout);
    }

    std::cout << "\nshape checks (paper Section 5): break-even "
                 "times of 10-45ns across much of the space; "
                 "larger when the L2 is close to the L1 in size; "
                 "Equation 3 and the direct timing measurement "
                 "agree.\n";
    return 0;
}
