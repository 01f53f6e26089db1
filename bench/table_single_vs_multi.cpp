/**
 * @file
 * The paper's motivating claim (Section 1, citing its companion
 * paper [8]): "there is an upper bound on the performance that can
 * be achieved through the use of a single level of caching; after
 * a certain point, the performance cannot be improved by changing
 * any of the cache's parameters (including the cache size). ...
 * multi-level cache hierarchies can simultaneously break the
 * single-level performance barrier".
 *
 * This harness makes the barrier visible: with the same technology
 * rule as table_optimal_l1 (bigger L1 => slower CPU cycle), the
 * single-level machine's time per instruction bottoms out and then
 * worsens, while adding a 512KB L2 keeps improving it — and the
 * best two-level machine beats the best single-level machine.
 */

#include <iostream>

#include "bench_common.hh"
#include "engines/engines.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace mlc;

namespace {

constexpr double kL1CyclePenaltyNs = 1.5;

double
cpuCycleNsForL1(std::uint64_t l1_total)
{
    double ns = 10.0;
    for (std::uint64_t s = 4096; s < l1_total; s *= 2)
        ns += kL1CyclePenaltyNs;
    return ns;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t jobs = engines::parseArgs(argc, argv).jobs;
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    bench::printHeader(
        "Single-level vs multi-level (Section 1 claim)",
        "time per instruction across L1 sizes, with and without "
        "an L2",
        base);
    std::cout << "technology rule: CPU cycle = 10ns + "
              << kL1CyclePenaltyNs
              << "ns per L1 doubling beyond 4KB\n";

    const auto store =
        bench::materializeAll(expt::gridSuite(), jobs);

    Table t;
    t.addColumn("L1 total", Align::Left);
    t.addColumn("cpu cycle (ns)");
    t.addColumn("single-level ns/instr");
    t.addColumn("two-level ns/instr");

    double best_single = 0.0, best_multi = 0.0;
    std::uint64_t best_single_l1 = 0, best_multi_l1 = 0;
    for (std::uint64_t l1 = 4 << 10; l1 <= (128 << 10); l1 *= 2) {
        const double cycle_ns = cpuCycleNsForL1(l1);
        std::cerr << "  L1 " << formatSize(l1) << "...\n";

        hier::HierarchyParams single = base.withL1Total(l1);
        single.levels.clear();
        single.busWidthWords = {4};
        single.backplaneCycleNs = 30.0;
        single.cpuCycleNs = cycle_ns;
        single.l1i.cycleNs = cycle_ns;
        single.l1d.cycleNs = cycle_ns;
        const double single_time =
            expt::runSuite(single, store, jobs).cpi *
            cycle_ns;

        hier::HierarchyParams multi = base.withL1Total(l1);
        multi.cpuCycleNs = cycle_ns;
        multi.l1i.cycleNs = cycle_ns;
        multi.l1d.cycleNs = cycle_ns;
        const double multi_time =
            expt::runSuite(multi, store, jobs).cpi *
            cycle_ns;

        t.newRow()
            .cell(formatSize(l1))
            .cell(cycle_ns, 1)
            .cell(single_time, 2)
            .cell(multi_time, 2);

        if (best_single_l1 == 0 || single_time < best_single) {
            best_single = single_time;
            best_single_l1 = l1;
        }
        if (best_multi_l1 == 0 || multi_time < best_multi) {
            best_multi = multi_time;
            best_multi_l1 = l1;
        }
    }
    t.print(std::cout);

    std::cout << "\nbest single-level: " << best_single
              << " ns/instr at L1 " << formatSize(best_single_l1)
              << "\nbest two-level:    " << best_multi
              << " ns/instr at L1 " << formatSize(best_multi_l1)
              << "\nspeedup from the second level: "
              << best_single / best_multi << "x";
    if (best_multi_l1 < best_single_l1)
        std::cout << ", with a " << best_single_l1 / best_multi_l1
                  << "x smaller (hence faster-cycling) L1, as the "
                     "paper argues";
    std::cout << "\n";
    return 0;
}
