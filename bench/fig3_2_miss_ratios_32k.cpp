/**
 * @file
 * Figure 3-2: the Figure 3-1 sweep with a substantially larger
 * first-level cache (32KB total = 16K I + 16K D).
 *
 * The paper's claim: the independence of layers still applies, but
 * the larger L1 perturbs the L2 global miss ratio away from the
 * solo curve until the L2 is a factor of ~8 larger than the L1.
 */

#include <iostream>

#include "bench_common.hh"
#include "engines/engines.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace mlc;

int
main(int argc, char **argv)
{
    const std::size_t jobs = engines::parseArgs(argc, argv).jobs;
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine().withL1Total(32 << 10);
    bench::printHeader("Figure 3-2",
                       "L2 miss ratios vs size, 32KB L1", base);

    const auto store =
        bench::materializeAll(expt::paperSuite(), jobs);

    Table t;
    t.addColumn("L2 size", Align::Left);
    t.addColumn("L2/L1 ratio");
    t.addColumn("local");
    t.addColumn("global");
    t.addColumn("solo");
    t.addColumn("global/solo");

    for (std::uint64_t size : expt::paperSizes()) {
        std::cerr << "  L2 " << formatSize(size) << "...\n";
        hier::HierarchyParams p = base.withL2(size, 3);
        p.measureSolo = true;
        const expt::SuiteResults r =
            expt::runSuite(p, store, jobs);
        t.newRow()
            .cell(formatSize(size))
            .cell(std::uint64_t{size / (32 << 10)})
            .cell(r.localMiss[0], 4)
            .cell(r.globalMiss[0], 4)
            .cell(r.soloMiss[0], 4)
            .cell(r.globalMiss[0] / r.soloMiss[0], 2);
    }
    t.print(std::cout);

    std::cout << "\nshape check: global/solo approaches 1 as the "
                 "L2/L1 size ratio grows past ~8 (paper Section "
                 "3).\n";
    return 0;
}
