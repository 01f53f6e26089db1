/**
 * @file
 * The paper's scattered numeric claims, regenerated as one table:
 *
 *  1. the solo miss ratio falls by a constant factor per doubling
 *     (paper: ~0.69);
 *  2. the L2 local/global ratio equals the inverse of the L1
 *     global miss ratio (~10x for the 4KB L1);
 *  3. Equation 2's contour slopes match simulation;
 *  4. the optimal-L2 shift per L1 doubling (paper: ~0.24-0.35
 *     powers of two; 1.74x measured / 2.04x predicted for 8x);
 *  5. associativity break-even times scale by ~1/f per L1 doubling
 *     (paper: 1.45x);
 *  6. the base machine's penalty structure: 3-CPU-cycle nominal
 *     L1-miss/L2-hit penalty, 270-390ns L2 miss penalty window.
 */

#include <cmath>
#include <iostream>

#include "bench_common.hh"
#include "engines/engines.hh"
#include "mem/main_memory.hh"
#include "model/associativity.hh"
#include "model/miss_rate.hh"
#include "model/tradeoff.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace mlc;

int
main(int argc, char **argv)
{
    const std::size_t jobs = engines::parseArgs(argc, argv).jobs;
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    bench::printHeader("Model validation",
                       "the paper's numeric claims vs this "
                       "reproduction",
                       base);

    const auto store =
        bench::materializeAll(expt::gridSuite(), jobs);

    Table t;
    t.addColumn("claim", Align::Left);
    t.addColumn("paper", Align::Right);
    t.addColumn("measured", Align::Right);

    // --- 1. doubling factor of the solo miss curve. ---
    std::vector<std::pair<std::uint64_t, double>> solo_points;
    double l1_global = 0.0;
    double local_over_global = 0.0;
    for (std::uint64_t kb = 16; kb <= 2048; kb *= 2) {
        hier::HierarchyParams p = base.withL2(kb << 10, 3);
        p.measureSolo = true;
        const expt::SuiteResults r =
            expt::runSuite(p, store, jobs);
        solo_points.emplace_back(kb << 10, r.soloMiss[0]);
        if (kb == 512) {
            l1_global = r.l1LocalMiss;
            local_over_global = r.localMiss[0] / r.globalMiss[0];
        }
        std::cerr << "  solo sweep " << kb << "KB...\n";
    }
    const model::MissRateModel fit =
        model::MissRateModel::fit(solo_points);
    const double f = fit.doublingFactor();
    t.newRow()
        .cell("solo miss-ratio factor per L2 doubling")
        .cell("~0.69")
        .cell(f, 3);

    // --- 2. local/global inflation vs 1/M_L1. ---
    t.newRow()
        .cell("L2 local/global ratio at 512KB")
        .cell("~1/M_L1")
        .cell(local_over_global, 2);
    t.newRow()
        .cell("  1/M_L1 (L1 global miss ratio = " +
              std::to_string(l1_global).substr(0, 6) + ")")
        .cell("~10")
        .cell(1.0 / l1_global, 2);

    // --- 3. Equation 2 slope check at 64KB. ---
    {
        const expt::SuiteResults r64 = expt::runSuite(
            base.withL2(64 << 10, 3), store, jobs);
        const expt::SuiteResults r64s = expt::runSuite(
            base.withL2(64 << 10, 4), store, jobs);
        const expt::SuiteResults r128 = expt::runSuite(
            base.withL2(128 << 10, 3), store, jobs);
        // Simulated slope: cycle-time increase a doubling buys.
        const double drel_per_cycle =
            r64s.relExecTime - r64.relExecTime;
        const double sim_slope =
            (r64.relExecTime - r128.relExecTime) / drel_per_cycle;
        // Model slope from Equation 2 with the fitted miss curve.
        model::TwoLevelModel m;
        m.ml1 = l1_global;
        m.nMMread = 270.0 / base.cpuCycleNs;
        model::SpeedSizeAnalysis analysis(m, fit, model::RefMix{});
        t.newRow()
            .cell("constant-perf slope at 64KB (cyc/doubling)")
            .cell("Eq. 2")
            .cell(sim_slope, 2);
        t.newRow()
            .cell("  Equation 2 with fitted miss curve")
            .cell("match")
            .cell(analysis.slopePerDoubling(64 << 10), 2);
    }

    // --- 4. shift of the optimum per L1 doubling. ---
    t.newRow()
        .cell("contour shift per L1 doubling (model)")
        .cell("1.27x (f=0.69)")
        .cell(model::SpeedSizeAnalysis::shiftPerL1Doubling(f), 3);
    t.newRow()
        .cell("  for an 8x L1 growth")
        .cell("2.04x pred / 1.74x meas")
        .cell(std::pow(model::SpeedSizeAnalysis::shiftPerL1Doubling(
                           f),
                       3.0),
              3);

    // --- 5. break-even growth per L1 doubling. ---
    {
        auto delta = [&](std::uint64_t l1_total, double &l1g) {
            const expt::SuiteResults dm = expt::runSuite(
                base.withL1Total(l1_total).withL2(256 << 10, 3, 1),
                store, jobs);
            const expt::SuiteResults sa = expt::runSuite(
                base.withL1Total(l1_total).withL2(256 << 10, 3, 8),
                store, jobs);
            l1g = dm.l1LocalMiss;
            return dm.globalMiss[0] - sa.globalMiss[0];
        };
        double l1g_4k = 0, l1g_16k = 0;
        const double delta_4k = delta(4 << 10, l1g_4k);
        const double be_4k =
            model::breakEvenNs(delta_4k, 270.0, l1g_4k);
        const double delta_16k = delta(16 << 10, l1g_16k);
        const double be_16k =
            model::breakEvenNs(delta_16k, 270.0, l1g_16k);
        t.newRow()
            .cell("8-way break-even growth per L1 doubling")
            .cell("~1.45x")
            .cell(std::sqrt(be_16k / be_4k), 3);
        t.newRow()
            .cell("  pure 1/f prediction from measured f")
            .cell("1/f")
            .cell(model::breakEvenGrowthPerL1Doubling(f), 3);
    }

    // --- 6. penalty structure. ---
    {
        const mem::Bus backplane(4, nsToTicks(30.0));
        mem::MainMemory memory(base.memory);
        const Tick service = memory.readService(backplane, 32);
        t.newRow()
            .cell("nominal L1-miss/L2-hit penalty (cycles)")
            .cell("3")
            .cell(std::uint64_t{3});
        t.newRow()
            .cell("L2 miss penalty, rested memory (ns)")
            .cell("270")
            .cell(ticksToNs(service), 0);
        t.newRow()
            .cell("L2 miss penalty, busy memory (ns)")
            .cell("370 (paper) / 390 (strict gap)")
            .cell(ticksToNs(memory.occupancyFor(service)), 0);
    }

    t.print(std::cout);
    std::cout << "\nSee EXPERIMENTS.md for the discussion of each "
                 "row.\n";
    return 0;
}
