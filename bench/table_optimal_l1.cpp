/**
 * @file
 * The paper's closing claim (Section 6): "as the L2 cycle time
 * gets much above 4 CPU cycles, the optimal Ll cache size is
 * significantly increased above its minimum" — and conversely, a
 * fast L2 "helps reduce the optimal Ll speed and size, as
 * desired".
 *
 * An L1's size sets the CPU cycle time (bigger first-level caches
 * are slower to cycle), so the figure of merit is execution TIME,
 * not cycles. This harness applies a simple technology rule —
 * every doubling of the L1 beyond 4KB adds kL1CyclePenaltyNs to
 * the CPU cycle — and reports, for each L2 cycle time, the
 * time-per-instruction across L1 sizes and the optimum.
 *
 *   $ ./table_optimal_l1 [--jobs=N] [--engine=timing|onepass|mrc]
 *                        [--shards=N] [--sample-rate=P]
 *                        [--sample-budget=N]
 *
 * --engine=onepass and --engine=mrc price every cell from one
 * profile per L1 size; the sampled engine estimates no whole-trace
 * CPI to compare and is refused.
 */

#include <iostream>

#include "bench_common.hh"
#include "engines/engines.hh"
#include "onepass/model_timing.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/units.hh"

using namespace mlc;

namespace {

/** CPU cycle-time cost of each L1-total doubling beyond 4KB. */
constexpr double kL1CyclePenaltyNs = 1.5;

double
cpuCycleNsForL1(std::uint64_t l1_total)
{
    double ns = 10.0;
    for (std::uint64_t s = 4096; s < l1_total; s *= 2)
        ns += kL1CyclePenaltyNs;
    return ns;
}

/** The machine of one (L2 cycle, L1 size) cell. */
hier::HierarchyParams
cellMachine(const hier::HierarchyParams &base, std::uint64_t l1,
            std::uint32_t cyc)
{
    hier::HierarchyParams p =
        base.withL1Total(l1).withL2(512 << 10, 1);
    // Quote L2 speed in *base* CPU cycles so a slower CPU
    // doesn't quietly speed up the L2.
    p.levels[0].cycleNs = 10.0 * cyc;
    p.cpuCycleNs = cpuCycleNsForL1(l1);
    p.l1i.cycleNs = p.cpuCycleNs;
    p.l1d.cycleNs = p.cpuCycleNs;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    const engines::EngineOptions opts = engines::parseArgs(argc, argv);
    if (opts.engine == engines::Engine::Sampled)
        mlc_fatal("table_optimal_l1 takes --engine=timing, onepass "
                  "or mrc, not sampled");
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    bench::printHeader(
        "Optimal-L1 table (Section 6 claim)",
        "time per instruction vs L1 size and L2 cycle time", base);
    std::cout << "technology rule: CPU cycle = 10ns + "
              << kL1CyclePenaltyNs
              << "ns per L1 doubling beyond 4KB; L2 fixed at "
                 "512KB; L2 cycle time quoted in base (10ns) CPU "
                 "cycles\n";

    const auto store =
        bench::materializeAll(expt::gridSuite(), opts.jobs);

    const std::vector<std::uint64_t> l1_sizes = {
        4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10};
    const std::vector<std::uint32_t> l2_cycles = {2, 4, 6, 8, 10};

    const std::size_t cols = l1_sizes.size();
    std::vector<double> ns_per_instr(l2_cycles.size() * cols, 0.0);
    std::cerr << "  sweeping " << l2_cycles.size() << "x" << cols
              << " L1/L2 table (" << engines::engineName(opts.engine)
              << " engine)...\n";
    if (opts.engine == engines::Engine::Timing) {
        // Evaluate the (L2 cycle x L1 size) cells in parallel,
        // each into its own slot; the table below is assembled
        // serially in row order, so output is identical for any
        // --jobs.
        parallelFor(opts.jobs, ns_per_instr.size(), [&](std::size_t i) {
            const hier::HierarchyParams p = cellMachine(
                base, l1_sizes[i % cols], l2_cycles[i / cols]);
            const expt::SuiteResults r = expt::runSuite(p, store);
            ns_per_instr[i] = r.cpi * p.cpuCycleNs;
        });
    } else {
        // The L2 cycle axis changes timing only, so one profile
        // per L1 size covers the whole row set; cells are then
        // priced analytically. Serial fill keeps output identical
        // for any --jobs (parallelism lives inside the profile).
        for (std::size_t col = 0; col < cols; ++col) {
            const hier::HierarchyParams p =
                cellMachine(base, l1_sizes[col], l2_cycles[0]);
            const auto profiles = engines::profile(
                opts, p, engines::familyFor(p, {512 << 10}), store);
            for (std::size_t row = 0; row < l2_cycles.size();
                 ++row) {
                const hier::HierarchyParams cell = cellMachine(
                    base, l1_sizes[col], l2_cycles[row]);
                const onepass::EqTimingModel model =
                    onepass::EqTimingModel::forMachine(cell);
                double cpi = 0.0;
                for (const onepass::TraceProfile &prof : profiles)
                    cpi += model.cpi(prof, 0);
                cpi /= static_cast<double>(profiles.size());
                ns_per_instr[row * cols + col] =
                    cpi * cell.cpuCycleNs;
            }
        }
    }

    Table t;
    t.addColumn("L2 cycle", Align::Left);
    for (auto s : l1_sizes)
        t.addColumn(formatSize(s));
    t.addColumn("optimal L1", Align::Left);

    for (std::size_t row = 0; row < l2_cycles.size(); ++row) {
        t.newRow().cell(std::to_string(l2_cycles[row]) + " cyc");
        double best_time = 0.0;
        std::uint64_t best_l1 = 0;
        for (std::size_t col = 0; col < cols; ++col) {
            const double ns = ns_per_instr[row * cols + col];
            t.cell(ns, 2);
            if (best_l1 == 0 || ns < best_time) {
                best_time = ns;
                best_l1 = l1_sizes[col];
            }
        }
        t.cell(formatSize(best_l1));
    }
    t.print(std::cout);

    std::cout << "\nshape check: the optimal L1 column grows as "
                 "the L2 slows (paper Section 6); with a fast L2 "
                 "the small, short-cycle L1 wins.\n";
    return 0;
}
