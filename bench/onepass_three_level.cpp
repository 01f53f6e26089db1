/**
 * @file
 * The cascade engine's gates: hierarchical ghost filtering versus
 * per-cell timing simulation of a joint (L2 x L3) family.
 *
 * Two halves, one self-gating JSON record:
 *
 *  - exactness (always enforced): crossCheckCascade simulates
 *    every (trace, pivot, member) triple of a golden three-level
 *    family on the full timing simulator and compares L1, pivot
 *    and member read/miss counts integer-for-integer (solo ratios
 *    bitwise); on top of that, the cascade profile at every shard
 *    count in {2, 7, --shards} must be bit-identical to the
 *    scalar (shards=1) profile, pivot chain included. Together
 *    the two checks pin every (pivot, member, shard-count)
 *    combination to the simulator.
 *  - speed: the hierarchy-depth study's three-level machine swept
 *    over an (L2 size x L3 size) grid, timing engine (one full
 *    simulation per cell) versus one cascade pass plus depth-3
 *    Equation 1-3 pricing. The speedup floor (default 20) is
 *    enforced only when the host has at least --shards hardware
 *    threads; exactness gates the exit code regardless.
 *
 *   $ ./onepass_three_level [--shards=N] [--jobs=N]
 *                           [--min-speedup=X] [--cross-refs=N]
 *
 * MLC_QUICK scales the grid workload suite like every other bench;
 * CI additionally passes a reduced --cross-refs and disables the
 * speedup floor on shared runners.
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "engines/engines.hh"
#include "onepass/cascade.hh"
#include "onepass/model_timing.hh"
#include "onepass/validate.hh"
#include "util/logging.hh"

using namespace mlc;

namespace {

double
seconds(std::chrono::steady_clock::time_point t0)
{
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - t0;
    return d.count();
}

/** The hierarchy-depth study's three-level machine (a small fast
 *  L2 backed by a large L3), the base every sweep reshapes. */
hier::HierarchyParams
threeLevelBase()
{
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
    p.levels[0].geometry.sizeBytes = 64 << 10;
    p.levels[0].cycleNs = 20.0;
    cache::CacheParams l3;
    l3.name = "l3";
    l3.geometry.sizeBytes = 1 << 20;
    l3.geometry.blockBytes = 32;
    l3.geometry.assoc = 2;
    l3.cycleNs = 50.0;
    p.levels.push_back(l3);
    p.busWidthWords = {4, 4, 4};
    p.backplaneCycleNs = 50.0;
    return p;
}

/** Full-profile bit-identity, pivot chain included — the sharded
 *  sweep must be indistinguishable from the scalar one. */
bool
identicalProfiles(const onepass::TraceProfile &a,
                  const onepass::TraceProfile &b,
                  const std::string &who)
{
    const auto fail = [&](const char *field) {
        std::cerr << "  MISMATCH (" << who << "): field " << field
                  << "\n";
        return false;
    };
    if (a.instructions != b.instructions ||
        a.ifetches != b.ifetches || a.loads != b.loads ||
        a.stores != b.stores)
        return fail("mix counters");
    if (a.l1ReadRequests != b.l1ReadRequests ||
        a.l1ReadMisses != b.l1ReadMisses)
        return fail("l1 counts");
    if (a.pivotChain.size() != b.pivotChain.size())
        return fail("pivotChain.size");
    for (std::size_t k = 0; k < a.pivotChain.size(); ++k) {
        const onepass::PivotLink &x = a.pivotChain[k];
        const onepass::PivotLink &y = b.pivotChain[k];
        if (!(x.spec == y.spec))
            return fail("pivot spec");
        if (x.counts.reads != y.counts.reads ||
            x.counts.readMisses != y.counts.readMisses ||
            x.counts.extraAccesses != y.counts.extraAccesses ||
            x.counts.extraMisses != y.counts.extraMisses)
            return fail("pivot counts");
        if (x.solo.reads != y.solo.reads ||
            x.solo.readMisses != y.solo.readMisses)
            return fail("pivot solo");
    }
    if (a.configs.size() != b.configs.size())
        return fail("configs.size");
    for (std::size_t i = 0; i < a.configs.size(); ++i) {
        const onepass::ConfigProfile &x = a.configs[i];
        const onepass::ConfigProfile &y = b.configs[i];
        if (!(x.spec == y.spec))
            return fail("member spec");
        if (x.filtered.reads != y.filtered.reads ||
            x.filtered.readMisses != y.filtered.readMisses ||
            x.filtered.extraAccesses != y.filtered.extraAccesses ||
            x.filtered.extraMisses != y.filtered.extraMisses)
            return fail("member counts");
        if (x.solo.reads != y.solo.reads ||
            x.solo.readMisses != y.solo.readMisses)
            return fail("member solo");
        if (x.faMissRatio != y.faMissRatio ||
            x.faCompulsory != y.faCompulsory)
            return fail("fa bound");
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    double min_speedup = 20.0;
    std::uint64_t cross_refs = 60'000;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--min-speedup=", 0) == 0)
            min_speedup = bench::gateFloor(arg);
        else if (arg.rfind("--cross-refs=", 0) == 0)
            cross_refs =
                std::strtoull(arg.c_str() + 13, nullptr, 0);
    }
    engines::EngineOptions exact = engines::parseArgs(argc, argv);
    exact.engine = engines::Engine::OnePass;
    const std::size_t jobs = exact.jobs;
    const std::size_t shards = exact.shards;

    const hier::HierarchyParams base = threeLevelBase();

    // --- Exactness gate 1: timing co-simulation ------------------
    // Mixed pivot geometries (size, associativity, block) crossed
    // with two member sizes; every (trace, pivot, member) triple
    // simulated in full and compared integer-for-integer.
    onepass::CascadeFamilySpec golden;
    golden.pivots.push_back({32 << 10, 1, 32});
    golden.pivots.push_back({64 << 10, 2, 32});
    golden.l3.configs.push_back({512 << 10, 2, 32});
    golden.l3.configs.push_back({1 << 20, 2, 32});

    std::vector<expt::TraceSpec> cross_specs = {
        expt::gridSuite()[0], expt::gridSuite()[1]};
    for (expt::TraceSpec &s : cross_specs) {
        s.warmupRefs = cross_refs / 3;
        s.measureRefs = cross_refs;
    }
    std::cerr << "cascade: cross-check vs timing simulator ("
              << cross_specs.size() << " traces x "
              << golden.pivots.size() << " pivots x "
              << golden.l3.configs.size() << " members, "
              << cross_refs << " refs)...\n";
    const expt::TraceStore cross_store =
        expt::TraceStore::materialize(cross_specs, jobs);
    const onepass::CrossCheckReport report =
        onepass::crossCheckCascade(base, golden, cross_store, jobs,
                                   /*solo=*/true);
    report.print(std::cerr);

    // --- Exactness gate 2: shard-count bit-identity --------------
    std::cerr << "cascade: shard bit-identity vs scalar...\n";
    engines::EngineOptions scalar = exact;
    scalar.shards = 1;
    const auto scalar_profiles = engines::profile(
        scalar, base, golden, cross_store, /*solo=*/true,
        /*fa_bound=*/true);
    bool shards_identical = true;
    for (const std::size_t s :
         {std::size_t{2}, std::size_t{7}, shards}) {
        if (s <= 1)
            continue;
        engines::EngineOptions sharded_opts = scalar;
        sharded_opts.shards = s;
        const auto sharded = engines::profile(
            sharded_opts, base, golden, cross_store, true, true);
        // Pivot-major: entry i is pivot i / traces, trace i % traces.
        for (std::size_t i = 0; i < scalar_profiles.size(); ++i)
            shards_identical =
                identicalProfiles(
                    scalar_profiles[i], sharded[i],
                    "pivot " +
                        std::to_string(i / cross_store.size()) +
                        " trace " +
                        std::to_string(i % cross_store.size()) +
                        " shards=" + std::to_string(s)) &&
                shards_identical;
    }

    // --- Speed gate: joint grid, timing vs one cascade pass ------
    // The design-space shape: L2 sizes are the pivots, L3 sizes the
    // ghost-swept members, and the L2 cycle-time axis is pure
    // pricing — the timing engine re-simulates every (size, size,
    // cycle) cell while one cascade pass covers them all and the
    // Equation 1-3 model prices the cycle axis analytically.
    const std::vector<std::uint64_t> l2_sizes = {
        16 << 10, 32 << 10, 64 << 10, 128 << 10};
    const std::vector<std::uint64_t> l3_sizes = {
        256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20};
    const std::vector<std::uint32_t> l2_cycles = {2, 3, 4};
    const std::size_t cells =
        l2_sizes.size() * l3_sizes.size() * l2_cycles.size();
    const auto store =
        bench::materializeAll(expt::gridSuite(), jobs);

    const auto cellMachine = [&](std::uint64_t l2, std::uint64_t l3,
                                 std::uint32_t cyc) {
        hier::HierarchyParams machine = base.withL2(
            l2, cyc, base.levels[0].geometry.assoc);
        machine.levels[1].geometry.sizeBytes = l3;
        return machine;
    };

    std::cerr << "  timing sweep (" << cells
              << " cells, one full simulation each)...\n";
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<double> timing_cpi;
    for (const std::uint64_t l2 : l2_sizes)
        for (const std::uint64_t l3 : l3_sizes)
            for (const std::uint32_t cyc : l2_cycles)
                timing_cpi.push_back(
                    expt::runSuite(cellMachine(l2, l3, cyc), store,
                                   jobs)
                        .cpi);
    const double timing_s = seconds(t0);

    std::cerr << "  cascade pass (shards=" << shards << ")...\n";
    const auto c0 = std::chrono::steady_clock::now();
    onepass::CascadeFamilySpec sweep;
    for (const std::uint64_t l2 : l2_sizes)
        sweep.pivots.push_back(
            {l2, base.levels[0].geometry.assoc,
             base.levels[0].geometry.blockBytes});
    for (const std::uint64_t l3 : l3_sizes)
        sweep.l3.configs.push_back(
            {l3, base.levels[1].geometry.assoc,
             base.levels[1].geometry.blockBytes});
    const auto profiles =
        engines::profile(exact, base, sweep, store);
    const std::size_t traces = store.size();
    std::vector<double> cascade_cpi;
    for (std::size_t p = 0; p < sweep.pivots.size(); ++p)
        for (std::size_t m = 0; m < sweep.l3.configs.size(); ++m)
            for (const std::uint32_t cyc : l2_cycles) {
                const onepass::EqTimingModel model =
                    onepass::EqTimingModel::forMachine(cellMachine(
                        l2_sizes[p], l3_sizes[m], cyc));
                double sum = 0.0;
                for (std::size_t t = 0; t < traces; ++t)
                    sum += model.cpi(profiles[p * traces + t], m);
                cascade_cpi.push_back(
                    sum / static_cast<double>(traces));
            }
    const double cascade_s = seconds(c0);

    const double speedup = timing_s / cascade_s;
    const bench::GateStatus gate =
        bench::gateStatus(min_speedup, shards);

    std::cout << "{\"shards\":" << shards << ",\"jobs\":" << jobs
              << ",\"cross_rows\":" << report.rows.size()
              << ",\"cross_refs\":" << cross_refs
              << ",\"cross_match\":"
              << (report.allMatch() ? "true" : "false")
              << ",\"shards_identical\":"
              << (shards_identical ? "true" : "false")
              << ",\"grid_cells\":" << cells
              << ",\"timing_s\":" << timing_s
              << ",\"cascade_s\":" << cascade_s
              << ",\"speedup\":" << speedup
              << ",\"min_speedup\":" << min_speedup
              << ",\"speedup_gate\":\"" << gate.name()
              << "\",\"hw_threads\":" << gate.hwThreads
              << ",\"max_rss_kb\":" << bench::maxRssJson() << ","
              << bench::provenanceJson() << "}\n";

    if (!report.allMatch())
        mlc_fatal("cascade profile disagrees with the timing "
                  "simulator on ",
                  report.mismatchCount(), " of ",
                  report.rows.size(), " rows");
    if (!shards_identical)
        mlc_fatal("sharded cascade profile is not bit-identical "
                  "to the scalar pass");
    if (gate.enforced() && speedup < min_speedup)
        mlc_fatal("cascade speedup ", speedup, "x below the ",
                  min_speedup, "x gate over the timing sweep");
    std::cerr << "  ok: exact, " << speedup << "x, speedup gate "
              << gate.reason() << "\n";
    return 0;
}
