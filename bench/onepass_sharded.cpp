/**
 * @file
 * Set-partitioned one-pass profiling versus the scalar sweep: the
 * speedup and bit-exactness gates for onepass/sharded.hh.
 *
 * Two halves, one self-gating JSON record:
 *
 *  - exactness: profileTrace at --shards must reproduce the scalar
 *    (shards=1) profile bit for bit — every filtered/solo counter,
 *    ratio and FA bound — across ghost-modellable derivatives of
 *    the golden-replay machine family set, plus the full Figure
 *    4-1 grid cell for cell (always enforced, any machine);
 *  - speed: the Figure 4-1 grid (paper sizes x cycles, one-pass
 *    engine) timed scalar versus sharded. The speedup floor
 *    (default 4 at 8 shards) is enforced only when the floor is
 *    above 0 and the host has at least --shards hardware threads;
 *    the JSON's speedup_gate says which ("enforced", "disabled" or
 *    "skipped_hw_threads"), and otherwise only exactness gates the
 *    exit code.
 *
 *   $ ./onepass_sharded [--shards=N] [--jobs=N] [--min-speedup=X]
 *                       [--golden-refs=N]
 *
 * MLC_QUICK scales the grid workload suite like every other bench;
 * CI additionally passes a reduced --golden-refs.
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "engines/engines.hh"
#include "onepass/engine.hh"
#include "onepass/grid.hh"
#include "trace/interleave.hh"
#include "trace/source.hh"
#include "util/logging.hh"
#include "util/str.hh"

using namespace mlc;

namespace {

double
seconds(std::chrono::steady_clock::time_point t0)
{
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - t0;
    return d.count();
}

/** Ghost-modellable variants of the golden-replay machine set
 *  (tests/hier/test_golden_replay.cc): everything the L1 replica
 *  can reproduce over an LRU or direct-mapped L2. */
std::vector<std::pair<std::string, hier::HierarchyParams>>
goldenMachines()
{
    namespace h = hier;
    std::vector<std::pair<std::string, h::HierarchyParams>> out;
    out.emplace_back("base", h::HierarchyParams::baseMachine());
    {
        h::HierarchyParams p = h::HierarchyParams::baseMachine();
        p.l1i.writePolicy = cache::WritePolicy::WriteThrough;
        p.l1d.writePolicy = cache::WritePolicy::WriteThrough;
        out.emplace_back("write_through_l1", p);
    }
    {
        h::HierarchyParams p = h::HierarchyParams::baseMachine();
        p.l1d.writePolicy = cache::WritePolicy::WriteThrough;
        p.l1d.allocPolicy = cache::AllocPolicy::NoWriteAllocate;
        out.emplace_back("write_through_no_allocate_l1", p);
    }
    {
        h::HierarchyParams p = h::HierarchyParams::baseMachine();
        p.l1i.fetchBytes = 4;
        p.l1d.fetchBytes = 4;
        out.emplace_back("sub_blocked_l1", p);
    }
    {
        h::HierarchyParams p = h::HierarchyParams::baseMachine();
        cache::CacheParams l3 = p.levels.back();
        l3.name = "l3";
        l3.geometry.sizeBytes = 4u << 20;
        l3.geometry.blockBytes = 64;
        l3.cycleNs = 60.0;
        p.levels.push_back(l3);
        p.busWidthWords.push_back(p.busWidthWords.back());
        out.emplace_back("three_level", p);
    }
    {
        h::HierarchyParams p = h::HierarchyParams::baseMachine();
        p.splitL1 = false;
        p.l1d.geometry.sizeBytes = 4096;
        out.emplace_back("unified_l1", p);
    }
    {
        h::HierarchyParams p = h::HierarchyParams::baseMachine();
        p.l1i.geometry.assoc = 2;
        p.l1d.geometry.assoc = 2;
        p.levels[0].geometry.assoc = 4;
        p.levels[0].replPolicy = cache::ReplPolicy::LRU;
        out.emplace_back("lru_victim_order", p);
    }
    return out;
}

/** The exact-equality gate between a scalar and a sharded
 *  profile. */
bool
bitIdentical(const onepass::TraceProfile &a,
             const onepass::TraceProfile &b, const std::string &who)
{
    auto fail = [&](const char *field) {
        std::cerr << "  MISMATCH (" << who << "): field " << field
                  << "\n";
        return false;
    };
    if (a.instructions != b.instructions)
        return fail("instructions");
    if (a.ifetches != b.ifetches)
        return fail("ifetches");
    if (a.loads != b.loads)
        return fail("loads");
    if (a.stores != b.stores)
        return fail("stores");
    if (a.l1ReadRequests != b.l1ReadRequests)
        return fail("l1ReadRequests");
    if (a.l1ReadMisses != b.l1ReadMisses)
        return fail("l1ReadMisses");
    if (a.configs.size() != b.configs.size())
        return fail("configs.size");
    for (std::size_t i = 0; i < a.configs.size(); ++i) {
        const onepass::ConfigProfile &x = a.configs[i];
        const onepass::ConfigProfile &y = b.configs[i];
        if (!(x.spec == y.spec))
            return fail("spec");
        if (x.filtered.reads != y.filtered.reads ||
            x.filtered.readMisses != y.filtered.readMisses ||
            x.filtered.extraAccesses != y.filtered.extraAccesses ||
            x.filtered.extraMisses != y.filtered.extraMisses)
            return fail("filtered counts");
        if (x.solo.reads != y.solo.reads ||
            x.solo.readMisses != y.solo.readMisses ||
            x.solo.extraAccesses != y.solo.extraAccesses ||
            x.solo.extraMisses != y.solo.extraMisses)
            return fail("solo counts");
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
    std::size_t shards = 8;
    double min_speedup = 4.0;
    std::uint64_t golden_refs = 120'000;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--min-speedup=", 0) == 0)
            min_speedup = bench::gateFloor(arg);
        else if (arg.rfind("--golden-refs=", 0) == 0)
            golden_refs =
                std::strtoull(arg.c_str() + 14, nullptr, 0);
        // --shards / --jobs are parsed by engines::parseArgs below.
    }
    const engines::EngineOptions engine_opts =
        engines::parseArgs(argc, argv);
    {
        // Default is 8 shards; an explicit --shards/MLC_SHARDS
        // (even 1) wins.
        bool given = std::getenv("MLC_SHARDS") != nullptr;
        for (int i = 1; i < argc; ++i)
            given = given || std::string_view(argv[i]).substr(
                                 0, 8) == "--shards";
        if (given)
            shards = engine_opts.shards;
    }
    const std::size_t jobs = engine_opts.jobs;

    // --- Exactness gate 1: golden machine variants ---------------
    std::cerr << "onepass sharded: exactness over golden machine "
                 "variants (" << golden_refs << " refs)...\n";
    const std::vector<trace::MemRef> refs = [&] {
        auto gen = trace::makeMultiprogrammedWorkload(4, 6000, 0);
        return trace::collect(*gen, golden_refs);
    }();
    bool profiles_identical = true;
    std::size_t golden_families = 0;
    for (const auto &[name, machine] : goldenMachines()) {
        const onepass::FamilySpec family = onepass::FamilySpec::l2Grid(
            machine,
            {16 << 10, 64 << 10, 256 << 10, 1024 << 10});
        onepass::ProfileOptions scalar_opts;
        scalar_opts.solo = true;
        scalar_opts.faBound = true;
        const onepass::TraceProfile scalar = onepass::profileTrace(
            machine, family, refs, golden_refs / 4, scalar_opts);
        for (const std::size_t s : {std::size_t{2}, shards}) {
            onepass::ProfileOptions opts = scalar_opts;
            opts.shards = s;
            const onepass::TraceProfile sharded =
                onepass::profileTrace(machine, family, refs,
                                      golden_refs / 4, opts);
            profiles_identical =
                bitIdentical(scalar, sharded,
                             name + " shards=" +
                                 std::to_string(s)) &&
                profiles_identical;
        }
        ++golden_families;
    }

    // --- Speed + exactness gate 2: the Figure 4-1 grid -----------
    const auto store =
        bench::materializeAll(expt::gridSuite(), jobs);
    const auto sizes = expt::paperSizes();
    const auto cycles = expt::paperCycles();

    std::cerr << "  grid scalar (shards=1)...\n";
    const auto s0 = std::chrono::steady_clock::now();
    const expt::DesignSpaceGrid scalar_grid =
        onepass::buildGrid(hier::HierarchyParams::baseMachine(),
                           sizes, cycles, store, jobs, 1);
    const double scalar_s = seconds(s0);

    std::cerr << "  grid sharded (shards=" << shards << ")...\n";
    const auto c0 = std::chrono::steady_clock::now();
    const expt::DesignSpaceGrid sharded_grid =
        onepass::buildGrid(hier::HierarchyParams::baseMachine(),
                           sizes, cycles, store, jobs, shards);
    const double sharded_s = seconds(c0);

    bool grid_identical = true;
    for (std::size_t s = 0; s < sizes.size(); ++s)
        for (std::size_t c = 0; c < cycles.size(); ++c)
            if (scalar_grid.at(s, c) != sharded_grid.at(s, c)) {
                std::cerr << "  MISMATCH (grid): cell (" << s
                          << "," << c << ") "
                          << scalar_grid.at(s, c) << " vs "
                          << sharded_grid.at(s, c) << "\n";
                grid_identical = false;
            }

    const double speedup = scalar_s / sharded_s;
    const bench::GateStatus gate =
        bench::gateStatus(min_speedup, shards);

    std::cout << "{\"shards\":" << shards << ",\"jobs\":" << jobs
              << ",\"golden_families\":" << golden_families
              << ",\"golden_refs\":" << golden_refs
              << ",\"grid_cells\":" << sizes.size() * cycles.size()
              << ",\"profiles_identical\":"
              << (profiles_identical ? "true" : "false")
              << ",\"grid_identical\":"
              << (grid_identical ? "true" : "false")
              << ",\"scalar_s\":" << scalar_s
              << ",\"sharded_s\":" << sharded_s
              << ",\"speedup\":" << speedup
              << ",\"min_speedup\":" << min_speedup
              << ",\"speedup_gate\":\"" << gate.name()
              << "\",\"hw_threads\":" << gate.hwThreads
              << ",\"max_rss_kb\":" << bench::maxRssJson() << ","
              << bench::provenanceJson() << "}\n";

    if (!profiles_identical)
        mlc_fatal("sharded profile is not bit-identical to the "
                  "scalar sweep");
    if (!grid_identical)
        mlc_fatal("sharded grid diverged from the scalar grid");
    if (gate.enforced() && speedup < min_speedup)
        mlc_fatal("sharded speedup ", speedup, "x below the ",
                  min_speedup, "x gate at ", shards, " shards");
    std::cerr << "  ok: bit-identical, " << speedup
              << "x, speedup gate " << gate.reason() << "\n";
    return 0;
}
