/**
 * @file
 * Persistent live-point farm versus re-warming: the speedup and
 * bit-exactness gates for ckpt/store.hh + sample/sweep.hh's
 * store-backed path.
 *
 * One long synthetic trace (the checkpoint_sweep workload), an
 * 8-configuration L2 size sweep, three arms at the same jobs
 * count:
 *
 *  - farm build: buildCheckpointFarm() publishes (or detects) the
 *    live-point file for the sweep's (trace, schedule, warmer) key
 *    — when a prior invocation built it, this run measures a true
 *    cold-process reload;
 *  - re-warm: runSweepCheckpointed() with no store, paying the
 *    full in-memory functional warming pass (the cost a farm
 *    amortizes away);
 *  - from-farm: runSweepCheckpointed() with the store attached,
 *    which must load every window from disk (fromCheckpointFile)
 *    and never construct the warmer.
 *
 * Gates (exit non-zero on any failure):
 *  - from-farm results bit-identical to the re-warm arm and to
 *    straight-line runSampled() per configuration (always);
 *  - from-farm must actually report fromCheckpointFile (always);
 *  - from-farm wall clock >= --min-speedup x faster than re-warm
 *    (default 2; self-skips when the host has fewer hardware
 *    threads than --jobs, or with --min-speedup=0 — the identity
 *    gates still run).
 *
 *   $ ./checkpoint_persist [refs] [--jobs=N] [--min-speedup=X]
 *                          [--farm=DIR] [--build-only]
 *
 * The default 2e8 references is the at-scale configuration; CI
 * runs a scaled-down version twice — `--build-only` first, then a
 * full run against the same farm — so the reload arm crosses a
 * real process boundary.
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "engines/engines.hh"
#include "ckpt/store.hh"
#include "hier/hierarchy.hh"
#include "sample/engine.hh"
#include "sample/sweep.hh"
#include "trace/synthetic_source.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace mlc;

namespace {

double
seconds(std::chrono::steady_clock::time_point t0)
{
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - t0;
    return d.count();
}

/** Skip-heavy 20-window schedule, scaled to the trace length
 *  (checkpoint_sweep's regime: warming dominates). */
sample::SampledOptions
scheduleFor(std::uint64_t refs)
{
    sample::SampledOptions o;
    o.period = refs / 20;
    o.measureRefs = 30'000;
    o.detailWarmRefs = 2'000;
    o.functionalWarmRefs = (o.period * 3) / 5;
    return o;
}

/** The exact-equality gate between two arms' results. */
bool
bitIdentical(const sample::SampledResult &a,
             const sample::SampledResult &b, std::size_t config,
             const char *what)
{
    auto fail = [&](const char *field) {
        std::cerr << "  MISMATCH (" << what << "): config "
                  << config << " field " << field << "\n";
        return false;
    };
    if (a.estCpi != b.estCpi)
        return fail("estCpi");
    if (a.estRelExecTime != b.estRelExecTime)
        return fail("estRelExecTime");
    if (a.windowCpiValues != b.windowCpiValues)
        return fail("windowCpiValues");
    if (a.cyclesMeasured != b.cyclesMeasured)
        return fail("cyclesMeasured");
    if (a.instructionsMeasured != b.instructionsMeasured)
        return fail("instructionsMeasured");
    if (a.functional.totalCycles != b.functional.totalCycles)
        return fail("functional.totalCycles");
    if (a.functional.references != b.functional.references)
        return fail("functional.references");
    if (a.functional.levels.size() != b.functional.levels.size())
        return fail("functional.levels.size");
    for (std::size_t i = 0; i < a.functional.levels.size(); ++i) {
        if (a.functional.levels[i].readRequests !=
                b.functional.levels[i].readRequests ||
            a.functional.levels[i].readMisses !=
                b.functional.levels[i].readMisses ||
            a.functional.levels[i].localMissRatio !=
                b.functional.levels[i].localMissRatio ||
            a.functional.levels[i].globalMissRatio !=
                b.functional.levels[i].globalMissRatio)
            return fail("functional.levels miss counters");
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t refs = 200'000'000;
    double min_speedup = 2.0;
    std::string farm_dir = "ckpt_persist_farm";
    bool build_only = false;
    std::vector<std::string> args;
    const std::size_t jobs = engines::parseArgs(argc, argv, &args).jobs;
    for (const std::string &arg : args) {
        if (!arg.empty() && arg[0] >= '0' && arg[0] <= '9')
            refs = std::strtoull(arg.c_str(), nullptr, 0);
        else if (arg.rfind("--refs=", 0) == 0)
            refs = std::strtoull(arg.c_str() + 7, nullptr, 0);
        else if (arg.rfind("--min-speedup=", 0) == 0)
            min_speedup = bench::gateFloor(arg);
        else if (arg.rfind("--farm=", 0) == 0)
            farm_dir = arg.substr(7);
        else if (arg == "--build-only")
            build_only = true;
        else
            mlc_fatal("unknown argument ", arg);
    }

    trace::SyntheticTraceParams tp;
    tp.totalRefs = refs;
    tp.processes = 4;
    tp.switchInterval = 8'000;
    tp.profile =
        trace::StackDepthProfile::pareto(0.60, 4.0, 1u << 14);

    std::cerr << "checkpoint persist: " << refs
              << " refs, 8-config L2 size sweep, jobs=" << jobs
              << ", farm=" << farm_dir << "\n  generating...\n";
    const auto g0 = std::chrono::steady_clock::now();
    std::vector<trace::MemRef> stream(refs);
    {
        trace::SyntheticTraceSource src(tp, 7);
        src.nextBatch(stream.data(), stream.size());
    }
    const double gen_s = seconds(g0);
    const trace::RefSpan span{stream.data(), stream.size()};

    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    std::vector<hier::HierarchyParams> configs;
    for (const std::uint64_t kb :
         {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u, 8192u})
        configs.push_back(base.withL2(kb * 1024, 3));

    const sample::SampledOptions opts = scheduleFor(refs);
    ckpt::CheckpointStore store(farm_dir);
    const std::string trace_id = "bench/sampled-synthetic";

    // Arm 0: build (or detect) the farm entry. A pre-existing
    // entry from an earlier invocation makes the from-farm arm a
    // genuine cold-process reload.
    std::cerr << "  farm build/detect...\n";
    const auto b0 = std::chrono::steady_clock::now();
    const sample::FarmBuildResult built = sample::buildCheckpointFarm(
        configs, span, opts, store, trace_id);
    const double build_s = seconds(b0);
    std::cerr << "    " << (built.built ? "built " : "found ")
              << built.path << " (" << built.fileBytes
              << " bytes)\n";

    if (build_only) {
        std::cout << "{\"refs\":" << refs
                  << ",\"configs\":" << configs.size()
                  << ",\"jobs\":" << jobs
                  << ",\"generate_s\":" << gen_s
                  << ",\"build_only\":true,\"farm_built\":"
                  << (built.built ? "true" : "false")
                  << ",\"build_s\":" << build_s
                  << ",\"farm_windows\":" << built.windows
                  << ",\"farm_bytes\":" << built.fileBytes
                  << ",\"max_rss_kb\":" << bench::maxRssJson()
                  << "," << bench::provenanceJson() << "}\n";
        return 0;
    }

    // Arm 1: re-warm — the in-memory checkpointed sweep with no
    // store, paying the functional warming a farm makes durable.
    std::cerr << "  re-warm (in-memory checkpointed sweep)...\n";
    const auto r0 = std::chrono::steady_clock::now();
    const sample::SweepResult rewarm =
        sample::runSweepCheckpointed(configs, span, opts, jobs);
    const double rewarm_s = seconds(r0);
    if (!rewarm.checkpointed)
        mlc_fatal("re-warm arm fell back to straight-line");

    // Arm 2: from-farm — load every window's warm state from the
    // published file; the warmer machine is never constructed.
    std::cerr << "  from-farm (persisted live-points)...\n";
    sample::CheckpointPolicy policy;
    policy.store = &store;
    policy.traceId = trace_id;
    policy.buildIfMissing = false;
    const auto f0 = std::chrono::steady_clock::now();
    const sample::SweepResult farm = sample::runSweepCheckpointed(
        configs, span, opts, jobs, nullptr, policy);
    const double farm_s = seconds(f0);
    if (!farm.fromCheckpointFile)
        mlc_fatal("from-farm arm did not load the checkpoint "
                  "file (fallback: ",
                  farm.checkpointFallback.empty()
                      ? "none"
                      : farm.checkpointFallback,
                  ")");

    // Arm 3: straight-line — the full pre-checkpoint cost, and
    // the strongest identity anchor (no shared warming at all).
    std::cerr << "  straight-line (" << configs.size()
              << " configs x full warming)...\n";
    const auto s0 = std::chrono::steady_clock::now();
    std::vector<sample::SampledResult> straight(configs.size());
    parallelFor(jobs, configs.size(), [&](std::size_t c) {
        straight[c] = sample::runSampled(configs[c], span, opts);
    });
    const double straight_s = seconds(s0);

    bool identical_rewarm = true, identical_straight = true;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        identical_rewarm =
            bitIdentical(farm.perConfig[c], rewarm.perConfig[c], c,
                         "from-farm vs re-warm") &&
            identical_rewarm;
        identical_straight =
            bitIdentical(farm.perConfig[c], straight[c], c,
                         "from-farm vs straight-line") &&
            identical_straight;
    }

    const double speedup = rewarm_s / farm_s;
    // The wall-clock gate needs the machine to itself; a host with
    // fewer hardware threads than the requested jobs count is
    // already oversubscribed, so only the identity gates (which
    // care about bits, not time) stay enforced there.
    const bench::GateStatus gate = bench::gateStatus(min_speedup, jobs);

    std::cout << "{\"refs\":" << refs
              << ",\"configs\":" << configs.size()
              << ",\"jobs\":" << jobs
              << ",\"generate_s\":" << gen_s
              << ",\"farm_built\":" << (built.built ? "true" : "false")
              << ",\"build_s\":" << build_s
              << ",\"farm_windows\":" << built.windows
              << ",\"farm_bytes\":" << built.fileBytes
              << ",\"rewarm_s\":" << rewarm_s
              << ",\"from_farm_s\":" << farm_s
              << ",\"straight_line_s\":" << straight_s
              << ",\"speedup\":" << speedup
              << ",\"min_speedup\":" << min_speedup
              << ",\"speedup_gate\":\"" << gate.name()
              << "\",\"from_checkpoint_file\":"
              << (farm.fromCheckpointFile ? "true" : "false")
              << ",\"bit_identical_rewarm\":"
              << (identical_rewarm ? "true" : "false")
              << ",\"bit_identical_straight\":"
              << (identical_straight ? "true" : "false")
              << ",\"prefix_levels\":" << farm.prefixLevels
              << ",\"windows\":"
              << farm.perConfig.front().windowCpiValues.size()
              << ",\"max_rss_kb\":" << bench::maxRssJson() << ","
              << bench::provenanceJson() << "}\n";

    if (!identical_rewarm)
        mlc_fatal("from-farm sweep is not bit-identical to the "
                  "re-warm arm");
    if (!identical_straight)
        mlc_fatal("from-farm sweep is not bit-identical to "
                  "straight-line warming");
    if (gate.enforced() && speedup < min_speedup)
        mlc_fatal("farm reload speedup ", speedup, "x below the ",
                  min_speedup, "x gate");
    std::cerr << "  ok: " << speedup << "x vs re-warm ("
              << "speedup gate " << gate.reason()
              << "), bit-identical to re-warm and straight-line\n";
    return 0;
}
