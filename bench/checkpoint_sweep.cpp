/**
 * @file
 * Checkpoint-and-branch sweep versus straight-line warming: the
 * speedup and bit-exactness gates for sample/sweep.hh.
 *
 * One long synthetic trace (the sampled_vs_full workload) and two
 * L2 families: 8 sizes at one cycle time, where every configuration
 * is its own functional hierarchy, and the same 8 sizes at cycle
 * times {3, 6}, where each size's second cycle time follows its
 * first (it replays the first one's level tapes). Each family runs
 * two ways at the same jobs count:
 *
 *  - straight-line: runSampled() per configuration, every one
 *    paying the full functional warm of every window;
 *  - checkpointed: runSweepCheckpointed(), one warming pass per
 *    window shared by all configurations.
 *
 * Gates (exit non-zero on any failure), per family:
 *  - per-configuration CPI, window samples and miss-ratio counters
 *    bit-identical between the two ways (always);
 *  - checkpointed wall clock >= --min-speedup x faster (default 3);
 *  - checkpointed results bit-identical across jobs counts;
 * and once:
 *  - the matched-pair delta interval strictly narrower than either
 *    absolute interval.
 *
 *   $ ./checkpoint_sweep [refs] [--jobs=N] [--min-speedup=X]
 *                        [--adaptive-warm]
 *
 * The default 2e8 references is the at-scale configuration (~3.2GB
 * of trace); CI runs a scaled-down version with a reduced speedup
 * floor (warming amortizes less over short traces).
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "engines/engines.hh"
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

/** Skip-heavy 20-window schedule, scaled to the trace length. */
sample::SampledOptions
scheduleFor(std::uint64_t refs, bool adaptive)
{
    sample::SampledOptions o;
    o.period = refs / 20;
    o.measureRefs = 30'000;
    o.detailWarmRefs = 2'000;
    // 60% of each period spent warming: the regime the checkpoint
    // exists for (warming dominates, measurement is cheap).
    o.functionalWarmRefs = (o.period * 3) / 5;
    o.adaptiveWarm = adaptive;
    return o;
}

/** The exact-equality gate between the two arms' results. */
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
    double min_speedup = 3.0;
    bool adaptive = false;
    std::vector<std::string> args;
    const std::size_t jobs = engines::parseArgs(argc, argv, &args).jobs;
    for (const std::string &arg : args) {
        if (!arg.empty() && arg[0] >= '0' && arg[0] <= '9')
            refs = std::strtoull(arg.c_str(), nullptr, 0);
        else if (arg.rfind("--refs=", 0) == 0)
            refs = std::strtoull(arg.c_str() + 7, nullptr, 0);
        else if (arg.rfind("--min-speedup=", 0) == 0)
            min_speedup = bench::gateFloor(arg);
        else if (arg == "--adaptive-warm")
            adaptive = true;
        else
            mlc_fatal("unknown argument ", arg);
    }

    trace::SyntheticTraceParams tp;
    tp.totalRefs = refs;
    tp.processes = 4;
    tp.switchInterval = 8'000;
    tp.profile =
        trace::StackDepthProfile::pareto(0.60, 4.0, 1u << 14);

    std::cerr << "checkpoint sweep: " << refs
              << " refs, 8-size and 8x2 L2 sweeps, jobs=" << jobs
              << "\n  generating...\n";
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
    const std::vector<std::uint64_t> sizes_kb = {
        64, 128, 256, 512, 1024, 2048, 4096, 8192};
    const sample::SampledOptions opts = scheduleFor(refs, adaptive);

    // One family, straight-line then checkpointed.
    struct Arm
    {
        const char *name = "";
        std::vector<hier::HierarchyParams> configs;
        double straight_s = 0.0;
        double check_s = 0.0;
        bool identical = false;
        bool jobs_invariant = true;
        sample::SweepResult sweep;
    };
    const auto runArm = [&](Arm &arm) {
        const std::vector<hier::HierarchyParams> &configs = arm.configs;
        // Straight-line: every configuration warms every window
        // itself (the pre-checkpoint behaviour), at the same jobs
        // count as the sweep for an honest wall-clock comparison.
        std::cerr << "  " << arm.name << ": straight-line ("
                  << configs.size() << " configs x full warming)...\n";
        const auto s0 = std::chrono::steady_clock::now();
        std::vector<sample::SampledResult> straight(configs.size());
        {
            // The sweep resolves adaptive warming once for the
            // whole family (against the largest deepest cache,
            // configs.back() here); hold the straight-line arm to
            // the same resolved schedule so the arms stay
            // comparable bit for bit.
            sample::SampledOptions fixed = opts;
            if (adaptive) {
                fixed.functionalWarmRefs =
                    sample::deriveFunctionalWarmRefs(
                        span, configs.back(), opts);
                fixed.adaptiveWarm = false;
            }
            parallelFor(jobs, configs.size(), [&](std::size_t c) {
                straight[c] =
                    sample::runSampled(configs[c], span, fixed);
            });
        }
        arm.straight_s = seconds(s0);

        std::cerr << "  " << arm.name
                  << ": checkpointed (one warming pass per window)...\n";
        const auto c0 = std::chrono::steady_clock::now();
        arm.sweep = sample::runSweepCheckpointed(configs, span, opts,
                                                 jobs);
        arm.check_s = seconds(c0);

        arm.identical = arm.sweep.checkpointed;
        if (!arm.sweep.checkpointed)
            std::cerr << "  ERROR: sweep fell back to straight-line\n";
        for (std::size_t c = 0; c < configs.size(); ++c)
            arm.identical =
                bitIdentical(arm.sweep.perConfig[c], straight[c], c,
                             "checkpointed vs straight") &&
                arm.identical;

        // Jobs-composition gate: an alternate jobs count must not
        // move a single bit.
        const std::size_t alt_jobs = jobs == 1 ? 2 : 1;
        std::cerr << "  " << arm.name << ": checkpointed again at jobs="
                  << alt_jobs << " (determinism gate)...\n";
        const sample::SweepResult alt = sample::runSweepCheckpointed(
            configs, span, opts, alt_jobs);
        for (std::size_t c = 0; c < configs.size(); ++c)
            arm.jobs_invariant =
                bitIdentical(arm.sweep.perConfig[c], alt.perConfig[c],
                             c, "jobs composition") &&
                arm.jobs_invariant;
    };

    Arm sizes;
    sizes.name = "sizes";
    for (const std::uint64_t kb : sizes_kb)
        sizes.configs.push_back(base.withL2(kb * 1024, 3));
    Arm grouped;
    grouped.name = "grouped";
    for (const std::uint64_t kb : sizes_kb)
        for (const std::uint32_t cycles : {3u, 6u})
            grouped.configs.push_back(base.withL2(kb * 1024, cycles));
    runArm(sizes);
    runArm(grouped);
    const std::vector<hier::HierarchyParams> &configs = sizes.configs;

    // Matched-pair gate: adjacent L2 sizes — the case matched
    // pairs exist for (near designs, highly correlated window
    // CPIs). The delta interval must beat both absolutes.
    std::cerr << "  matched-pair (64KB vs 128KB L2)...\n";
    const sample::PairedResult paired = sample::runPaired(
        configs[0], configs[1], span, opts, jobs);
    const bool narrower =
        paired.deltaInterval.halfWidth <
            paired.a.cpiInterval.halfWidth &&
        paired.deltaInterval.halfWidth <
            paired.b.cpiInterval.halfWidth;

    const auto armJson = [](const Arm &arm) {
        std::cout << "{\"configs\":" << arm.configs.size()
                  << ",\"straight_line_s\":" << arm.straight_s
                  << ",\"checkpointed_s\":" << arm.check_s
                  << ",\"speedup\":" << arm.straight_s / arm.check_s
                  << ",\"bit_identical\":"
                  << (arm.identical ? "true" : "false")
                  << ",\"jobs_invariant\":"
                  << (arm.jobs_invariant ? "true" : "false") << "}";
    };
    const sample::SampledResult &first = sizes.sweep.perConfig.front();
    std::cout << "{\"refs\":" << refs
              << ",\"configs\":" << configs.size()
              << ",\"jobs\":" << jobs
              << ",\"generate_s\":" << gen_s
              << ",\"straight_line_s\":" << sizes.straight_s
              << ",\"checkpointed_s\":" << sizes.check_s
              << ",\"speedup\":" << sizes.straight_s / sizes.check_s
              << ",\"min_speedup\":" << min_speedup
              << ",\"bit_identical\":"
              << (sizes.identical && grouped.identical ? "true"
                                                       : "false")
              << ",\"jobs_invariant\":"
              << (sizes.jobs_invariant && grouped.jobs_invariant
                      ? "true"
                      : "false")
              << ",\"arms\":{\"sizes\":";
    armJson(sizes);
    std::cout << ",\"grouped\":";
    armJson(grouped);
    std::cout << "},\"prefix_levels\":" << sizes.sweep.prefixLevels
              << ",\"windows\":" << first.windowCpiValues.size()
              << ",\"warm_refs_per_window\":"
              << first.warmRefsPerWindow << ",\"warm_path\":\""
              << (first.adaptiveWarmUsed ? "adaptive" : "fixed")
              << "\",\"paired\":{\"windows\":"
              << paired.windowsPaired
              << ",\"delta_cpi\":" << paired.deltaInterval.mean
              << ",\"delta_half_width\":"
              << paired.deltaInterval.halfWidth
              << ",\"abs_half_width_a\":"
              << paired.a.cpiInterval.halfWidth
              << ",\"abs_half_width_b\":"
              << paired.b.cpiInterval.halfWidth
              << ",\"correlation\":" << paired.pairs.correlation()
              << ",\"narrower_than_both\":"
              << (narrower ? "true" : "false") << "}"
              << ",\"max_rss_kb\":" << bench::maxRssJson() << ","
              << bench::provenanceJson() << "}\n";

    for (const Arm *arm : {&sizes, &grouped}) {
        if (!arm->identical)
            mlc_fatal(arm->name, ": checkpointed sweep is not "
                      "bit-identical to straight-line warming");
        if (!arm->jobs_invariant)
            mlc_fatal(arm->name, ": checkpointed sweep changed with "
                      "the jobs count");
        const double speedup = arm->straight_s / arm->check_s;
        if (speedup < min_speedup)
            mlc_fatal(arm->name, ": sweep speedup ", speedup,
                      "x below the ", min_speedup, "x gate");
    }
    if (!narrower)
        mlc_fatal("paired delta half-width ",
                  paired.deltaInterval.halfWidth,
                  " not narrower than both absolute half-widths (",
                  paired.a.cpiInterval.halfWidth, ", ",
                  paired.b.cpiInterval.halfWidth, ")");
    std::cerr << "  ok: " << sizes.straight_s / sizes.check_s << "x and "
              << grouped.straight_s / grouped.check_s
              << "x, bit-identical, paired "
              << "CI " << paired.deltaInterval.halfWidth << " vs "
              << paired.a.cpiInterval.halfWidth << "/"
              << paired.b.cpiInterval.halfWidth << "\n";
    return 0;
}
