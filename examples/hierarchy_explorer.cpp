/**
 * @file
 * The paper's simulator front end: "The simulation system reads a
 * file that specifies the depth of the cache hierarchy and the
 * configuration of each cache."
 *
 *   $ ./hierarchy_explorer <config.cfg>... [trace-file] [refs]
 *                          [--jobs=N] [--shards=N]
 *                          [--engine=timing|onepass|sampled|mrc]
 *                          [--sample-rate=P] [--sample-budget=N]
 *                          [--warm=N] [--paired]
 *
 * Arguments ending in .cfg are hierarchy descriptions; passing
 * several compares the machines over the same reference stream,
 * simulated N configurations at a time (default: MLC_JOBS or all
 * cores). Reports print in command-line order regardless of N.
 * Without a trace file, the synthetic multiprogramming workload is
 * used (pass "" to skip the argument). Set MLC_STATS=1 to append
 * the full stats-package dump to each report. Sample configurations
 * live in examples/configs/.
 *
 * --engine=onepass replays each machine's reference stream through
 * the one-pass miss-ratio engine instead of the timing simulator:
 * the reported miss ratios are exact (bit-identical to the
 * simulator's) while the timing numbers come from the Equation 1-3
 * analytical model. A three-level machine is profiled by the
 * cascade engine, its L2 the one exactly replayed pivot; deeper
 * machines need the timing engine.
 *
 * --engine=sampled replays a scheduled subset of the stream through
 * the full timing simulator (statistical sampling, DESIGN.md §5d):
 * CPI is reported as an estimate with a 95% confidence interval,
 * miss ratios are exact over the replayed subset. Works for any
 * hierarchy depth; pays off on long traces. MLCT binary traces are
 * mapped with lazy validation so skipped windows never fault their
 * pages in, and the per-window warming length is derived from the
 * trace's measured stack-depth tail by default (each report logs
 * which path was taken); --warm=N forces a fixed length instead.
 *
 * --engine=mrc is the one-pass report over a spatially-sampled
 * subset of each cache's sets (DESIGN.md §5i): the same report
 * shape as --engine=onepass with approximate miss ratios at a
 * fraction of the tag state (exact at --sample-rate=1.0, the
 * default here). --sample-budget=N bounds live sampled lines
 * (adaptive mode). Three-level machines replay their L1 and L2
 * exactly and sample the L3. Under both one-pass engines an MLCT
 * binary trace streams through the profiler in fixed-size chunks
 * with lazy validation, so the trace never needs to fit in RAM.
 *
 * --engine=sampled --paired (exactly two .cfg files) additionally
 * runs the matched-pair comparison: both machines measure the same
 * windows from checkpointed warm state (DESIGN.md §5e), and the
 * CPI-delta confidence interval — typically far narrower than
 * either absolute interval — is reported alongside them.
 */

#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "engines/engines.hh"
#include "hier/config_file.hh"
#include "hier/hierarchy.hh"
#include "hier/sim_stats.hh"
#include "onepass/model_timing.hh"
#include "sample/engine.hh"
#include "sample/sweep.hh"
#include "trace/binary.hh"
#include "trace/interleave.hh"
#include "trace/source.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/thread_pool.hh"

using namespace mlc;

namespace {

/**
 * The one-pass report (onepass or mrc engine, two or three levels):
 * profile the machine's own family over @p refs, then one line per
 * downstream level and the Equation 1-3 account.
 */
void
reportProfile(std::ostream &os, const engines::EngineOptions &opts,
              const hier::HierarchyParams &params, trace::RefSpan refs,
              std::uint64_t warmup,
              const trace::MappedBinaryTrace *mapped)
{
    const onepass::TraceProfile prof = std::move(engines::profile(
        opts, params,
        engines::familyFor(params,
                           {params.levels[0].geometry.sizeBytes}),
        refs, warmup, mapped, params.measureSolo)[0]);
    const onepass::EqTimingModel model =
        onepass::EqTimingModel::forMachine(params);
    const bool cascade = !prof.pivotChain.empty();
    const double rate = opts.sampler.rate;
    if (opts.engine == engines::Engine::OnePass && cascade)
        os << "one-pass cascade engine: exact miss ratios at every "
              "level; timing from the Equation 1-3 model\n";
    else if (opts.engine == engines::Engine::OnePass)
        os << "one-pass engine: exact miss ratios; timing from the "
              "Equation 1-3 model\n";
    else if (cascade)
        os << "mrc cascade engine: exact L1/L2 replay, sampled L3 "
              "(rate " << rate
           << "); timing from the Equation 1-3 model\n";
    else
        os << "mrc engine: sampled miss ratios (rate " << rate
           << "); timing from the Equation 1-3 model\n";
    os << "  instructions        " << prof.instructions << "\n"
       << "  reads / writes      " << prof.cpuReads() << " / "
       << prof.stores << "\n"
       << "  L1 read misses      " << prof.l1ReadMisses << " of "
       << prof.l1ReadRequests << " (ratio "
       << prof.l1GlobalMissRatio() << ")\n";

    // The downstream levels, outermost first: the replayed pivots,
    // then the profiled member.
    std::vector<onepass::PivotLink> levels = prof.pivotChain;
    levels.push_back({prof.configs[0].spec, prof.configs[0].filtered,
                      prof.configs[0].solo});
    for (std::size_t k = 0; k < levels.size(); ++k) {
        const onepass::GhostCounts &c = levels[k].counts;
        os << "  L" << k + 2 << " read misses      " << c.readMisses
           << " of " << c.reads << " (local " << c.localMissRatio()
           << ", global " << c.globalMissRatio(prof.cpuReads())
           << ")\n";
    }
    if (params.measureSolo)
        for (std::size_t k = 0; k < levels.size(); ++k)
            os << "  L" << k + 2 << " solo miss ratio  "
               << levels[k].solo.localMissRatio() << "\n";
    os << "  model latencies     nL2 " << model.nL2() << " cyc";
    for (std::size_t k = 1; k < model.depth(); ++k)
        os << ", nL" << k + 2 << " " << model.levelCycles(k) << " cyc";
    os << ", nMMread " << model.nMMread() << " cyc, write extra "
       << model.writeExtra() << " cyc\n"
       << "  modelled CPI        " << model.cpi(prof, 0) << "\n"
       << "  modelled rel exec   " << model.relExec(prof, 0) << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // --sample-rate defaults to 1.0 here: exact, like onepass.
    mrc::SamplerConfig exact_rate;
    exact_rate.rate = 1.0;
    std::vector<std::string> args;
    const engines::EngineOptions opts =
        engines::parseArgs(argc, argv, &args, exact_rate);
    const bool timing = opts.engine == engines::Engine::Timing;
    const bool sampled = opts.engine == engines::Engine::Sampled;
    std::vector<std::string> config_paths;
    std::string trace_path;
    std::uint64_t refs = 1'500'000;
    bool refs_given = false;
    bool paired = false;
    std::uint64_t fixed_warm = 0;
    bool warm_given = false;

    for (const std::string &a : args) {
        const std::string_view arg = a;
        if (arg == "--paired") {
            paired = true;
        } else if (startsWith(arg, "--warm=")) {
            unsigned long long w = 0;
            if (!parseUnsigned(arg.substr(7), w))
                mlc_fatal("bad --warm value in '", a, "'");
            fixed_warm = w;
            warm_given = true;
        } else if (endsWith(arg, ".cfg")) {
            config_paths.push_back(a);
        } else if (trace_path.empty() && !refs_given &&
                   !arg.empty() &&
                   (arg[0] < '0' || arg[0] > '9')) {
            trace_path = a;
        } else if (!arg.empty()) {
            refs = std::strtoull(a.c_str(), nullptr, 0);
            refs_given = true;
        }
    }

    if (config_paths.empty()) {
        std::cerr << "usage: hierarchy_explorer <config.cfg>... "
                     "[trace] [refs] [--jobs=N] [--shards=N]\n"
                     "         [--engine=timing|onepass|sampled|mrc] "
                     "[--sample-rate=P] [--sample-budget=N]\n"
                     "         [--warm=N] [--paired]\n";
        return 1;
    }
    if (paired && (!sampled || config_paths.size() != 2))
        mlc_fatal("--paired requires --engine=sampled and exactly "
                  "two .cfg files (got ", config_paths.size(), ")");

    std::vector<hier::HierarchyParams> params;
    params.reserve(config_paths.size());
    for (const auto &path : config_paths)
        params.push_back(hier::parseConfigFile(path));

    if (!timing && !sampled) {
        for (std::size_t i = 0; i < params.size(); ++i) {
            if (params[i].levels.size() < 1 ||
                params[i].levels.size() > 2)
                mlc_fatal("--engine=", engines::engineName(opts.engine),
                          " prices two-level (L1 + one downstream "
                          "cache) and three-level (cascade) "
                          "hierarchies; ", config_paths[i],
                          " has ", params[i].levels.size(),
                          " downstream levels — use the timing "
                          "engine for deeper machines");
        }
    }

    // Materialize the reference stream once (warmup + measure) and
    // share it read-only across every configuration, so all
    // machines see the identical stream.
    const std::uint64_t warmup = refs / 3;
    std::vector<trace::MemRef> stream;
    std::unique_ptr<trace::MappedBinaryTrace> mapped;
    trace::RefSpan replay_all;
    std::string stream_name;
    if (!trace_path.empty()) {
        stream_name = trace_path;
        if (trace::isMappable(trace_path)) {
            // MLCT binary: map the file and replay it in place.
            // The sampled and one-pass engines validate only the
            // ranges they replay, so skipped windows never touch
            // their pages; the timing simulator keeps the eager
            // construction-time scan.
            mapped = std::make_unique<trace::MappedBinaryTrace>(
                trace_path, trace::MappedBinaryTrace::Backing::Auto,
                timing ? trace::MappedBinaryTrace::Validation::Eager
                       : trace::MappedBinaryTrace::Validation::Lazy);
            replay_all = mapped->span().first(warmup + refs);
        } else {
            stream = trace::collect(*trace::openTraceFile(trace_path),
                                    warmup + refs);
            replay_all = {stream.data(), stream.size()};
        }
    } else {
        auto source = trace::makeMultiprogrammedWorkload(6, 12000, 0);
        stream = trace::collect(*source, warmup + refs);
        stream_name = "built-in synthetic workload";
        replay_all = {stream.data(), stream.size()};
    }

    const bool want_stats = [] {
        const char *flag = std::getenv("MLC_STATS");
        return flag && flag[0] == '1';
    }();

    // One sampling schedule shared by every configuration (and the
    // paired comparison): ~40 windows, warming either fixed via
    // --warm=N or derived per machine from the measured stack-depth
    // tail of the trace prefix.
    sample::SampledOptions sopts;
    if (sampled) {
        sopts.period = replay_all.size / 40;
        sopts.measureRefs = sopts.period / 5;
        sopts.detailWarmRefs = 2'000;
        sopts.functionalWarmRefs = (sopts.period * 3) / 5;
        if (warm_given)
            sopts.functionalWarmRefs = fixed_warm;
        else
            sopts.adaptiveWarm = true;
    }

    // One buffered report per configuration, printed in
    // command-line order below no matter how simulations finish.
    std::vector<std::string> reports(params.size());
    parallelFor(opts.jobs, params.size(), [&](std::size_t i) {
        std::ostringstream os;
        os << "machine: " << params[i].summary() << "\n"
           << "trace: " << stream_name << "\n\n";
        if (!timing && !sampled) {
            reportProfile(os, opts, params[i], replay_all, warmup,
                          mapped.get());
        } else if (sampled) {
            // The sampled engine schedules its own warming, so it
            // takes the whole stream (warmup included) and the
            // explicit warmUp() of the timing path is not needed.
            const sample::SampledResult r = sample::runSampled(
                params[i], replay_all, sopts, mapped.get());
            os << "sampled engine: estimated timing, exact miss "
                  "ratios over the replayed subset\n"
               << "  CPI estimate        " << r.estCpi << " in ["
               << r.cpiInterval.lo() << ", " << r.cpiInterval.hi()
               << "] (95% CI, " << r.windowCpi.count()
               << " windows)\n"
               << "  warming             "
               << (r.adaptiveWarmUsed ? "adaptive" : "fixed")
               << " (" << r.warmRefsPerWindow
               << " refs/window)\n"
               << "  rel exec estimate   " << r.estRelExecTime
               << "\n"
               << "  replayed            "
               << r.refsTotal - r.refsSkipped << " of "
               << r.refsTotal << " refs\n";
            for (const hier::LevelResults &lvl :
                 r.functional.levels) {
                os << "  " << lvl.name << " read miss ratio  local "
                   << lvl.localMissRatio << ", global "
                   << lvl.globalMissRatio;
                if (lvl.hasSolo())
                    os << ", solo " << lvl.soloMissRatio;
                os << "\n";
            }
        } else {
            // Zero-copy replay: VectorSource would copy the whole
            // stream once per configuration.
            hier::HierarchySimulator sim(params[i]);
            sim.warmUp(replay_all.first(warmup));
            sim.run(replay_all.dropFirst(warmup));
            sim.results().print(os);
            if (want_stats) {
                os << "\n";
                hier::SimStats(sim).dump(os);
            }
        }
        reports[i] = os.str();
    });

    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (i > 0)
            std::cout << "\n========================================"
                         "==================\n\n";
        std::cout << reports[i];
    }

    if (paired) {
        // Both machines measure the same windows from checkpointed
        // warm state; report the CPI delta with its own (much
        // narrower) interval.
        const sample::PairedResult pr =
            sample::runPaired(params[0], params[1], replay_all,
                              sopts, opts.jobs, mapped.get());
        std::cout << "\n========================================"
                     "==================\n\n"
                  << "matched-pair comparison ("
                  << pr.windowsPaired << " paired windows, "
                  << (pr.a.adaptiveWarmUsed ? "adaptive" : "fixed")
                  << " warming, " << pr.a.warmRefsPerWindow
                  << " refs/window):\n"
                  << "  A " << config_paths[0] << ": CPI "
                  << pr.a.estCpi << " +- "
                  << pr.a.cpiInterval.halfWidth << "\n"
                  << "  B " << config_paths[1] << ": CPI "
                  << pr.b.estCpi << " +- "
                  << pr.b.cpiInterval.halfWidth << "\n"
                  << "  delta (B-A): " << pr.deltaInterval.mean
                  << " +- " << pr.deltaInterval.halfWidth
                  << " (95% CI), window correlation "
                  << pr.pairs.correlation() << "\n";
    }
    return 0;
}
