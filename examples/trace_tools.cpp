/**
 * @file
 * Trace toolbox: generate, convert and analyze trace files in the
 * library's two formats.
 *
 *   generate a trace:   trace_tools gen <out.trc> [refs] [procs]
 *   synthesize a trace: trace_tools synth <out.mlct> [refs]
 *                       [procs] [seed]
 *                       (seeded, profile-driven generator: the
 *                       stationary bounded-Pareto stream the
 *                       sampled engine is validated on; plain
 *                       binary output is mapped back and verified
 *                       against a regenerated prefix)
 *   convert formats:    trace_tools conv <in> <out>
 *                       (.din or .din.txt = Dinero ASCII, .mlcz =
 *                       compressed binary, anything else = MLCT
 *                       binary; trace::formatOf decides each
 *                       file's format from its name)
 *   analyze a trace:    trace_tools stat <in>
 *                       (reference mix, footprint, LRU stack-
 *                       distance profile, implied miss ratios)
 *   warm a trace:       trace_tools warm <in> [l2_size]
 *                       (pre-materialize the full stream, derive
 *                       the measured warm-up recommendation for
 *                       the deepest cache, and write it to the
 *                       <in>.warm.json sidecar the query server
 *                       loads at startup — separating cold-load
 *                       profiling from steady-state serving)
 *   sampled miss curves: trace_tools mrc <in.mlct> [--rate=P]
 *                       [--budget=N] [--sizes=a,b,...] [--warmup=N]
 *                       [--chunk=N]
 *                       (stream the trace mmap'd through the
 *                       sampled-MRC engine — DESIGN.md §5i — and
 *                       print the miss-ratio curve over the L2
 *                       family; the file is validated and released
 *                       chunk by chunk, so it never needs to fit
 *                       in RAM)
 *   checkpoint farms:   trace_tools ckpt build <farm> <trace>
 *                       [--seed=N] [--id=ID] [--sizes=a,b,...]
 *                       trace_tools ckpt ls <farm> [traceId]
 *                       trace_tools ckpt verify <farm>
 *                       trace_tools ckpt gc <farm> [--max-bytes=N]
 *                       [--max-age-days=D] [--dry-run]
 *                       (manage persistent live-point farms: build
 *                       runs the shared functional warmer over the
 *                       full sample schedule and publishes the
 *                       .mlcp file sampled sweeps load instead of
 *                       re-warming; ls prints verified headers;
 *                       verify deep-decodes every window of every
 *                       entry; gc retires entries over an age or
 *                       total-size limit, oldest first —
 *                       checkpoints are pure caches, so retirement
 *                       is always safe)
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "ckpt/store.hh"
#include "expt/design_space.hh"
#include "hier/hierarchy_config.hh"
#include "mrc/engine.hh"
#include "sample/engine.hh"
#include "sample/sweep.hh"
#include "serve/json.hh"
#include "trace/binary.hh"
#include "trace/compressed.hh"
#include "trace/dinero.hh"
#include "trace/interleave.hh"
#include "trace/source.hh"
#include "trace/stack_distance.hh"
#include "trace/synthetic_source.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace mlc;
using namespace mlc::trace;

namespace {

/**
 * Write up to @p limit references of @p src to @p path in the
 * format its name names (Dinero records carry the pid); exits 1
 * when the file cannot be created.
 * @return the number of references written.
 */
std::uint64_t
writeTrace(const std::string &path, TraceSource &src,
           std::uint64_t limit = std::numeric_limits<std::uint64_t>::max())
{
    const TraceFormat format = formatOf(path);
    std::ofstream out(path, format == TraceFormat::Dinero
                                ? std::ios::out
                                : std::ios::out | std::ios::binary);
    if (!out) {
        std::cerr << "cannot create " << path << "\n";
        std::exit(1);
    }
    // Batched: the stream never has to fit in memory, and MLCT
    // binary takes one stream write per batch.
    const auto pump = [&](auto &&writer) {
        std::vector<MemRef> batch(1u << 16);
        std::uint64_t n = 0;
        while (n < limit) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(batch.size(), limit - n));
            const std::size_t got = src.nextBatch(batch.data(), want);
            if (got == 0)
                break;
            if constexpr (requires { writer.putSpan(RefSpan{}); })
                writer.putSpan({batch.data(), got});
            else
                for (std::size_t i = 0; i < got; ++i)
                    writer.put(batch[i]);
            n += got;
        }
        if constexpr (requires { writer.finish(); })
            writer.finish();
        return n;
    };
    switch (format) {
      case TraceFormat::Dinero:
        return pump(DineroWriter(out, true));
      case TraceFormat::Compressed:
        return pump(CompressedWriter(out));
      case TraceFormat::Binary:
        break;
    }
    return pump(BinaryWriter(out));
}

/** A whole-string unsigned number, or a fatal "bad <name> value"
 *  before any work. */
std::uint64_t
unsignedArg(const std::string &name, const std::string &text)
{
    unsigned long long v = 0;
    if (!parseUnsigned(text, v))
        mlc_fatal("bad ", name, " value '", text, "'");
    return v;
}

/** The finite-double twin of unsignedArg(). */
double
doubleArg(const std::string &name, const std::string &text)
{
    double v = 0.0;
    if (!parseDouble(text, v) || !std::isfinite(v))
        mlc_fatal("bad ", name, " value '", text, "'");
    return v;
}

/** @{ @name "--name=value" flags through the parsers above */
std::uint64_t
unsignedFlag(const std::string &arg)
{
    const std::size_t eq = arg.find('=');
    return unsignedArg(arg.substr(0, eq), arg.substr(eq + 1));
}

double
doubleFlag(const std::string &arg)
{
    const std::size_t eq = arg.find('=');
    return doubleArg(arg.substr(0, eq), arg.substr(eq + 1));
}
/** @} */

int
cmdGenerate(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: trace_tools gen <out> [refs] [procs]\n";
        return 1;
    }
    const std::string path = argv[2];
    const std::uint64_t refs =
        argc > 3 ? unsignedArg("refs", argv[3]) : 1'000'000;
    const std::size_t procs =
        argc > 4 ? unsignedArg("procs", argv[4]) : 6;

    auto src = makeMultiprogrammedWorkload(procs, 12000, 0);
    writeTrace(path, *src, refs);
    std::cout << "wrote " << refs << " refs to " << path << "\n";
    return 0;
}

int
cmdSynth(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: trace_tools synth <out> [refs] "
                     "[procs] [seed]\n";
        return 1;
    }
    const std::string path = argv[2];
    const std::uint64_t refs =
        argc > 3 ? unsignedArg("refs", argv[3]) : 4'000'000;
    const std::size_t procs =
        argc > 4 ? unsignedArg("procs", argv[4]) : 4;
    const std::uint64_t seed =
        argc > 5 ? unsignedArg("seed", argv[5]) : 7;

    SyntheticTraceParams params;
    params.totalRefs = refs;
    params.processes = procs;
    params.switchInterval = 8'000;
    params.profile = StackDepthProfile::pareto(0.60, 4.0, 1u << 14);

    SyntheticTraceSource src(params, seed);
    const std::uint64_t n = writeTrace(path, src);
    std::cout << "wrote " << n << " refs to " << path << " (seed "
              << seed << ", " << procs << " procs, bounded-Pareto "
              << "profile)\n";

    // Round-trip: map the file back and verify it replays the
    // stream we just generated. Plain MLCT binary only — that is
    // the format the zero-copy replay path consumes.
    if (isMappable(path)) {
        SyntheticTraceSource again(params, seed);
        const std::vector<MemRef> head = collect(again, 65'536);
        MappedBinaryTrace mapped(path);
        if (mapped.span().size != n) {
            std::cerr << "round-trip FAILED: mapped "
                      << mapped.span().size << " refs, wrote " << n
                      << "\n";
            return 1;
        }
        for (std::size_t i = 0; i < head.size(); ++i) {
            if (!(mapped.span()[i] == head[i])) {
                std::cerr << "round-trip FAILED: ref " << i
                          << " differs after map-back\n";
                return 1;
            }
        }
        std::cout << "round-trip ok: mapped span matches ("
                  << head.size() << "-ref prefix verified)\n";
    }
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    if (argc < 4) {
        std::cerr << "usage: trace_tools conv <in> <out>\n";
        return 1;
    }
    auto src = openTraceFile(argv[2]);
    const std::uint64_t n = writeTrace(argv[3], *src);
    std::cout << "converted " << n << " refs\n";
    return 0;
}

int
cmdStat(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: trace_tools stat <in>\n";
        return 1;
    }
    auto src = openTraceFile(argv[2]);

    RefCounts counts;
    StackDistanceAnalyzer distances(16);
    MemRef ref;
    while (src->next(ref)) {
        counts.observe(ref);
        if (ref.isRead())
            distances.access(ref.addr);
    }

    // An ifetch-free or data-free trace is legal input (a
    // data-only conversion, a store-only kernel); print 0 for the
    // undefined ratio instead of a NaN that breaks downstream
    // parsing.
    const std::uint64_t data_refs = counts.loads + counts.stores;
    const double per_instr =
        counts.ifetches == 0
            ? 0.0
            : static_cast<double>(data_refs) /
                  static_cast<double>(counts.ifetches);
    const double store_frac =
        data_refs == 0 ? 0.0
                       : static_cast<double>(counts.stores) /
                             static_cast<double>(data_refs);
    std::cout << "references: " << counts.total() << " ("
              << counts.ifetches << " ifetch, " << counts.loads
              << " load, " << counts.stores << " store)\n"
              << "data refs per instruction: " << per_instr
              << "\nstore fraction of data refs: " << store_frac
              << "\nread footprint: "
              << formatSize(distances.distinctGranules() * 16)
              << " (16B granules)\n";

    Table t;
    t.addColumn("fully-assoc LRU capacity", Align::Left);
    t.addColumn("implied read miss ratio");
    for (std::uint64_t kb = 4; kb <= 4096; kb *= 4) {
        t.newRow()
            .cell(formatSize(kb << 10))
            .cell(distances.missRatio((kb << 10) / 16), 4);
    }
    std::cout << "\n";
    t.print(std::cout);
    return 0;
}

int
cmdWarm(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: trace_tools warm <in> [l2_size]\n";
        return 1;
    }
    const std::string path = argv[2];
    std::uint64_t l2_size = 0;
    if (argc > 3) {
        l2_size = unsignedArg("l2_size", argv[3]);
    } else {
        // Default to the largest candidate the server will ever be
        // asked about: a warm length derived for the deepest
        // hierarchy is sufficient for every smaller one.
        for (const std::uint64_t s : expt::paperSizes())
            l2_size = std::max(l2_size, s);
    }

    auto src = openTraceFile(path);
    // Pre-materialize the entire stream — this is the cold-load
    // cost the sidecar lets the server skip re-measuring.
    const std::vector<MemRef> refs = collect(
        *src, std::numeric_limits<std::uint64_t>::max());
    if (refs.empty()) {
        std::cerr << "warm: " << path << " holds no references\n";
        return 1;
    }
    const RefSpan span{refs.data(), refs.size()};

    const hier::HierarchyParams params =
        hier::HierarchyParams::baseMachine().withL2(l2_size, 3);
    sample::SampledOptions opts;
    const std::uint64_t warm =
        sample::deriveFunctionalWarmRefs(span, params, opts);

    serve::Json side = serve::Json::object();
    side.set("trace", serve::Json(path));
    side.set("refs", serve::Json(
                         static_cast<std::uint64_t>(refs.size())));
    side.set("l2_size", serve::Json(l2_size));
    side.set("warmup_refs", serve::Json(warm));
    const std::string side_path = path + ".warm.json";
    std::ofstream out(side_path);
    if (!out) {
        std::cerr << "warm: cannot create " << side_path << "\n";
        return 1;
    }
    out << side.dump() << "\n";
    out.close();

    std::cout << "profiled " << refs.size() << " refs against "
              << formatSize(l2_size)
              << " deepest cache: warmup_refs = " << warm << "\n"
              << "wrote " << side_path << "\n";
    return 0;
}

int
cmdMrc(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: trace_tools mrc <in.mlct> [--rate=P] "
                     "[--budget=N] [--sizes=a,b,...] [--warmup=N] "
                     "[--chunk=N] [--fa]\n";
        return 1;
    }
    const std::string path = argv[2];
    if (!isMappable(path)) {
        std::cerr << "mrc: streams MLCT binary traces only (got "
                  << path << "); use 'conv' first\n";
        return 1;
    }

    mrc::MrcOptions opts;
    std::vector<std::uint64_t> sizes;
    std::uint64_t warmup = 0;
    bool warmup_given = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (startsWith(arg, "--rate=")) {
            opts.sampler.rate = doubleFlag(arg);
            if (!(opts.sampler.rate > 0.0) ||
                opts.sampler.rate > 1.0) {
                std::cerr << "mrc: bad --rate value (expected a "
                             "rate in (0, 1])\n";
                return 1;
            }
        } else if (startsWith(arg, "--budget=")) {
            opts.sampler.budget = unsignedFlag(arg);
        } else if (startsWith(arg, "--warmup=")) {
            warmup = unsignedFlag(arg);
            warmup_given = true;
        } else if (startsWith(arg, "--chunk=")) {
            opts.streamChunkRefs = unsignedFlag(arg);
        } else if (arg == "--fa") {
            opts.faBound = true;
        } else if (startsWith(arg, "--sizes=")) {
            std::string list = arg.substr(8);
            for (char &c : list)
                if (c == ',')
                    c = ' ';
            std::istringstream in(list);
            std::uint64_t s;
            while (in >> s)
                sizes.push_back(s);
            if (!in.eof() || sizes.empty()) {
                std::cerr << "mrc: bad --sizes value: "
                          << arg.substr(8) << "\n";
                return 1;
            }
        } else {
            std::cerr << "mrc: unknown argument '" << arg << "'\n";
            return 1;
        }
    }
    if (sizes.empty())
        sizes = expt::paperSizes();

    // Lazy validation: profileMapped() vets each chunk just before
    // replaying it and releases its pages after, so peak RSS is one
    // chunk plus the sampled state no matter the file size.
    const MappedBinaryTrace mapped(
        path, MappedBinaryTrace::Backing::Auto,
        MappedBinaryTrace::Validation::Lazy);
    if (mapped.span().size == 0) {
        std::cerr << "mrc: " << path << " holds no references\n";
        return 1;
    }
    if (!warmup_given)
        warmup = mapped.span().size / 4;

    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const onepass::FamilySpec family =
        onepass::FamilySpec::l2Grid(base, sizes);
    opts.solo = true;
    const onepass::TraceProfile prof =
        mrc::profileMapped(base, family, mapped, warmup, opts);

    std::cout << "profiled " << mapped.span().size << " refs ("
              << warmup << " warm-up) at rate " << opts.sampler.rate
              << (opts.sampler.budget != 0 ? " (adaptive)" : "")
              << "\nL1 read miss ratio: " << prof.l1GlobalMissRatio()
              << "\n\n";
    Table t;
    t.addColumn("L2 size", Align::Left);
    t.addColumn("local miss");
    t.addColumn("global miss");
    t.addColumn("solo miss");
    if (opts.faBound)
        t.addColumn("FA-LRU");
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        const onepass::ConfigProfile &cfg = prof.configs[s];
        auto &row =
            t.newRow()
                .cell(formatSize(sizes[s]))
                .cell(cfg.filtered.localMissRatio(), 4)
                .cell(cfg.filtered.globalMissRatio(prof.cpuReads()),
                      4)
                .cell(cfg.solo.localMissRatio(), 4);
        if (opts.faBound)
            row.cell(cfg.faMissRatio, 4);
    }
    t.print(std::cout);
    if (opts.faBound && !prof.configs.empty())
        // The SHARDS stack-distance estimate behind the column:
        // a capacity lower bound (no replacement policy beats
        // FA-LRU here) plus the stream's compulsory-miss floor.
        std::cout << "\nFA-LRU capacity curve is a sampled "
                     "stack-distance bound; compulsory misses "
                     "(distinct blocks): "
                  << prof.configs[0].faCompulsory << "\n";
    return 0;
}

void
printFarmEntry(const ckpt::FarmEntry &e)
{
    if (!e.ok) {
        std::cout << "  BAD  " << e.path << "\n       " << e.error
                  << "\n";
        return;
    }
    std::cout << "  ok   " << e.path << "\n       "
              << e.meta.windows << " windows, "
              << formatSize(e.meta.fileBytes) << ", "
              << e.meta.totalRefs << " refs\n       schedule "
              << e.meta.key.scheduleKey << "\n       config   "
              << e.meta.key.configHash << "\n";
}

int
cmdCkpt(int argc, char **argv)
{
    const auto usage = [] {
        std::cerr
            << "usage: trace_tools ckpt build <farm> <trace> "
               "[--seed=N] [--id=ID] [--sizes=a,b,...]\n"
            << "       trace_tools ckpt ls <farm> [traceId]\n"
            << "       trace_tools ckpt verify <farm>\n"
            << "       trace_tools ckpt gc <farm> [--max-bytes=N] "
               "[--max-age-days=D] [--dry-run]\n";
        return 1;
    };
    if (argc < 4)
        return usage();
    const std::string verb = argv[2];
    if ((verb == "ls" || verb == "verify" || verb == "gc") &&
        !std::filesystem::is_directory(argv[3])) {
        std::cerr << "ckpt " << verb
                  << ": no such farm directory: " << argv[3]
                  << "\n";
        return 1;
    }
    ckpt::CheckpointStore store(argv[3]);

    if (verb == "ls") {
        std::vector<std::string> ids;
        if (argc > 4)
            ids.push_back(argv[4]);
        else
            ids = store.traceIds();
        for (const std::string &id : ids) {
            std::cout << id << ":\n";
            for (const ckpt::FarmEntry &e : store.list(id))
                printFarmEntry(e);
        }
        return 0;
    }

    if (verb == "verify") {
        std::size_t bad = 0, total = 0;
        for (const std::string &id : store.traceIds()) {
            std::cout << id << ":\n";
            for (const ckpt::FarmEntry &shallow : store.list(id)) {
                const ckpt::FarmEntry e =
                    ckpt::CheckpointStore::verifyFile(
                        shallow.path);
                printFarmEntry(e);
                ++total;
                if (!e.ok)
                    ++bad;
            }
        }
        std::cout << total - bad << "/" << total
                  << " entries verified clean\n";
        return bad == 0 ? 0 : 1;
    }

    if (verb == "gc") {
        ckpt::CheckpointStore::GcOptions gopts;
        for (int i = 4; i < argc; ++i) {
            const std::string arg = argv[i];
            if (startsWith(arg, "--max-bytes=")) {
                gopts.maxBytes = unsignedFlag(arg);
            } else if (startsWith(arg, "--max-age-days=")) {
                gopts.maxAgeDays = doubleFlag(arg);
                if (gopts.maxAgeDays <= 0.0) {
                    std::cerr << "ckpt gc: bad --max-age-days "
                                 "value: "
                              << arg.substr(15) << "\n";
                    return 1;
                }
            } else if (arg == "--dry-run") {
                gopts.dryRun = true;
            } else {
                return usage();
            }
        }
        const ckpt::CheckpointStore::GcResult r = store.gc(gopts);
        const char *would = gopts.dryRun ? "would retire" : "retired";
        for (const ckpt::CheckpointStore::GcAction &a : r.retired)
            std::cout << "  " << would << " (" << a.reason << ") "
                      << a.path << " (" << formatSize(a.bytes)
                      << ")\n";
        std::cout << "scanned " << r.scanned << " entries ("
                  << formatSize(r.scannedBytes) << "), " << would
                  << " " << r.retired.size() << " ("
                  << formatSize(r.retiredBytes) << "), kept "
                  << formatSize(r.keptBytes);
        if (r.removedDirs > 0)
            std::cout << ", pruned " << r.removedDirs
                      << " empty farm dirs";
        std::cout << "\n";
        return 0;
    }

    if (verb != "build" || argc < 5)
        return usage();
    const std::string trace_path = argv[4];
    std::uint64_t seed = 1; // the query server's default seed
    std::string trace_id;
    std::vector<std::uint64_t> sizes;
    for (int i = 5; i < argc; ++i) {
        const std::string arg = argv[i];
        if (startsWith(arg, "--seed=")) {
            seed = unsignedFlag(arg);
        } else if (startsWith(arg, "--id=")) {
            trace_id = arg.substr(5);
        } else if (startsWith(arg, "--sizes=")) {
            std::string list = arg.substr(8);
            for (char &c : list)
                if (c == ',')
                    c = ' ';
            std::istringstream in(list);
            std::uint64_t s;
            while (in >> s)
                sizes.push_back(s);
            // A trailing non-number (or an empty list) must not
            // silently fall back to the default family.
            if (!in.eof() || sizes.empty()) {
                std::cerr << "ckpt build: bad --sizes value: "
                          << arg.substr(8) << "\n";
                return 1;
            }
        } else {
            return usage();
        }
    }
    if (trace_id.empty()) {
        // Mirror mlc_serve's farm addressing for file workloads:
        // workload tag and trace name are both the file stem.
        const std::string stem = fileStem(trace_path);
        trace_id = stem + "/" + stem;
    }
    if (sizes.empty())
        sizes = expt::paperSizes();

    auto src = openTraceFile(trace_path);
    const std::vector<MemRef> refs = collect(
        *src, std::numeric_limits<std::uint64_t>::max());
    if (refs.empty()) {
        std::cerr << "ckpt build: " << trace_path
                  << " holds no references\n";
        return 1;
    }

    // The canonical L2-size family: the warmer prefix (and so the
    // farm key) covers the shared L1s only, which is the same key
    // any L2 size/cycle sweep from the base machine resolves to —
    // cycle values are timing-only and never reach the key.
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    std::vector<hier::HierarchyParams> configs;
    configs.reserve(sizes.size());
    for (const std::uint64_t s : sizes)
        configs.push_back(base.withL2(s, 3));

    sample::SampledOptions opts;
    opts.seed = seed;
    const sample::FarmBuildResult r = sample::buildCheckpointFarm(
        configs, {refs.data(), refs.size()}, opts, store,
        trace_id);
    if (!r.built) {
        std::cout << "farm entry already valid: " << r.path << " ("
                  << formatSize(r.fileBytes) << ")\n";
        return 0;
    }
    std::cout << "built " << r.path << ": " << r.windows
              << " windows, " << formatSize(r.fileBytes) << " ("
              << refs.size() << " refs, seed " << seed << ")\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: trace_tools "
                     "gen|synth|conv|stat|warm|mrc|ckpt ...\n";
        return 1;
    }
    if (std::strcmp(argv[1], "gen") == 0)
        return cmdGenerate(argc, argv);
    if (std::strcmp(argv[1], "synth") == 0)
        return cmdSynth(argc, argv);
    if (std::strcmp(argv[1], "conv") == 0)
        return cmdConvert(argc, argv);
    if (std::strcmp(argv[1], "stat") == 0)
        return cmdStat(argc, argv);
    if (std::strcmp(argv[1], "warm") == 0)
        return cmdWarm(argc, argv);
    if (std::strcmp(argv[1], "mrc") == 0)
        return cmdMrc(argc, argv);
    if (std::strcmp(argv[1], "ckpt") == 0)
        return cmdCkpt(argc, argv);
    std::cerr << "unknown command '" << argv[1] << "'\n";
    return 1;
}
