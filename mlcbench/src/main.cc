/**
 * @file
 * mlcbench: one benchmark run of one workload.
 *
 *   mlcbench --workload NAME --seed N --seconds S --trace 0|1
 *            --root DIR --workdir DIR [--trace-out FILE]
 *            [--git-sha SHA] [--tiny]
 *
 * Normally started by run.py, which builds it, validates its output
 * and attaches units. Exit status: 0 when every output check
 * passed, 1 when one failed, 2 on a usage error.
 */

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "report.hh"
#include "util/logging.hh"
#include "workload.hh"

using namespace mlcbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "mlcbench: " << why
              << "\nusage: mlcbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --root DIR --workdir DIR "
                 "[--trace-out FILE] [--git-sha SHA] [--tiny]\n";
    std::exit(2);
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tiny") {
            opts.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const char *val = argv[++i];
        std::uint64_t n = 0;
        if (arg == "--workload") {
            opts.workload = val;
        } else if (arg == "--seed") {
            if (!parseU64(val, n))
                usage("bad --seed");
            opts.seed = n;
        } else if (arg == "--seconds") {
            if (!parseU64(val, n) || n == 0 || n > 3600)
                usage("bad --seconds");
            opts.seconds = static_cast<double>(n);
        } else if (arg == "--trace") {
            if (std::strcmp(val, "0") != 0 &&
                std::strcmp(val, "1") != 0)
                usage("bad --trace");
            opts.trace = val[0] == '1';
        } else if (arg == "--root") {
            opts.root = val;
        } else if (arg == "--workdir") {
            opts.workdir = val;
        } else if (arg == "--trace-out") {
            opts.traceOut = val;
        } else if (arg == "--git-sha") {
            opts.gitSha = val;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (opts.workdir.empty())
        usage("--workdir is required");

    void (*run)(const Options &, Report &) = nullptr;
    if (opts.workload == "grid_timing")
        run = runGridTiming;
    else if (opts.workload == "grid_onepass")
        run = runGridOnepass;
    else if (opts.workload == "sampled_farm")
        run = runSampledFarm;
    else if (opts.workload == "serve_zipf")
        run = runServeZipf;
    else
        usage("unknown workload '" + opts.workload + "'");

    // Trace lengths are fixed by the workloads themselves; a stray
    // MLC_QUICK would otherwise rescale every suite trace.
    unsetenv("MLC_QUICK");
    // Library progress notes would bury the result lines.
    mlc::setLogQuiet(true);
    // Half the CPUs (of at most 4): a parallel phase waits for its
    // slowest worker, so leaving headroom keeps other load on a
    // shared host from stretching every round.
    opts.jobs = std::max<std::size_t>(
        1, std::min<std::size_t>(4, cpusAllowed()) / 2);

    namespace fs = std::filesystem;
    opts.root = fs::absolute(opts.root).string();
    if (!opts.traceOut.empty())
        opts.traceOut = fs::absolute(opts.traceOut).string();
    const fs::path workdir = fs::absolute(opts.workdir);
    fs::remove_all(workdir);
    fs::create_directories(workdir);
    // Everything the run writes (traces, farms, the server socket)
    // lives under the workdir, named relative to it: a unix socket
    // path must stay short.
    fs::current_path(workdir);
    opts.workdir = ".";

    Report rep;
    run(opts, rep);
    if (!opts.trace)
        rep.metric("max_rss_mb", maxRssMb());
    rep.print(opts);

    fs::current_path(workdir.parent_path());
    fs::remove_all(workdir);
    return rep.correct() ? 0 : 1;
}
