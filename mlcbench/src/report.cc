#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

namespace mlcbench {

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Every digit a double carries; non-finite values become null so
 *  the line stays valid JSON (run.py then reports the metric as
 *  missing). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Report::metric(const std::string &name, double value)
{
    metrics_[name] = value;
}

void
Report::fact(const std::string &key, const std::string &value)
{
    facts_[key] = jsonString(value);
}

void
Report::fact(const std::string &key, double value)
{
    facts_[key] = jsonNumber(value);
}

void
Report::check(const std::string &name, bool ok,
              const std::string &reason)
{
    ++attempted_;
    if (!ok)
        ++failedChecks_;
    checkLines_.push_back(
        "{\"record\":\"check\",\"name\":" + jsonString(name) +
        ",\"status\":" + jsonString(ok ? "pass" : "fail") +
        ",\"reason\":" + jsonString(ok ? "" : reason) + "}");
}

void
Report::operations(std::uint64_t n, std::uint64_t failed)
{
    attempted_ += n;
    failedOps_ += failed;
}

void
Report::print(const Options &opts) const
{
    std::ostringstream prov;
    prov << "{\"record\":\"provenance\",\"git_sha\":"
         << jsonString(opts.gitSha)
         << ",\"build_type\":" << jsonString(MLCBENCH_BUILD_TYPE)
         << ",\"compiler\":" << jsonString(MLCBENCH_COMPILER)
         << ",\"nproc\":" << cpusAllowed()
         << ",\"workload\":" << jsonString(opts.workload)
         << ",\"seed\":" << opts.seed
         << ",\"seconds\":" << jsonNumber(opts.seconds)
         << ",\"trace\":" << (opts.trace ? 1 : 0)
         << ",\"tiny\":" << (opts.tiny ? "true" : "false")
         << ",\"workers\":" << opts.jobs;
    for (const auto &[k, v] : facts_)
        prov << "," << jsonString(k) << ":" << v;
    prov << "}";
    std::cout << prov.str() << "\n";
    for (const std::string &line : checkLines_)
        std::cout << line << "\n";

    std::ostringstream out;
    out << "{\"correct\":" << (correct() ? "true" : "false")
        << ",\"attempted\":" << std::max<std::uint64_t>(1, attempted_)
        << ",\"failed\":" << failedOps_ + failedChecks_
        << ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, value] : metrics_) {
        out << (first ? "" : ",") << jsonString(name) << ":"
            << jsonNumber(value);
        first = false;
    }
    out << "}}";
    std::cout << out.str() << std::endl;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t idx = rank < 1.0
                                ? 0
                                : static_cast<std::size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

double
tail(std::vector<double> values, Report &rep)
{
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    const std::size_t p99 = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(n)));
    const std::size_t p50 = (n + 1) / 2;
    const std::size_t rank =
        n >= p99 + 10 ? p99 : std::max(p50, n > 10 ? n - 10 : 1);
    std::sort(values.begin(), values.end());
    rep.fact("tail_percentile", 100.0 * static_cast<double>(rank) /
                                    static_cast<double>(n));
    return values[rank - 1];
}

double
maxRssMb()
{
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::size_t
cpusAllowed()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t index)
{
    // splitmix64 finalizer over (seed, index).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index +
                      0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace mlcbench
