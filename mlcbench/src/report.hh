/**
 * @file
 * What one benchmark run knows and prints: its options, the metrics
 * and output checks it records, and the helpers every workload
 * shares (wall clock, percentiles, peak RSS).
 *
 * Output contract (stdout, one JSON object per line):
 *   {"record":"provenance", ...}      build, host and input facts
 *   {"record":"check", "name", "status", "reason"}   one per check
 *   {"correct", "attempted", "failed", "metrics"}    always last
 * Metric values are bare numbers; run.py attaches the units.
 */

#ifndef MLCBENCH_REPORT_HH
#define MLCBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mlcbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the timed phase. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Repository root (machine configs are read from here). */
    std::string root = ".";
    /** Scratch directory the run owns; removed at exit. */
    std::string workdir;
    /** Where the traced run writes its spans. */
    std::string traceOut;
    /** Self-test scale: every trace shrunk so a run takes seconds. */
    bool tiny = false;
    std::string gitSha = "unknown";
    /** Worker threads, engine jobs and client connections: half the
     *  CPUs this process may run on, at most 2 and at least 1. */
    std::size_t jobs = 1;
};

/** Metrics, checks and provenance of one run. */
class Report
{
  public:
    /** Record metric @p name (overwrites). */
    void metric(const std::string &name, double value);

    /** Record a provenance fact (string or number). */
    void fact(const std::string &key, const std::string &value);
    void fact(const std::string &key, double value);

    /** Record one output check; a failure counts as one failed
     *  operation. @p reason is a short machine-readable token. */
    void check(const std::string &name, bool ok,
               const std::string &reason = "");

    /** Count @p n operations of the timed phase, @p failed of which
     *  returned an error. */
    void operations(std::uint64_t n, std::uint64_t failed = 0);

    bool correct() const { return failedChecks_ == 0; }

    /** Print the provenance line, the check lines and the result
     *  line to stdout. */
    void print(const Options &opts) const;

  private:
    std::map<std::string, double> metrics_;
    std::map<std::string, std::string> facts_;
    std::vector<std::string> checkLines_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failedOps_ = 0;
    std::uint64_t failedChecks_ = 0;
};

/** Nearest-rank percentile (@p p in [0, 100]) of @p values; sorts
 *  a copy. 0 for an empty input. */
double percentile(std::vector<double> values, double p);

/**
 * The reported tail of @p values: the 99th percentile when at least
 * ten samples lie beyond it, else the highest nearest-rank
 * percentile that still has ten beyond, but never below the median
 * (short self-test runs). Records the percentile used as the
 * provenance fact "tail_percentile".
 */
double tail(std::vector<double> values, Report &rep);

/** Median, same convention. */
inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

/** Peak resident set of this process in MB. */
double maxRssMb();

/** CPUs this process may run on. */
std::size_t cpusAllowed();

/** Mix a run seed with a per-input index into a generator seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t index);

} // namespace mlcbench

#endif // MLCBENCH_REPORT_HH
