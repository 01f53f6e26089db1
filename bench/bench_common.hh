/**
 * @file
 * Shared plumbing for the figure-regeneration harness: every bench
 * binary prints one of the paper's tables/figures as rows, using
 * the same workload suite and the same presentation helpers.
 */

#ifndef MLC_BENCH_BENCH_COMMON_HH
#define MLC_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "expt/design_space.hh"
#include "expt/runner.hh"
#include "expt/workload_suite.hh"
#include "hier/hierarchy_config.hh"

namespace mlc {
namespace bench {

/** Banner naming the figure and the machine configuration. */
void printHeader(const std::string &figure,
                 const std::string &description,
                 const hier::HierarchyParams &base);

/**
 * Build-provenance fields for bench JSON records, as a fragment to
 * splice into an object: `"git_sha":"...","build_type":"...",
 * "compiler":"..."` (no braces, no trailing comma). The SHA is the
 * configure-time HEAD — reconfigure after committing if it matters.
 */
std::string provenanceJson();

/** Materialize every trace of a suite once (progress to stderr),
 *  @p jobs traces at a time. The store is shared by every grid and
 *  engine the binary builds — no trace is ever decoded twice. */
expt::TraceStore
materializeAll(std::vector<expt::TraceSpec> specs,
               std::size_t jobs = 1);

/** As above, also reporting the wall-clock milliseconds spent
 *  materializing in @p out_ms, so benches can report trace
 *  preparation and simulation as separate JSON fields. */
expt::TraceStore
materializeAll(std::vector<expt::TraceSpec> specs, std::size_t jobs,
               double &out_ms);

/**
 * Process-lifetime maximum resident set size in KB, or -1 where the
 * platform has no getrusage (the value is a high-water mark: a
 * second measurement includes everything the process peaked at
 * earlier).
 */
long maxRssKb();

/** maxRssKb() formatted as a JSON value: the KB count, or "null"
 *  on platforms where sampling is unavailable — never a garbage
 *  number. */
std::string maxRssJson();

/**
 * Whether a bench's wall-clock gate is enforced and, if not, why: a
 * floor of 0 or less disables it (CI smoke runs pass
 * --min-speedup=0), and a host with fewer hardware threads than the
 * gate's parallelism skips it, since its timing would mean nothing
 * there.
 */
struct GateStatus
{
    enum State
    {
        Enforced,
        Disabled,
        SkippedHwThreads,
    };

    State state;
    unsigned hwThreads;
    std::size_t threadsNeeded;

    bool enforced() const { return state == Enforced; }
    /** The JSON value: "enforced", "disabled" or
     *  "skipped_hw_threads". */
    const char *name() const;
    /** name() with the reason in words, for stderr. */
    std::string reason() const;
};

/** The status of a gate with floor @p floor whose timing needs
 *  @p threads_needed hardware threads. */
GateStatus gateStatus(double floor, std::size_t threads_needed);

/** The floor a "--flag=X" gate argument @p arg sets (0 disables
 *  the gate). Fatal ("bad --flag value") unless X is a finite
 *  number: a typo must not silently disable a gate. */
double gateFloor(const std::string &arg);

/** Print the grid the way Figure 4-1 plots it: one column per L2
 *  cycle time, one row per L2 size. */
void printRelExecGrid(const expt::DesignSpaceGrid &grid);

/** Print the lines of constant performance (Figures 4-2..4-4):
 *  contour rows plus the slope-region classification. */
void printConstantPerformance(const expt::DesignSpaceGrid &grid);

/**
 * If the MLC_CSV_DIR environment variable names a directory, write
 * the grid there as <name>.csv (one row per L2 size, one column
 * per cycle time) for external plotting; otherwise do nothing.
 */
void maybeDumpCsv(const expt::DesignSpaceGrid &grid,
                  const std::string &name);

} // namespace bench
} // namespace mlc

#endif // MLC_BENCH_BENCH_COMMON_HH
