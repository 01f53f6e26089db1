#include "expt/design_space.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>

#include "expt/runner.hh"
#include "hier/hierarchy.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace expt {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/**
 * Evaluate cell(i, size, cycle) for every cell i (row-major) on
 * @p jobs workers. Each cell writes its own slot and the grid is
 * assembled in row-major order, so jobs=1 and jobs=N agree bit for
 * bit.
 */
DesignSpaceGrid
buildCells(const std::vector<std::uint64_t> &sizes,
           const std::vector<std::uint32_t> &cycles, std::size_t jobs,
           const std::function<double(std::size_t, std::uint64_t,
                                      std::uint32_t)> &cell)
{
    DesignSpaceGrid grid(sizes, cycles);
    const std::size_t cols = cycles.size();
    std::vector<double> slots(sizes.size() * cols, 0.0);
    parallelFor(jobs, slots.size(), [&](std::size_t i) {
        slots[i] = cell(i, sizes[i / cols], cycles[i % cols]);
    });
    for (std::size_t s = 0; s < sizes.size(); ++s)
        for (std::size_t c = 0; c < cols; ++c)
            grid.set(s, c, slots[s * cols + c]);
    return grid;
}

/**
 * The FrontLogs of one store-driven grid: one per (trace, L1
 * functional identity), each built once, by the first cell that
 * needs it. A trace's warm-up is its spec's (scaledWarmup), so the
 * trace index fixes it.
 */
class FrontLogTable
{
  public:
    explicit FrontLogTable(const TraceStore &store) : store_(store) {}

    /**
     * Call fn(t, log) once per trace t with the log of @p params's
     * L1 over it, starting at trace @p first. A log nobody has
     * claimed is built here; one another cell is building is left
     * for last. So the cells that start a grid build different
     * traces' logs in parallel, and none waits on another's build
     * while it has other traces to run.
     */
    template <typename Fn>
    void
    forEach(const hier::HierarchyParams &params, std::size_t first,
            Fn &&fn)
    {
        Entry &entry = entryFor(params);
        std::vector<std::size_t> later;
        for (std::size_t k = 0; k < store_.size(); ++k) {
            const std::size_t t = (first + k) % store_.size();
            State seen = State::Empty;
            if (entry.slots[t].state.compare_exchange_strong(
                    seen, State::Building) ||
                seen == State::Done)
                fn(t, built(entry, t));
            else
                later.push_back(t);
        }
        for (const std::size_t t : later)
            fn(t, built(entry, t));
    }

  private:
    enum class State : std::uint8_t { Empty, Building, Done };

    /**
     * One trace's log behind TraceStore's latch: call_once builds
     * it and blocks the cells that arrive meanwhile. A build that
     * throws is kept and rethrown to every cell that needs the log:
     * not every pthread_once re-arms when its routine throws
     * (ThreadSanitizer's leaves the waiters spinning). The state
     * only tells a cell whether to wait for the log now or later: a
     * cell moves it from Empty to Building to claim the build.
     */
    struct Slot
    {
        std::once_flag once;
        std::atomic<State> state{State::Empty};
        std::unique_ptr<const hier::FrontLog> log;
        std::exception_ptr failed; //!< what the build threw
    };

    struct Entry
    {
        hier::HierarchyParams l1; //!< the machine whose L1 is logged
        std::vector<Slot> slots;  //!< one per trace
    };

    Entry &
    entryFor(const hier::HierarchyParams &params)
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (Entry &e : entries_)
            if (hier::sameFunctionalL1(e.l1, params))
                return e;
        return entries_.emplace_back(
            Entry{params, std::vector<Slot>(store_.size())});
    }

    /** Trace @p t's log in @p entry, built here unless it is built
     *  or being built already. */
    const hier::FrontLog &
    built(Entry &entry, std::size_t t)
    {
        Slot &slot = entry.slots[t];
        std::call_once(slot.once, [&] {
            try {
                slot.log = std::make_unique<const hier::FrontLog>(
                    entry.l1, store_.span(t),
                    scaledWarmup(store_.specs()[t]));
            } catch (...) {
                slot.failed = std::current_exception();
            }
            slot.state.store(State::Done);
        });
        if (slot.failed)
            std::rethrow_exception(slot.failed);
        return *slot.log;
    }

    const TraceStore &store_;
    std::mutex mu_;             //!< guards entries_
    std::deque<Entry> entries_; //!< deque: entries never move
};

} // namespace

DesignSpaceGrid::DesignSpaceGrid(std::vector<std::uint64_t> sizes,
                                 std::vector<std::uint32_t> cycles)
    : sizes_(std::move(sizes)), cycles_(std::move(cycles))
{
    if (sizes_.empty() || cycles_.empty())
        mlc_panic("design-space grid needs at least one size and "
                  "one cycle time");
    if (!std::is_sorted(sizes_.begin(), sizes_.end()) ||
        !std::is_sorted(cycles_.begin(), cycles_.end()))
        mlc_panic("design-space axes must be ascending");
    values_.assign(sizes_.size() * cycles_.size(), 0.0);
    filled_.assign(values_.size(), false);
}

void
DesignSpaceGrid::set(std::size_t size_idx, std::size_t cycle_idx,
                     double rel_exec_time)
{
    if (size_idx >= sizes_.size() || cycle_idx >= cycles_.size())
        mlc_panic("design-space cell (", size_idx, ",", cycle_idx,
                  ") out of range for ", sizes_.size(), "x",
                  cycles_.size(), " grid");
    const std::size_t i = size_idx * cycles_.size() + cycle_idx;
    values_[i] = rel_exec_time;
    filled_[i] = true;
}

double
DesignSpaceGrid::at(std::size_t size_idx,
                    std::size_t cycle_idx) const
{
    if (size_idx >= sizes_.size() || cycle_idx >= cycles_.size())
        mlc_panic("design-space cell (", size_idx, ",", cycle_idx,
                  ") out of range for ", sizes_.size(), "x",
                  cycles_.size(), " grid");
    const std::size_t i = size_idx * cycles_.size() + cycle_idx;
    if (!filled_[i])
        mlc_panic("design-space cell (", size_idx, ",", cycle_idx,
                  ") read before being set");
    return values_[i];
}

double
DesignSpaceGrid::minValue() const
{
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < values_.size(); ++i)
        if (filled_[i])
            best = std::min(best, values_[i]);
    return best;
}

double
DesignSpaceGrid::maxValue() const
{
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < values_.size(); ++i)
        if (filled_[i])
            best = std::max(best, values_[i]);
    return best;
}

std::vector<double>
DesignSpaceGrid::contour(double level) const
{
    std::vector<double> out(sizes_.size(), kNaN);
    for (std::size_t s = 0; s < sizes_.size(); ++s) {
        // Relative execution time increases with cycle time, so
        // scan the column for the crossing.
        for (std::size_t c = 0; c + 1 < cycles_.size(); ++c) {
            const double lo = at(s, c);
            const double hi = at(s, c + 1);
            if (lo <= level && level <= hi && hi > lo) {
                const double frac = (level - lo) / (hi - lo);
                out[s] = static_cast<double>(cycles_[c]) +
                         frac * static_cast<double>(cycles_[c + 1] -
                                                    cycles_[c]);
                break;
            }
        }
        // Exactly at (or below) the fastest cycle time.
        if (std::isnan(out[s]) && at(s, 0) >= level &&
            std::abs(at(s, 0) - level) < 1e-9)
            out[s] = cycles_[0];
    }
    return out;
}

std::vector<double>
DesignSpaceGrid::contourLevels(double step) const
{
    const double lo = minValue();
    const double hi = maxValue();
    std::vector<double> levels;
    double level = std::ceil(lo / step) * step;
    for (; level < hi; level += step)
        levels.push_back(level);
    return levels;
}

std::vector<double>
DesignSpaceGrid::contourSlopes(double level) const
{
    const std::vector<double> line = contour(level);
    std::vector<double> slopes(sizes_.size() - 1, kNaN);
    for (std::size_t s = 0; s + 1 < sizes_.size(); ++s) {
        if (std::isnan(line[s]) || std::isnan(line[s + 1]))
            continue;
        const double doublings =
            std::log2(static_cast<double>(sizes_[s + 1]) /
                      static_cast<double>(sizes_[s]));
        slopes[s] = (line[s + 1] - line[s]) / doublings;
    }
    return slopes;
}

std::vector<double>
DesignSpaceGrid::maxSlopePerInterval() const
{
    std::vector<double> out(sizes_.size() - 1, kNaN);
    for (double level : contourLevels()) {
        const std::vector<double> slopes = contourSlopes(level);
        for (std::size_t s = 0; s < slopes.size(); ++s) {
            if (std::isnan(slopes[s]))
                continue;
            if (std::isnan(out[s]) || slopes[s] > out[s])
                out[s] = slopes[s];
        }
    }
    return out;
}

double
DesignSpaceGrid::rowCrossing(std::size_t cycle_idx,
                             double level) const
{
    // Along a fixed cycle time, performance improves (value drops)
    // with size; find the size where the row crosses the level.
    for (std::size_t s = 0; s + 1 < sizes_.size(); ++s) {
        const double big = at(s, cycle_idx);
        const double small = at(s + 1, cycle_idx);
        if (small <= level && level <= big && big > small) {
            const double frac = (big - level) / (big - small);
            return std::log2(static_cast<double>(sizes_[s])) +
                   frac * std::log2(
                              static_cast<double>(sizes_[s + 1]) /
                              static_cast<double>(sizes_[s]));
        }
    }
    return kNaN;
}

double
DesignSpaceGrid::horizontalShiftFactor(
    const DesignSpaceGrid &other) const
{
    if (cycles_.size() != other.cycles_.size())
        mlc_panic("horizontalShiftFactor: cycle axes differ");
    double log_sum = 0.0;
    std::size_t count = 0;
    for (double level : contourLevels()) {
        for (std::size_t c = 0; c < cycles_.size(); ++c) {
            const double here = rowCrossing(c, level);
            const double there = other.rowCrossing(c, level);
            if (std::isnan(here) || std::isnan(there))
                continue;
            log_sum += there - here;
            ++count;
        }
    }
    if (count == 0)
        return kNaN;
    return std::exp2(log_sum / static_cast<double>(count));
}

double
DesignSpaceGrid::slopeBoundaryCrossing(double threshold) const
{
    const auto slopes = maxSlopePerInterval();
    // Interval midpoints in log2(bytes).
    auto mid = [&](std::size_t i) {
        return 0.5 * (std::log2(static_cast<double>(sizes_[i])) +
                      std::log2(static_cast<double>(sizes_[i + 1])));
    };
    for (std::size_t i = 0; i + 1 < slopes.size(); ++i) {
        if (std::isnan(slopes[i]) || std::isnan(slopes[i + 1]))
            continue;
        if (slopes[i] >= threshold && slopes[i + 1] < threshold) {
            const double frac = (slopes[i] - threshold) /
                                (slopes[i] - slopes[i + 1]);
            return std::exp2(mid(i) +
                             frac * (mid(i + 1) - mid(i)));
        }
    }
    return kNaN;
}

double
DesignSpaceGrid::slopeBoundaryShiftFactor(
    const DesignSpaceGrid &other) const
{
    double log_sum = 0.0;
    std::size_t count = 0;
    for (double threshold : {0.75, 1.5, 3.0}) {
        const double here = slopeBoundaryCrossing(threshold);
        const double there = other.slopeBoundaryCrossing(threshold);
        if (std::isnan(here) || std::isnan(there))
            continue;
        log_sum += std::log2(there) - std::log2(here);
        ++count;
    }
    if (count == 0)
        return kNaN;
    return std::exp2(log_sum / static_cast<double>(count));
}

DesignSpaceGrid
buildGrid(const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const std::function<double(std::uint64_t, std::uint32_t)>
              &eval)
{
    return parallelBuildGrid(sizes, cycles, eval, 1);
}

DesignSpaceGrid
parallelBuildGrid(
    const std::vector<std::uint64_t> &sizes,
    const std::vector<std::uint32_t> &cycles,
    const std::function<double(std::uint64_t, std::uint32_t)> &eval,
    std::size_t jobs)
{
    return buildCells(sizes, cycles, jobs,
                      [&](std::size_t, std::uint64_t size,
                          std::uint32_t cyc) { return eval(size, cyc); });
}

DesignSpaceGrid
parallelBuildGrid(
    const std::vector<std::uint64_t> &sizes,
    const std::vector<std::uint32_t> &cycles,
    const TraceStore &store,
    const std::function<hier::HierarchyParams(std::uint64_t,
                                              std::uint32_t)>
        &machineFor,
    std::size_t jobs)
{
    if (store.size() == 0)
        mlc_panic("parallelBuildGrid: empty trace store");
    // What leaves L1 depends only on the L1 and the trace, so each
    // (trace, L1) pair is stepped through L1 once, into a FrontLog,
    // and a cell runs only the back end over its traces' logs.
    // Parallelism lives at the cell level; a cell walks its traces
    // serially from its own index mod the trace count, so the cells
    // that start the grid build different traces' logs. Per-trace
    // slots and runSuite's trace-order reduction keep every cell
    // bit-identical to runSuite for any @p jobs.
    FrontLogTable logs(store);
    return buildCells(
        sizes, cycles, jobs,
        [&](std::size_t cell, std::uint64_t size, std::uint32_t cyc) {
            hier::HierarchyParams params = machineFor(size, cyc);
            // The grid records relExecTime only, which solo arrays
            // never touch.
            params.measureSolo = false;
            std::vector<hier::SimResults> per_trace(store.size());
            logs.forEach(params, cell % store.size(),
                         [&](std::size_t t, const hier::FrontLog &log) {
                             hier::HierarchySimulator sim(params);
                             sim.replayLog(log);
                             per_trace[t] = sim.results();
                         });
            return reduceSuite(params, per_trace).relExecTime;
        });
}

std::vector<std::uint64_t>
paperSizes()
{
    std::vector<std::uint64_t> sizes;
    for (std::uint64_t s = 4 * 1024; s <= 4 * 1024 * 1024; s *= 2)
        sizes.push_back(s);
    return sizes; // 4KB .. 4MB, 11 points
}

std::vector<std::uint32_t>
paperCycles()
{
    return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
}

const char *
slopeRegionName(double cycles_per_doubling)
{
    if (cycles_per_doubling >= 3.0)
        return ">=3.0 cyc/doubling (strong pull to bigger L2)";
    if (cycles_per_doubling >= 1.5)
        return "1.5-3.0 cyc/doubling";
    if (cycles_per_doubling >= 0.75)
        return "0.75-1.5 cyc/doubling";
    return "<0.75 cyc/doubling (size saturating)";
}

} // namespace expt
} // namespace mlc
