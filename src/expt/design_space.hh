/**
 * @file
 * The (L2 size x L2 cycle time) design space of Section 4.
 *
 * A DesignSpaceGrid holds relative execution times over a grid of
 * power-of-two sizes and integer cycle times (in CPU cycles). From
 * it the paper's presentation devices are computed:
 *
 *  - lines of constant performance (Figures 4-2/4-3/4-4): for each
 *    performance level, the cycle time at each size that achieves
 *    it, interpolated along the cycle-time axis;
 *  - slopes of those lines in CPU cycles per size doubling, and
 *    the paper's slope-region classification (< 0.75 / 0.75-1.5 /
 *    1.5-3 / >= 3);
 *  - horizontal shift between two grids (Figure 4-3's "lines
 *    shifted by a factor of 1.74" when the L1 grew 8x).
 */

#ifndef MLC_EXPT_DESIGN_SPACE_HH
#define MLC_EXPT_DESIGN_SPACE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "expt/workload_suite.hh"
#include "hier/hierarchy_config.hh"

namespace mlc {
namespace expt {

/** Grid of relative execution times. */
class DesignSpaceGrid
{
  public:
    /**
     * @param sizes ascending power-of-two L2 sizes (bytes).
     * @param cycles ascending integer L2 cycle times (CPU cycles).
     * Any non-empty axes will do, 1x1 included; the contour devices
     * below simply find nothing to interpolate on a single row or
     * column.
     */
    DesignSpaceGrid(std::vector<std::uint64_t> sizes,
                    std::vector<std::uint32_t> cycles);

    /** Fill one cell. */
    void set(std::size_t size_idx, std::size_t cycle_idx,
             double rel_exec_time);

    double at(std::size_t size_idx, std::size_t cycle_idx) const;

    const std::vector<std::uint64_t> &sizes() const
    {
        return sizes_;
    }
    const std::vector<std::uint32_t> &cycles() const
    {
        return cycles_;
    }

    /** Smallest/largest values in the grid. */
    double minValue() const;
    double maxValue() const;

    /**
     * One line of constant performance: for each size index the
     * (fractional) cycle time achieving @p level, or NaN when the
     * level is unreachable within the cycle range at that size.
     */
    std::vector<double> contour(double level) const;

    /**
     * Contour levels every @p step covering the grid, matching the
     * paper's "increments of 0.1 in relative execution time".
     */
    std::vector<double> contourLevels(double step = 0.1) const;

    /**
     * Slope of the level contour between adjacent sizes, in CPU
     * cycles per doubling (NaN where the contour is absent). The
     * result has sizes().size() - 1 entries.
     */
    std::vector<double> contourSlopes(double level) const;

    /**
     * The paper's tradeoff regions: for each adjacent-size
     * interval, the largest contour slope across levels, then
     * classified by the 0.75 / 1.5 / 3.0 thresholds. Returns the
     * max slope per interval.
     */
    std::vector<double> maxSlopePerInterval() const;

    /**
     * Geometric-mean horizontal shift (as a size factor, > 1 means
     * @p other's contours sit to the right) between this grid's
     * contours and @p other's, measured at matching performance
     * levels along each cycle-time row. Only meaningful when the
     * two grids describe the same machine with a shifted miss
     * curve; for machines whose absolute performance differs (e.g.
     * different L1 sizes) use slopeBoundaryShiftFactor().
     */
    double horizontalShiftFactor(const DesignSpaceGrid &other) const;

    /**
     * The size (bytes, log-interpolated) at which the steepest
     * contour slope falls below @p threshold cycles per doubling;
     * NaN if it never crosses. This locates the paper's shaded
     * region boundaries.
     */
    double slopeBoundaryCrossing(double threshold) const;

    /**
     * Geometric-mean shift of the slope-region boundaries (paper
     * thresholds 0.75 / 1.5 / 3.0) from this grid to @p other —
     * the measurement behind the paper's "the lines of constant
     * performance shifted by a factor of 1.74" for an 8x L1.
     */
    double slopeBoundaryShiftFactor(const DesignSpaceGrid &other)
        const;

  private:
    /** Size (log2, fractional index) where a row crosses level. */
    double rowCrossing(std::size_t cycle_idx, double level) const;

    std::vector<std::uint64_t> sizes_;
    std::vector<std::uint32_t> cycles_;
    std::vector<double> values_; //!< [size][cycle], row-major
    std::vector<bool> filled_;
};

/**
 * Build a grid by evaluating @p eval at every (size, cycle) point.
 */
DesignSpaceGrid
buildGrid(const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const std::function<double(std::uint64_t, std::uint32_t)>
              &eval);

/**
 * Build a grid by evaluating cells on @p jobs workers. @p eval must
 * be safe to call concurrently from several threads (the sweep
 * evaluators are: each call builds its own HierarchySimulator over
 * shared immutable traces). Every cell's result is written into its
 * own pre-sized slot and the grid is assembled in a fixed row-major
 * order, so the result is bit-identical to buildGrid() regardless
 * of @p jobs. jobs <= 1 degenerates to the serial path.
 */
DesignSpaceGrid parallelBuildGrid(
    const std::vector<std::uint64_t> &sizes,
    const std::vector<std::uint32_t> &cycles,
    const std::function<double(std::uint64_t, std::uint32_t)> &eval,
    std::size_t jobs);

/**
 * Timing-engine grid over a materialize-once TraceStore: each cell
 * simulates machineFor(size, cycle) over every stored trace and
 * records the suite-mean relative execution time, bit-identical to
 * runSuite(machineFor(size, cycle), store).relExecTime for any
 * @p jobs. Each cell calls machineFor once, on its own worker.
 *
 * The call keeps one table of hier::FrontLogs, keyed by trace and
 * L1 functional identity (hier::sameFunctionalL1), and under each
 * log one hier::LevelTape per functional hierarchy
 * (hier::sameFunctionalHierarchy). Each log is built once, by the
 * first cell that needs it. A hierarchy's first cell runs the timed
 * back end over the logs; its second records the tapes during its
 * own timed run; every later cell of that hierarchy, such as the
 * rest of a cycle-time column, runs only the timeline over the
 * (log, tape) pairs. A hierarchy with one cell records no tape.
 * Nothing outlives the call. Cells run without solo arrays
 * (measureSolo is ignored).
 */
DesignSpaceGrid parallelBuildGrid(
    const std::vector<std::uint64_t> &sizes,
    const std::vector<std::uint32_t> &cycles,
    const TraceStore &store,
    const std::function<hier::HierarchyParams(std::uint64_t,
                                              std::uint32_t)>
        &machineFor,
    std::size_t jobs);

/** The paper's sweep axes: 4KB..4MB x 1..10 CPU cycles. */
std::vector<std::uint64_t> paperSizes();
std::vector<std::uint32_t> paperCycles();

/** Classify a slope into the paper's shaded-region label. */
const char *slopeRegionName(double cycles_per_doubling);

} // namespace expt
} // namespace mlc

#endif // MLC_EXPT_DESIGN_SPACE_HH
