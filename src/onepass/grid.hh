/**
 * @file
 * One-pass fill of the Section 4 design-space grid.
 *
 * The timing engine prices a (sizes x cycles) grid with
 * sizes*cycles full hierarchy simulations per trace. buildGrid()
 * replaces that with one profiling pass per trace (all sizes at
 * once — the cycle axis changes timing only, so it needs no extra
 * cache state) followed by a closed-form evaluation of every cell
 * from the exact miss counts. Grid values are analytical
 * (EqTimingModel), not simulated; miss ratios underneath are exact.
 */

#ifndef MLC_ONEPASS_GRID_HH
#define MLC_ONEPASS_GRID_HH

#include <cstdint>
#include <vector>

#include "expt/design_space.hh"
#include "expt/workload_suite.hh"
#include "hier/hierarchy_config.hh"
#include "onepass/cascade.hh"
#include "onepass/engine.hh"

namespace mlc {
namespace onepass {

/**
 * Profile the L2 family of @p sizes once over @p store, then fill
 * every (size, cycle) cell with the suite-mean relative execution
 * time of base.withL2(size, cycle) under EqTimingModel. The result
 * is bit-identical for any @p jobs and any @p shards: jobs
 * parallelizes across traces, shards set-partitions the forest
 * sweep within each trace (ProfileOptions::shards).
 */
expt::DesignSpaceGrid
buildGrid(const hier::HierarchyParams &base,
          const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const expt::TraceStore &store, std::size_t jobs = 1,
          std::size_t shards = 1);

/**
 * Price every (size, cycle) cell from @p profiles, the profiles of
 * @p family over a trace store in profileStore's pivot-major order:
 * the suite-mean relative execution time of base.withL2(size,
 * cycle) under EqTimingModel. At depth 2 each size names a member
 * of family.l3; at depth 3 it names a pivot, whose row is priced
 * with the member matching base.levels[1]. The family may hold more
 * configurations than the grid asks for; every cell's value is
 * independent of the others. Panics when a size or the L3 is
 * missing from the family.
 */
expt::DesignSpaceGrid
price(const hier::HierarchyParams &base,
      const CascadeFamilySpec &family,
      const std::vector<TraceProfile> &profiles,
      const std::vector<std::uint64_t> &sizes,
      const std::vector<std::uint32_t> &cycles);

} // namespace onepass
} // namespace mlc

#endif // MLC_ONEPASS_GRID_HH
