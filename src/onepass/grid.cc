#include "onepass/grid.hh"

#include <algorithm>

#include "onepass/model_timing.hh"
#include "onepass/pipeline.hh"
#include "util/logging.hh"

namespace mlc {
namespace onepass {

namespace {

/** Index of the @p size_bytes configuration among @p specs. */
std::size_t
indexOf(const std::vector<GhostCacheSpec> &specs,
        std::uint64_t size_bytes)
{
    for (std::size_t i = 0; i < specs.size(); ++i)
        if (specs[i].sizeBytes == size_bytes)
            return i;
    mlc_panic("price: no ", size_bytes,
              "-byte configuration in the profiled family");
}

} // namespace

expt::DesignSpaceGrid
price(const hier::HierarchyParams &base,
      const CascadeFamilySpec &family,
      const std::vector<TraceProfile> &profiles,
      const std::vector<std::uint64_t> &sizes,
      const std::vector<std::uint32_t> &cycles)
{
    const bool cascade = !family.pivots.empty();
    const std::size_t traces =
        profiles.size() / std::max<std::size_t>(family.pivots.size(), 1);
    if (traces == 0 || (cascade && base.levels.size() < 2))
        mlc_panic("price: no trace profiles, or a cascade family on a "
                  "machine without an L3");
    const std::uint32_t assoc = base.levels[0].geometry.assoc;
    expt::DesignSpaceGrid grid(sizes, cycles);
    for (std::size_t c = 0; c < cycles.size(); ++c) {
        // The model depends on the cycle axis only (n_L2 scales
        // with the L2 cycle time; size changes no cost term), so
        // one EqTimingModel serves the whole column.
        const EqTimingModel model = EqTimingModel::forMachine(
            base.withL2(sizes[0], cycles[c], assoc));
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            // Depth 2: the member of this size. Depth 3: the pivot's
            // row, priced with the machine's own L3.
            const std::size_t row =
                cascade ? indexOf(family.pivots, sizes[s]) : 0;
            const std::size_t member = indexOf(
                family.l3.configs,
                cascade ? base.levels[1].geometry.sizeBytes : sizes[s]);
            double sum = 0.0;
            for (std::size_t t = 0; t < traces; ++t)
                sum += model.relExec(profiles[row * traces + t], member);
            grid.set(s, c, sum / static_cast<double>(traces));
        }
    }
    return grid;
}

expt::DesignSpaceGrid
buildGrid(const hier::HierarchyParams &base,
          const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const expt::TraceStore &store, std::size_t jobs,
          std::size_t shards)
{
    const CascadeFamilySpec family{{}, FamilySpec::l2Grid(base, sizes)};
    return price(base, family,
                 profileStore(base, family, store, jobs, false, false,
                              ExactSinks{shards}),
                 sizes, cycles);
}

} // namespace onepass
} // namespace mlc
