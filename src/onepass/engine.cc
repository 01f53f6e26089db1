#include "onepass/engine.hh"

#include <utility>

#include "onepass/pipeline.hh"
#include "util/logging.hh"

namespace mlc {
namespace onepass {

std::string
FamilySpec::key() const
{
    std::string k;
    for (const GhostCacheSpec &spec : configs) {
        if (!k.empty())
            k += "|";
        k += spec.toString();
    }
    return k;
}

FamilySpec
FamilySpec::l2Grid(const hier::HierarchyParams &base,
                   const std::vector<std::uint64_t> &sizes)
{
    if (base.levels.empty())
        mlc_panic("FamilySpec::l2Grid: base machine has no "
                  "downstream cache level to vary");
    const cache::CacheGeometry &g = base.levels[0].geometry;
    FamilySpec family;
    family.configs.reserve(sizes.size());
    for (std::uint64_t size : sizes)
        family.configs.push_back({size, g.assoc, g.blockBytes});
    return family;
}

FamilySpec
FamilySpec::crossProduct(const std::vector<std::uint64_t> &sizes,
                         const std::vector<std::uint32_t> &assocs,
                         const std::vector<std::uint32_t> &blocks)
{
    FamilySpec family;
    family.configs.reserve(sizes.size() * assocs.size() *
                           blocks.size());
    for (std::uint64_t size : sizes)
        for (std::uint32_t assoc : assocs)
            for (std::uint32_t block : blocks)
                family.configs.push_back({size, assoc, block});
    return family;
}

double
TraceProfile::l1GlobalMissRatio() const
{
    return cpuReads() == 0 ? 0.0
                           : static_cast<double>(l1ReadMisses) /
                                 static_cast<double>(cpuReads());
}

TraceProfile
profileTrace(const hier::HierarchyParams &base,
             const FamilySpec &family, trace::RefSpan refs,
             std::uint64_t warmup_refs, const ProfileOptions &opts)
{
    Pipeline<ExactSinks> pipe(base, {}, family, warmup_refs,
                              opts.solo, opts.faBound,
                              ExactSinks{opts.shards});
    return std::move(pipe.run(refs).front());
}

} // namespace onepass
} // namespace mlc
