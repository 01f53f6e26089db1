#include "onepass/engine.hh"

#include <utility>

#include "onepass/pipeline.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

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
             const FamilySpec &family,
             const std::vector<trace::MemRef> &refs,
             std::uint64_t warmup_refs, const ProfileOptions &opts)
{
    return profileTrace(base, family,
                        trace::RefSpan{refs.data(), refs.size()},
                        warmup_refs, opts);
}

TraceProfile
profileTrace(const hier::HierarchyParams &base,
             const FamilySpec &family, trace::RefSpan refs,
             std::uint64_t warmup_refs, const ProfileOptions &opts)
{
    Pipeline<ExactSinks> pipe(base, {}, family, warmup_refs,
                              opts.solo, opts.faBound,
                              ExactSinks{opts.shards});
    pipe.feedAll(refs);
    return std::move(pipe.finish().front());
}

std::vector<TraceProfile>
profileSuite(const hier::HierarchyParams &base,
             const FamilySpec &family, const expt::TraceStore &store,
             std::size_t jobs, const ProfileOptions &opts)
{
    if (family.configs.empty())
        mlc_panic("profileSuite: empty cache family");

    // Parallel grain: (trace x block-size group). Configs sharing a
    // block size already share one decode pass inside the forest, so
    // splitting them further would redo the L1 replay for nothing;
    // configs with different block sizes replay the L1 anyway (the
    // forest would decode per group), so giving each group its own
    // task buys parallelism at no extra total work.
    const std::vector<BlockGroup> groups =
        blockGroups(family.configs);
    std::vector<FamilySpec> sub_families(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g)
        for (std::size_t m : groups[g].members)
            sub_families[g].configs.push_back(family.configs[m]);

    const std::size_t n_traces = store.size();
    std::vector<TraceProfile> sub(n_traces * groups.size());
    parallelFor(jobs, sub.size(), [&](std::size_t task) {
        const std::size_t t = task / groups.size();
        const std::size_t g = task % groups.size();
        sub[task] = profileTrace(
            base, sub_families[g], store.traces()[t],
            expt::scaledWarmup(store.specs()[t]), opts);
    });

    // Fixed-order merge back into family order: bit-identical for
    // any jobs value.
    std::vector<TraceProfile> out(n_traces);
    for (std::size_t t = 0; t < n_traces; ++t) {
        TraceProfile &dst = out[t];
        const TraceProfile &first = sub[t * groups.size()];
        dst = first;
        dst.traceName = store.specs()[t].name;
        dst.configs.assign(family.configs.size(), ConfigProfile{});
        for (std::size_t g = 0; g < groups.size(); ++g) {
            const TraceProfile &part = sub[t * groups.size() + g];
            if (part.instructions != first.instructions ||
                part.stores != first.stores ||
                part.l1ReadMisses != first.l1ReadMisses)
                mlc_panic("profileSuite: block-size groups of trace "
                          "'", store.specs()[t].name,
                          "' disagree on the L1 replay — the filter "
                          "is not deterministic");
            for (std::size_t k = 0; k < groups[g].members.size();
                 ++k)
                dst.configs[groups[g].members[k]] = part.configs[k];
        }
    }
    return out;
}

} // namespace onepass
} // namespace mlc
