#include "mrc/engine.hh"

#include <algorithm>
#include <utility>

#include "onepass/grid.hh"
#include "onepass/pipeline.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace mrc {

onepass::TraceProfile
profileTrace(const hier::HierarchyParams &base,
             const onepass::FamilySpec &family, trace::RefSpan refs,
             std::uint64_t warmup_refs, const MrcOptions &opts)
{
    onepass::Pipeline<SampledSinks> pipe(base, {}, family, warmup_refs,
                                         opts.solo, opts.faBound,
                                         SampledSinks{opts.sampler});
    pipe.feedAll(refs);
    return std::move(pipe.finish().front());
}

onepass::TraceProfile
profileTrace(const hier::HierarchyParams &base,
             const onepass::FamilySpec &family,
             const std::vector<trace::MemRef> &refs,
             std::uint64_t warmup_refs, const MrcOptions &opts)
{
    return profileTrace(base, family,
                        trace::RefSpan{refs.data(), refs.size()},
                        warmup_refs, opts);
}

onepass::TraceProfile
profileMapped(const hier::HierarchyParams &base,
              const onepass::FamilySpec &family,
              const trace::MappedBinaryTrace &mapped,
              std::uint64_t warmup_refs, const MrcOptions &opts)
{
    mapped.adviseSequential();
    onepass::Pipeline<SampledSinks> pipe(base, {}, family, warmup_refs,
                                         opts.solo, opts.faBound,
                                         SampledSinks{opts.sampler});
    const trace::RefSpan all = mapped.span();
    const std::size_t chunk =
        opts.streamChunkRefs == 0
            ? std::max<std::size_t>(all.size, 1)
            : static_cast<std::size_t>(opts.streamChunkRefs);
    for (std::size_t begin = 0; begin < all.size; begin += chunk) {
        const trace::RefSpan part = all.dropFirst(begin).first(chunk);
        mapped.validateRange(begin, part.size);
        pipe.feed(part);
        mapped.releaseConsumed(begin + part.size);
    }
    return std::move(pipe.finish().front());
}

std::vector<onepass::TraceProfile>
profileSuite(const hier::HierarchyParams &base,
             const onepass::FamilySpec &family,
             const expt::TraceStore &store, std::size_t jobs,
             const MrcOptions &opts)
{
    if (family.configs.empty())
        mlc_panic("mrc::profileSuite: empty cache family");
    std::vector<onepass::TraceProfile> out(store.size());
    parallelFor(jobs, out.size(), [&](std::size_t t) {
        out[t] = profileTrace(base, family, store.traces()[t],
                              expt::scaledWarmup(store.specs()[t]),
                              opts);
        out[t].traceName = store.specs()[t].name;
    });
    return out;
}

std::vector<onepass::TraceProfile>
profileCascadeTrace(const hier::HierarchyParams &base,
                    const onepass::CascadeFamilySpec &family,
                    trace::RefSpan refs, std::uint64_t warmup_refs,
                    const MrcOptions &opts)
{
    onepass::Pipeline<SampledSinks> pipe(
        base, family.pivots, family.l3, warmup_refs, opts.solo,
        opts.faBound, SampledSinks{opts.sampler});
    pipe.feedAll(refs);
    return pipe.finish();
}

std::vector<onepass::TraceProfile>
profileCascadeTrace(const hier::HierarchyParams &base,
                    const onepass::CascadeFamilySpec &family,
                    const std::vector<trace::MemRef> &refs,
                    std::uint64_t warmup_refs, const MrcOptions &opts)
{
    return profileCascadeTrace(
        base, family, trace::RefSpan{refs.data(), refs.size()},
        warmup_refs, opts);
}

std::vector<std::vector<onepass::TraceProfile>>
profileCascadeSuite(const hier::HierarchyParams &base,
                    const onepass::CascadeFamilySpec &family,
                    const expt::TraceStore &store, std::size_t jobs,
                    const MrcOptions &opts)
{
    const std::size_t n_traces = store.size();
    std::vector<std::vector<onepass::TraceProfile>> out(
        family.pivots.size(),
        std::vector<onepass::TraceProfile>(n_traces));
    parallelFor(jobs, n_traces, [&](std::size_t t) {
        std::vector<onepass::TraceProfile> per_pivot =
            profileCascadeTrace(
                base, family, store.traces()[t],
                expt::scaledWarmup(store.specs()[t]), opts);
        for (std::size_t p = 0; p < per_pivot.size(); ++p) {
            per_pivot[p].traceName = store.specs()[t].name;
            out[p][t] = std::move(per_pivot[p]);
        }
    });
    return out;
}

expt::DesignSpaceGrid
buildGrid(const hier::HierarchyParams &base,
          const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const expt::TraceStore &store, std::size_t jobs,
          const SamplerConfig &sampler)
{
    const onepass::FamilySpec family =
        onepass::FamilySpec::l2Grid(base, sizes);
    MrcOptions opts;
    opts.sampler = sampler;
    const std::vector<onepass::TraceProfile> profiles =
        profileSuite(base, family, store, jobs, opts);
    return onepass::gridFromProfiles(base, sizes, cycles, profiles);
}

} // namespace mrc
} // namespace mlc
