#include "mrc/engine.hh"

#include <utility>

#include "onepass/pipeline.hh"

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
    return std::move(pipe.run(refs).front());
}

onepass::TraceProfile
profileMapped(const hier::HierarchyParams &base,
              const onepass::FamilySpec &family,
              const trace::MappedBinaryTrace &mapped,
              std::uint64_t warmup_refs, const MrcOptions &opts)
{
    onepass::Pipeline<SampledSinks> pipe(base, {}, family, warmup_refs,
                                         opts.solo, opts.faBound,
                                         SampledSinks{opts.sampler});
    return std::move(
        pipe.run(mapped.span(), &mapped,
                 static_cast<std::size_t>(opts.streamChunkRefs))
            .front());
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
    return pipe.run(refs);
}

} // namespace mrc
} // namespace mlc
