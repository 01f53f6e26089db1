/**
 * @file
 * Streaming sampled-MRC engine: the one-pass profiling pipeline
 * (onepass/pipeline.hh) with sampled sinks, shaped for traces that
 * do not fit in RAM.
 *
 * Two things change relative to onepass::profileTrace, and nothing
 * else does:
 *
 *  1. The sinks are SampledSinks: the ghost forests are the sampled
 *     miniatures (SampledGhostForest) and the FA analyzers sample
 *     at the same rate (trace::StackDistanceAnalyzer's SHARDS
 *     mode), so cache state is O(p * footprint) — or O(budget) in
 *     adaptive mode — instead of O(family size * footprint).
 *  2. profileMapped() feeds the pipeline straight off an mmap'd
 *     binary trace in streamChunkRefs-sized chunks, validating each
 *     chunk before replay and releasing its pages (MADV_DONTNEED)
 *     after — peak RSS is one chunk plus the sampled state,
 *     independent of trace length.
 *
 * Everything else is the exact engine's: the L1Filter replay is
 * exact (its state is the L1's, bounded by the L1's size), profiles
 * come out as onepass::TraceProfile, and onepass::price /
 * EqTimingModel price them unchanged. At rate 1.0 the output is
 * bit-identical to onepass::profileTrace — the sampled engine *is*
 * the exact engine with a filter whose pass rate happens to be 1.
 */

#ifndef MLC_MRC_ENGINE_HH
#define MLC_MRC_ENGINE_HH

#include <cstdint>
#include <vector>

#include "expt/design_space.hh"
#include "expt/workload_suite.hh"
#include "hier/hierarchy_config.hh"
#include "mrc/sampled_ghost.hh"
#include "onepass/cascade.hh"
#include "onepass/engine.hh"
#include "trace/binary.hh"
#include "trace/stack_distance.hh"

namespace mlc {
namespace mrc {

/** What and how the sampled engine profiles. */
struct MrcOptions
{
    /** Sampling rate / adaptive budget, shared by the forest and
     *  the FA analyzers. */
    SamplerConfig sampler;
    /** Co-profile a solo forest on the raw CPU stream. */
    bool solo = false;
    /** Sampled FA-LRU bound per distinct block size. */
    bool faBound = false;
    /** profileMapped validates/releases in chunks of this many
     *  records (1M refs = 16MB of trace); 0 = one chunk. */
    std::uint64_t streamChunkRefs = onepass::kChunkRefs;
};

/** The sampled engine's sinks for onepass::Pipeline (pipeline.hh):
 *  SampledGhostForest and the FA analyzer (the exact engine's type),
 *  both at one sampler setting; streaming callers feed such a
 *  pipeline chunk by chunk. */
struct SampledSinks
{
    using Forest = SampledGhostForest;
    using Fa = trace::StackDistanceAnalyzer;
    /** Sampled forests estimate, so they cannot vouch for a pivot's
     *  exact replay. */
    static constexpr bool kCheckPivots = false;

    SamplerConfig sampler;

    Forest
    forest(const std::vector<onepass::GhostCacheSpec> &specs,
           const onepass::GhostPolicies &policies) const
    {
        return Forest(specs, policies, sampler);
    }
    Fa
    fa(std::uint32_t block_bytes) const
    {
        return Fa(block_bytes, sampler.rate, sampler.budget);
    }
};

/** Sampled counterpart of onepass::profileTrace (materialized or
 *  spanned refs). */
onepass::TraceProfile
profileTrace(const hier::HierarchyParams &base,
             const onepass::FamilySpec &family, trace::RefSpan refs,
             std::uint64_t warmup_refs, const MrcOptions &opts = {});

/**
 * Stream an mmap'd binary trace through the pipeline in
 * streamChunkRefs-sized chunks, validating each chunk before replay
 * (lazy traces) and releasing its pages after. Bit-identical
 * to profileTrace over the same records for any chunk size.
 */
onepass::TraceProfile
profileMapped(const hier::HierarchyParams &base,
              const onepass::FamilySpec &family,
              const trace::MappedBinaryTrace &mapped,
              std::uint64_t warmup_refs, const MrcOptions &opts = {});

/**
 * Sampled counterpart of onepass::profileCascadeTrace: the L1
 * replay and each pivot's CascadeFilter replay stay *exact* (their
 * state is bounded by the machine's own L1/L2 sizes, so sampling
 * them buys nothing), while the L3 member sweeps, the solo
 * forests, and the FA bounds are the sampled miniatures. The pivot
 * links in each returned profile therefore carry exact counts; the
 * member counts are unbiased estimates, bit-identical to the exact
 * cascade engine when every member is natural (p = 1.0).
 */
std::vector<onepass::TraceProfile>
profileCascadeTrace(const hier::HierarchyParams &base,
                    const onepass::CascadeFamilySpec &family,
                    trace::RefSpan refs, std::uint64_t warmup_refs,
                    const MrcOptions &opts = {});

} // namespace mrc
} // namespace mlc

#endif // MLC_MRC_ENGINE_HH
