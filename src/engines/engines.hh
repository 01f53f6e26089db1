/**
 * @file
 * Engine dispatch: the one place that chooses how the cells of the
 * Section 4 design space get their times. timing simulates every
 * cell (expt::parallelBuildGrid); sampled simulates a scheduled
 * subset of each trace, the cells of a trace sharing its warming
 * (sample::buildGridCheckpointed); onepass profiles the whole L2
 * family in one exact pass per trace and prices the cells with
 * Eq. 1-3; mrc runs that pass over spatially-sampled sets.
 *
 * buildGrid() is the only code that switches on the engine. Its
 * one-pass half is two public calls, profile() and onepass::price(),
 * so a caller that keeps profiles resident (the query server) hands
 * it a ProfileSource instead of re-profiling.
 */

#ifndef MLC_ENGINES_ENGINES_HH
#define MLC_ENGINES_ENGINES_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "expt/design_space.hh"
#include "mrc/sampled_ghost.hh"
#include "onepass/cascade.hh"
#include "sample/sweep.hh"
#include "trace/binary.hh"

namespace mlc {
namespace engines {

enum class Engine
{
    Timing,
    OnePass,
    Sampled,
    Mrc,
};

/** The engine's name on command lines and in the protocol. */
const char *engineName(Engine engine);
/** Set @p engine to the one called @p name; false if none is. */
bool engineNamed(std::string_view name, Engine &engine);

/** A one-pass family and its profiles over a trace store, in
 *  onepass::profileStore's pivot-major order. */
struct FamilyProfiles
{
    onepass::CascadeFamilySpec family;
    std::shared_ptr<const std::vector<onepass::TraceProfile>> profiles;
};

/** Supplies the profiles of the family a grid needs, or of a wider
 *  family holding all of it. */
using ProfileSource =
    std::function<FamilyProfiles(onepass::CascadeFamilySpec)>;

/** How the engines run; each reads only its own fields. Results
 *  are bit-identical for any jobs and shards. */
struct EngineOptions
{
    Engine engine = Engine::Timing;
    std::size_t jobs = 1;
    /** Onepass: onepass::ProfileOptions::shards. */
    std::size_t shards = 1;
    /** Mrc: sampling rate and budget. */
    mrc::SamplerConfig sampler;
    /** @{ @name Sampled: the schedule, and the checkpoint farm (null
     *  = none) with its tag and traffic tally (null = untallied), as
     *  sample::buildGridCheckpointed takes them. */
    sample::SampledOptions sampled;
    ckpt::CheckpointStore *farm = nullptr;
    std::string farmTag;
    sample::FarmTally *farmTally = nullptr;
    /** @} */
    /** Onepass, mrc: empty = profile() on every call. */
    ProfileSource profiles;
};

/**
 * The engine flags of a command line: --engine=NAME, --jobs=N,
 * --shards=N, --sample-rate=P (0 < P <= 1) and --sample-budget=N,
 * each also as two arguments ("--jobs 4"). jobs defaults to
 * defaultJobs(), shards to MLC_SHARDS or 1, the sampling knobs to
 * @p sampler. Other arguments go to @p rest, in order. A bad value
 * is fatal.
 */
EngineOptions parseArgs(int argc, char **argv,
                        std::vector<std::string> *rest = nullptr,
                        const mrc::SamplerConfig &sampler = {});

/** The family a one-pass grid over @p sizes profiles: the L2 family
 *  at depth 2 (FamilySpec::l2Grid), those sizes as cascade pivots
 *  over the machine's L3 at depth 3. Panics on deeper machines. */
onepass::CascadeFamilySpec
familyFor(const hier::HierarchyParams &base,
          const std::vector<std::uint64_t> &sizes);

/** @p family's profiles over every trace of @p store under the
 *  onepass (exact) or mrc (sampled) engine, pivot-major. */
std::vector<onepass::TraceProfile>
profile(const EngineOptions &opts, const hier::HierarchyParams &base,
        const onepass::CascadeFamilySpec &family,
        const expt::TraceStore &store, bool solo = false,
        bool fa_bound = false);

/** @p family's profiles over one stream, one per pivot. When
 *  @p refs is a prefix of @p mapped, the trace is validated and
 *  released chunk by chunk as the pass reads it. */
std::vector<onepass::TraceProfile>
profile(const EngineOptions &opts, const hier::HierarchyParams &base,
        const onepass::CascadeFamilySpec &family, trace::RefSpan refs,
        std::uint64_t warmup_refs,
        const trace::MappedBinaryTrace *mapped = nullptr,
        bool solo = false);

/** Every (size, cycle) cell's suite-mean relative execution time of
 *  base.withL2(size, cycle, base's L2 assoc) under opts.engine, at
 *  depth 2 or, for all engines but sampled, depth 3. */
expt::DesignSpaceGrid
buildGrid(const EngineOptions &opts, const hier::HierarchyParams &base,
          const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const expt::TraceStore &store);

} // namespace engines
} // namespace mlc

#endif // MLC_ENGINES_ENGINES_HH
