/**
 * @file
 * Checkpoint-and-branch sampled design-space sweeps: one warming
 * pass per window for an entire grid of configurations.
 *
 * A sampled sweep over N configurations repeats the same functional
 * warming N times — and warming dominates the schedule (W is 10-30x
 * the measured window). But untimed replay evolves only functional
 * state (tags, dirty bits, reference counters), and configurations
 * that share their L1 organization and a prefix of downstream
 * levels evolve *identical* functional state above the first
 * divergent level: the traffic entering that level during warming
 * depends only on the shared prefix. So the sweep warms once on a
 * truncated "warmer" machine (the shared prefix only), records the
 * traffic crossing its memory boundary, and for each configuration
 * branches: replay the recorded boundary traffic into the divergent
 * levels, restore the prefix snapshot, then price the timed
 * Detail+Measure window from the window's one L1 log; configurations
 * of one functional hierarchy replay only the timeline from the
 * first one's level tape. The result is bit-identical to warming
 * every configuration straight-line (golden-tested), at roughly 1/N
 * of the warming cost.
 *
 * The canonical L2-size sweep shares *zero* downstream levels (the
 * L2 itself differs), so the snapshot covers just the L1s and the
 * boundary traffic is the L1 miss stream — still the bulk of the
 * warming work avoided, since the warmer replays W references once
 * while each configuration replays only the recorded misses.
 *
 * See DESIGN.md section 5e for the full compatibility rule and the
 * bit-exactness argument.
 */

#ifndef MLC_SAMPLE_SWEEP_HH
#define MLC_SAMPLE_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/store.hh"
#include "sample/engine.hh"
#include "stats/streaming_stats.hh"

namespace mlc {
namespace sample {

/**
 * Store-backed persistence for a checkpointed sweep. With a store
 * attached, the sweep first probes the trace's checkpoint farm for
 * a live-point file matching (traceId, resolved schedule, warmer
 * config); on a hit every window's warm state is loaded instead of
 * re-warmed (the warmer machine is never even constructed), and on
 * a miss the sweep optionally tees the windows it warms anyway into
 * a new farm entry, so the *next* sweep — any branch family sharing
 * this warmer, in any process — replays instead of warming. Results
 * are bit-identical either way (the acceptance contract).
 */
struct CheckpointPolicy
{
    /** nullptr = in-memory checkpointing only (the PR 5 path). */
    ckpt::CheckpointStore *store = nullptr;
    /** Farm directory for this trace, e.g. "suite/trace-name". */
    std::string traceId;
    /** Tee a new checkpoint file when the farm misses. */
    bool buildIfMissing = true;
};

/** Checkpoint-farm traffic of a run of sweeps: per-trace sweeps
 *  served from a farm, farm entries published, and farm misses
 *  that re-warmed. */
struct FarmTally
{
    std::uint64_t loads = 0;
    std::uint64_t builds = 0;
    std::uint64_t fallbacks = 0;
};

/** What runSweepCheckpointed() produces. */
struct SweepResult
{
    /** One SampledResult per input configuration, in input order —
     *  bit-identical to runSampled() on that configuration with the
     *  sweep's resolved options. */
    std::vector<SampledResult> perConfig;
    /** False when the configurations were not warm-compatible and
     *  the sweep fell back to independent straight-line runs. */
    bool checkpointed = false;
    /** Downstream levels covered by the shared snapshot (0 for the
     *  canonical L2 sweep: only the L1s are shared). */
    std::size_t prefixLevels = 0;
    /** True when warm state came from a checkpoint file instead of
     *  functional warming. */
    bool fromCheckpointFile = false;
    /** True when this sweep published a new farm entry. */
    bool builtCheckpointFile = false;
    /** Non-empty when a checkpoint path was skipped: the fallback
     *  reason ("incompatible-geometry", or a ckpt::MissReason name
     *  such as "config-hash-mismatch"), logged once per sweep. */
    std::string checkpointFallback;
};

/**
 * Sample every configuration in @p configs over @p refs with one
 * shared warming pass per window.
 *
 * Requirements for the checkpointed path: all configurations
 * warm-compatible with configs[0] (same split/L1 organization, no
 * solo co-simulation — see hier::warmCompatible()). Otherwise the
 * sweep silently falls back to independent runSampled() calls and
 * reports checkpointed = false.
 *
 * Adaptive warming (opts.adaptiveWarm) is resolved *once* for the
 * whole sweep — against the configuration with the largest deepest
 * cache, so the warm length covers every machine in the grid — and
 * the resolved fixed length is used for all configurations; per-
 * config derivation would give each machine a different schedule
 * and break both window alignment and the shared warming.
 *
 * Determinism: bit-identical for any @p jobs (each configuration
 * steps its windows in order in one task and writes only its own
 * slot), and bit-identical to straight-line runSampled() per
 * configuration.
 *
 * With a CheckpointPolicy whose store is non-null the sweep also
 * engages for a *single* configuration (the farm replay benefit
 * does not need siblings to share with); without a store a lone
 * configuration still takes the straight-line path as before.
 * In reader mode a lazily validated @p mapped trace never touches
 * its warm segments' pages at all — only Detail and Measure ranges
 * are validated and replayed.
 *
 * @param jobs configurations branched concurrently per window.
 * @param mapped see runSampled(); enables lazy range validation.
 * @param policy see CheckpointPolicy; default = no persistence.
 */
SweepResult runSweepCheckpointed(
    const std::vector<hier::HierarchyParams> &configs,
    trace::RefSpan refs, const SampledOptions &opts,
    std::size_t jobs = 1,
    const trace::MappedBinaryTrace *mapped = nullptr,
    const CheckpointPolicy &policy = {});

/**
 * Canonical schedule identity for checkpoint keying: the resolved
 * plan plus placement mode and seed. Deliberately *excludes* the
 * adaptive-stopping knobs (minWindows/target/confidence) — they
 * only truncate how many windows a sweep consumes, never what any
 * window's record contains, so one farm entry serves every
 * stopping rule.
 */
std::string scheduleKeyFor(const SamplePlan &plan, SampleMode mode,
                           std::uint64_t seed);

/**
 * Canonical functional identity of a sweep's shared warmer: the
 * split/unified shape plus every cache::functionallyEqual() field
 * of the L1s and the first @p prefix_levels downstream levels.
 * Timing fields are excluded (functional warm state is timing-
 * blind), as are tag seeds (deterministic positional constants).
 */
std::string warmerConfigKey(const hier::HierarchyParams &params,
                            std::size_t prefix_levels);

/** What buildCheckpointFarm() reports. */
struct FarmBuildResult
{
    /** False when a valid farm entry already existed (no work). */
    bool built = false;
    std::uint64_t windows = 0;
    std::uint64_t fileBytes = 0;
    std::string path;
};

/**
 * Offline farm construction: run the shared warmer over the whole
 * schedule (no branch configurations, no timed replay) and publish
 * the live-point file for (@p trace_id, resolved schedule, warmer
 * prefix of @p configs). A valid existing entry short-circuits.
 * The file is byte-identical to what a teeing sweep would publish.
 * Panics when the family is not warm-compatible — an offline
 * builder asked to checkpoint an uncheckpointable family is a
 * caller bug, not a runtime fallback.
 */
FarmBuildResult buildCheckpointFarm(
    const std::vector<hier::HierarchyParams> &configs,
    trace::RefSpan refs, const SampledOptions &opts,
    ckpt::CheckpointStore &store, const std::string &trace_id,
    const trace::MappedBinaryTrace *mapped = nullptr);

/** What runPaired() produces. */
struct PairedResult
{
    SampledResult a;
    SampledResult b;
    /** Per-window CPI pairs (covariance, correlation, delta). */
    stats::PairedStats pairs;
    /** Student-t interval on mean per-window CPI(b) - CPI(a). The
     *  half-width shrinks by the (typically large) window-to-window
     *  correlation the two runs share, so a paired comparison
     *  resolves differences far smaller than either absolute
     *  interval could. */
    stats::ConfidenceInterval deltaInterval{};
    std::uint64_t windowsPaired = 0;
};

/**
 * Matched-pair comparison of two configurations: one shared
 * SampleSchedule, both machines measured over the *same* windows
 * via the checkpointed sweep, and a confidence interval on the
 * per-window CPI difference. Adaptive stopping is disabled (both
 * runs must cover the full schedule so windows align one-to-one).
 */
PairedResult runPaired(const hier::HierarchyParams &a,
                       const hier::HierarchyParams &b,
                       trace::RefSpan refs,
                       const SampledOptions &opts,
                       std::size_t jobs = 1,
                       const trace::MappedBinaryTrace *mapped =
                           nullptr);

/**
 * The Section 4 design-space grid priced with checkpointed sampled
 * sweeps: every (size, cycle) cell holds the suite-mean sampled
 * relative execution time of base.withL2(size, cycle), exactly as
 * one runSampled() per (cell, trace) would give — but all cells of
 * a trace share each window's warming pass instead of repeating it
 * per cell.
 * Deterministic for any @p jobs.
 *
 * With @p ckpt_store non-null each trace's sweep goes through the
 * checkpoint farm (traceId = "<farm_tag>/<spec name>", or just the
 * spec name when the tag is empty): hits replay from disk, misses
 * warm once and tee the farm entry for next time, and a non-null
 * @p tally accumulates the farm traffic.
 */
expt::DesignSpaceGrid buildGridCheckpointed(
    const hier::HierarchyParams &base,
    const std::vector<std::uint64_t> &sizes,
    const std::vector<std::uint32_t> &cycles,
    const expt::TraceStore &store, const SampledOptions &opts,
    std::size_t jobs = 1,
    ckpt::CheckpointStore *ckpt_store = nullptr,
    const std::string &farm_tag = {}, FarmTally *tally = nullptr);

} // namespace sample
} // namespace mlc

#endif // MLC_SAMPLE_SWEEP_HH
