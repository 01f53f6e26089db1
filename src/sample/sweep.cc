#include "sample/sweep.hh"

#include <algorithm>
#include <memory>
#include <string>

#include "trace/binary.hh"
#include "util/logging.hh"
#include "util/snapshot_arena.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace sample {

namespace {

/**
 * Resolve the sweep-wide options: adaptive warming is derived once,
 * against the configuration with the largest deepest cache (its
 * warm requirement dominates the grid's), and then pinned as a
 * fixed length so every configuration gets the same schedule.
 */
SampledOptions
resolveSweepOptions(const std::vector<hier::HierarchyParams> &configs,
                    trace::RefSpan refs, const SampledOptions &opts)
{
    SampledOptions resolved = opts;
    if (!opts.adaptiveWarm)
        return resolved;
    const hier::HierarchyParams *largest = &configs.front();
    auto deepestBytes = [](const hier::HierarchyParams &p) {
        return p.levels.empty() ? p.l1d.geometry.sizeBytes
                                : p.levels.back().geometry.sizeBytes;
    };
    for (const hier::HierarchyParams &p : configs)
        if (deepestBytes(p) > deepestBytes(*largest))
            largest = &p;
    resolved.functionalWarmRefs =
        deriveFunctionalWarmRefs(refs, *largest, opts);
    resolved.adaptiveWarm = false;
    return resolved;
}

/** The segments of one schedule window, in schedule order. */
struct Window
{
    Segment warm{SegmentKind::Warm, 0, 0};
    Segment detail{SegmentKind::Detail, 0, 0};
    Segment measure{SegmentKind::Measure, 0, 0};
};

/** The schedule's windows in order; Skip segments drop out, so
 *  their pages are never touched (streaming skip). */
std::vector<Window>
windowsOf(const SampleScheduler &sched)
{
    std::vector<Window> windows;
    Window win;
    for (const Segment &seg : sched.segments()) {
        switch (seg.kind) {
        case SegmentKind::Skip:
            continue;
        case SegmentKind::Warm:
            win.warm = seg;
            continue;
        case SegmentKind::Detail:
            win.detail = seg;
            continue;
        case SegmentKind::Measure:
            win.measure = seg;
            break;
        }
        windows.push_back(win);
        win = Window{};
    }
    return windows;
}

trace::RefSpan
spanOf(trace::RefSpan refs, const Segment &seg)
{
    return refs.dropFirst(seg.begin).first(seg.len);
}

/** Validate @p seg just before replaying it (lazy traces only). */
void
validate(const trace::MappedBinaryTrace *mapped, const Segment &seg)
{
    if (mapped && seg.len)
        mapped->validateRange(seg.begin, seg.len);
}

/** The functionallyEqual() field set of one cache, canonicalized. */
std::string
cacheKeyPart(const cache::CacheParams &p)
{
    std::string s = std::to_string(p.geometry.sizeBytes);
    s += "." + std::to_string(p.geometry.blockBytes);
    s += "." + std::to_string(p.geometry.assoc);
    s += "." + std::to_string(p.fetchBytes);
    s += "." + std::to_string(static_cast<int>(p.writePolicy));
    s += std::to_string(static_cast<int>(p.allocPolicy));
    s += std::to_string(static_cast<int>(p.replPolicy));
    s += std::to_string(static_cast<int>(p.downstreamWriteMiss));
    s += p.prefetchNextBlock ? "p" : "n";
    return s;
}

/** The shared warmer of a warm-compatible family. */
struct Warmer
{
    /** Downstream levels every configuration shares. */
    std::size_t prefix;
    /** configs[0] cut to the shared prefix. Its "main memory"
     *  boundary is then exactly the entry into the first divergent
     *  level of every full configuration, and the per-level tag
     *  seeds (positional) line up with the prefix. */
    hier::HierarchyParams params;
};

Warmer
warmerFor(const std::vector<hier::HierarchyParams> &configs)
{
    Warmer w{configs[0].levels.size(), configs[0]};
    for (std::size_t c = 1; c < configs.size(); ++c)
        w.prefix = std::min(
            w.prefix,
            hier::sharedFunctionalPrefix(configs[0], configs[c]));
    w.params.levels.resize(w.prefix);
    w.params.busWidthWords.resize(w.prefix + 1);
    w.params.measureSolo = false;
    return w;
}

/** The farm key of @p warmer's live points over @p sched. */
ckpt::CheckpointKey
checkpointKey(const std::string &trace_id, const SampleScheduler &sched,
              const SampledOptions &resolved, const Warmer &warmer)
{
    ckpt::CheckpointKey key;
    key.traceId = trace_id;
    key.scheduleKey =
        scheduleKeyFor(sched.plan(), resolved.mode, resolved.seed);
    key.configHash = warmerConfigKey(warmer.params, warmer.prefix);
    return key;
}

/** One window's warm state: the traffic that crossed the warmer's
 *  memory boundary while warming, and the prefix snapshot. */
struct WarmState
{
    std::vector<hier::BoundaryOp> ops;
    hier::WarmSnapshot snap;
    SnapshotArena arena;
};

/**
 * One warming pass for the whole family: replay @p win's Warm
 * segment on @p sim (the warmer machine), recording the traffic
 * that crosses its memory boundary, capture the prefix into
 * @p state and tee it to @p writer when there is one. Then replay
 * Detail and Measure untimed: the configurations replay them timed,
 * and the warmer must see the same references so that the next
 * window's warm state matches a straight-line run.
 */
void
warmWindow(hier::HierarchySimulator &sim, std::size_t prefix,
           trace::RefSpan refs, const Window &win,
           const trace::MappedBinaryTrace *mapped, WarmState &state,
           ckpt::CheckpointWriter *writer)
{
    validate(mapped, win.warm);
    validate(mapped, win.detail);
    validate(mapped, win.measure);
    state.ops.clear();
    sim.setBoundaryRecorder(&state.ops);
    sim.runFunctional(spanOf(refs, win.warm));
    sim.setBoundaryRecorder(nullptr);
    state.arena.reset();
    sim.captureWarmState(state.arena, state.snap, prefix);
    if (writer)
        writer->addWindow(state.ops, state.snap, state.arena);
    sim.runFunctional(spanOf(refs, win.detail));
    sim.runFunctional(spanOf(refs, win.measure));
}

} // namespace

std::string
scheduleKeyFor(const SamplePlan &plan, SampleMode mode,
               std::uint64_t seed)
{
    std::string k = "v1;mode=";
    k += mode == SampleMode::Systematic ? "sys" : "rand";
    k += ";seed=" + std::to_string(seed);
    k += ";refs=" + std::to_string(plan.totalRefs);
    k += ";period=" + std::to_string(plan.period);
    k += ";measure=" + std::to_string(plan.measureRefs);
    k += ";detail=" + std::to_string(plan.detailWarmRefs);
    k += ";warm=" + std::to_string(plan.functionalWarmRefs);
    k += ";windows=" + std::to_string(plan.windows);
    return k;
}

std::string
warmerConfigKey(const hier::HierarchyParams &params,
                std::size_t prefix_levels)
{
    std::string s = params.splitL1 ? "split" : "unified";
    if (params.splitL1)
        s += ";i=" + cacheKeyPart(params.l1i);
    s += ";d=" + cacheKeyPart(params.l1d);
    for (std::size_t i = 0; i < prefix_levels; ++i)
        s += ";L" + std::to_string(i + 2) + "=" +
             cacheKeyPart(params.levels[i]);
    return s;
}

SweepResult
runSweepCheckpointed(const std::vector<hier::HierarchyParams> &configs,
                     trace::RefSpan refs, const SampledOptions &opts,
                     std::size_t jobs,
                     const trace::MappedBinaryTrace *mapped,
                     const CheckpointPolicy &policy)
{
    if (configs.empty())
        mlc_panic("runSweepCheckpointed: no configurations");

    const SampledOptions resolved =
        resolveSweepOptions(configs, refs, opts);

    SweepResult sweep;

    // Compatibility: a multi-config family must be pairwise warm-
    // compatible; a lone configuration has nothing to share in-
    // process, so it only takes the checkpointed path when a store
    // makes the warm pass worth persisting.
    bool compatible;
    std::size_t first_incompatible = 0;
    if (configs.size() > 1) {
        compatible = true;
        for (std::size_t c = 1; c < configs.size(); ++c)
            if (!hier::warmCompatible(configs[0], configs[c])) {
                compatible = false;
                first_incompatible = c;
                break;
            }
    } else {
        compatible = policy.store != nullptr &&
                     hier::warmCompatible(configs[0], configs[0]);
    }

    if (!compatible) {
        if (configs.size() > 1) {
            // Once-per-sweep diagnosis: a sweep the caller expected
            // to share warming is silently N times slower otherwise.
            sweep.checkpointFallback = "incompatible-geometry";
            warn("runSweepCheckpointed: straight-line fallback: "
                 "config ",
                 first_incompatible,
                 " is not warm-compatible with config 0 "
                 "(split-L1 shape, L1 organization or solo "
                 "co-simulation differ)");
        }
        // Straight-line fallback: nothing shared, so just run every
        // configuration independently (still slot-indexed for
        // jobs-count determinism).
        sweep.perConfig.resize(configs.size());
        parallelFor(jobs, configs.size(), [&](std::size_t c) {
            sweep.perConfig[c] =
                runSampled(configs[c], refs, resolved, mapped);
            sweep.perConfig[c].adaptiveWarmUsed = opts.adaptiveWarm;
        });
        return sweep;
    }

    const Warmer shared = warmerFor(configs);
    const std::size_t prefix = shared.prefix;
    sweep.checkpointed = true;
    sweep.prefixLevels = prefix;

    SampleScheduler sched(refs.size, resolved);

    // Probe the checkpoint farm. A hit replaces the warmer machine
    // entirely; a miss (with buildIfMissing) tees the windows this
    // sweep warms anyway into a new farm entry.
    std::unique_ptr<ckpt::CheckpointReader> reader;
    std::unique_ptr<ckpt::CheckpointWriter> writer;
    ckpt::CheckpointKey key;
    if (policy.store) {
        key = checkpointKey(policy.traceId, sched, resolved, shared);
        const std::uint64_t fingerprint =
            ckpt::traceFingerprint(refs.data, refs.size);
        ckpt::MissReason reason = ckpt::MissReason::None;
        std::string miss_detail;
        reader = policy.store->tryOpen(key, refs.size, fingerprint,
                                       &reason, &miss_detail);
        if (reader &&
            reader->meta().windows != sched.plan().windows) {
            // scheduleKey encodes the window count, so a verified
            // file disagreeing with its own key is farm corruption.
            reason = ckpt::MissReason::Corrupt;
            miss_detail = policy.store->pathFor(key) +
                          ": window count disagrees with its "
                          "schedule key";
            reader.reset();
        }
        if (reader) {
            sweep.fromCheckpointFile = true;
        } else {
            sweep.checkpointFallback = ckpt::missReasonName(reason);
            inform("runSweepCheckpointed: checkpoint farm miss "
                   "for '",
                   policy.traceId, "' (",
                   ckpt::missReasonName(reason), "): ", miss_detail,
                   policy.buildIfMissing
                       ? "; re-warming and building a farm entry"
                       : "; re-warming");
            if (policy.buildIfMissing)
                writer = std::make_unique<ckpt::CheckpointWriter>(
                    key, refs.size, fingerprint);
        }
    }

    std::unique_ptr<hier::HierarchySimulator> warmer;
    if (!reader)
        warmer = std::make_unique<hier::HierarchySimulator>(
            shared.params);

    std::vector<std::unique_ptr<hier::HierarchySimulator>> sims;
    sims.reserve(configs.size());
    for (const hier::HierarchyParams &p : configs)
        sims.push_back(
            std::make_unique<hier::HierarchySimulator>(p));

    sweep.perConfig.resize(configs.size());
    for (SampledResult &r : sweep.perConfig) {
        r.refsTotal = refs.size;
        r.warmRefsPerWindow = sched.plan().functionalWarmRefs;
        r.adaptiveWarmUsed = opts.adaptiveWarm;
    }

    // Configurations still sampling (adaptive stopping retires them
    // one by one; the sweep ends when none are left).
    std::vector<std::uint8_t> active(configs.size(), 1);
    auto anyActive = [&] {
        return std::any_of(active.begin(), active.end(),
                           [](std::uint8_t a) { return a != 0; });
    };

    WarmState state;
    std::size_t window_idx = 0;
    for (const Window &win : windowsOf(sched)) {
        // Adaptive stopping retired everyone: a teeing sweep keeps
        // warming so the published file covers the full schedule
        // (a farm entry must serve any stopping rule), everyone
        // else is done.
        const bool branching = anyActive();
        if (!branching && !writer)
            break;

        if (reader) {
            // Load this window's live-point instead of warming, so
            // the warm segment's pages are never validated — or
            // touched — at all. open() already checksum-verified
            // every record, so a structural decode failure here is
            // a format bug, not bit rot — fail the run, don't risk
            // silent drift.
            validate(mapped, win.detail);
            validate(mapped, win.measure);
            if (!reader->loadWindow(window_idx, state.ops, state.snap,
                                    state.arena))
                mlc_panic("checkpoint window ", window_idx, " of ",
                          policy.store->pathFor(key),
                          " failed structural decode after "
                          "verification");
            if (state.snap.prefixLevels != prefix)
                mlc_panic("checkpoint window ", window_idx,
                          " snapshot covers ", state.snap.prefixLevels,
                          " levels, sweep expects ", prefix);
        } else {
            warmWindow(*warmer, prefix, refs, win, mapped, state,
                       writer.get());
        }
        ++window_idx;

        // Branch: each configuration rebuilds this window's warm
        // state (boundary replay first — it touches only the
        // divergent levels — then the prefix restore) and runs its
        // own timed Detail+Measure. Slot-indexed per-config state
        // keeps any jobs count bit-identical.
        if (!branching)
            continue;
        const trace::RefSpan detail_span = spanOf(refs, win.detail);
        const trace::RefSpan measure_span = spanOf(refs, win.measure);
        parallelFor(jobs, configs.size(), [&](std::size_t c) {
            if (!active[c])
                return;
            hier::HierarchySimulator &sim = *sims[c];
            SampledResult &out = sweep.perConfig[c];
            sim.replayBoundary(prefix, state.ops);
            sim.restoreWarmState(state.arena, state.snap);
            out.refsFunctionalWarmed += win.warm.len;
            if (win.detail.len) {
                sim.run(detail_span);
                out.refsDetailWarmed += win.detail.len;
            }
            detail::measureWindow(sim, measure_span, resolved, out);
            if (out.stoppedEarly)
                active[c] = 0;
        });
    }

    if (writer) {
        std::string err;
        if (policy.store->publish(*writer, key, &err) != 0)
            sweep.builtCheckpointFile = true;
        else
            warn("runSweepCheckpointed: could not publish "
                 "checkpoint: ",
                 err);
    }

    for (std::size_t c = 0; c < configs.size(); ++c)
        detail::finishSampled(*sims[c], resolved,
                              sweep.perConfig[c]);
    return sweep;
}

FarmBuildResult
buildCheckpointFarm(const std::vector<hier::HierarchyParams> &configs,
                    trace::RefSpan refs, const SampledOptions &opts,
                    ckpt::CheckpointStore &store,
                    const std::string &trace_id,
                    const trace::MappedBinaryTrace *mapped)
{
    if (configs.empty())
        mlc_panic("buildCheckpointFarm: no configurations");

    const SampledOptions resolved =
        resolveSweepOptions(configs, refs, opts);
    for (const hier::HierarchyParams &p : configs)
        if (!hier::warmCompatible(configs[0], p))
            mlc_panic("buildCheckpointFarm: configurations are "
                      "not warm-compatible; nothing to persist");

    const Warmer shared = warmerFor(configs);
    SampleScheduler sched(refs.size, resolved);
    const ckpt::CheckpointKey key =
        checkpointKey(trace_id, sched, resolved, shared);
    const std::uint64_t fingerprint =
        ckpt::traceFingerprint(refs.data, refs.size);

    FarmBuildResult out;
    out.path = store.pathFor(key);
    out.windows = sched.plan().windows;
    if (auto existing = store.tryOpen(key, refs.size, fingerprint,
                                      nullptr, nullptr)) {
        out.fileBytes = existing->meta().fileBytes;
        return out;
    }

    // The teeing sweep's warming pass, without the branches.
    ckpt::CheckpointWriter writer(key, refs.size, fingerprint);
    hier::HierarchySimulator warmer(shared.params);
    WarmState state;
    for (const Window &win : windowsOf(sched))
        warmWindow(warmer, shared.prefix, refs, win, mapped, state,
                   &writer);

    std::string err;
    out.fileBytes = store.publish(writer, key, &err);
    if (out.fileBytes == 0)
        mlc_fatal("buildCheckpointFarm: ", err);
    out.built = true;
    return out;
}

PairedResult
runPaired(const hier::HierarchyParams &a,
          const hier::HierarchyParams &b, trace::RefSpan refs,
          const SampledOptions &opts, std::size_t jobs,
          const trace::MappedBinaryTrace *mapped)
{
    // Window alignment needs both machines to cover the identical
    // schedule, so the pair always runs to completion; adaptive
    // stopping would retire the faster-converging machine early.
    SampledOptions full = opts;
    full.targetRelHalfWidth = 0.0;

    SweepResult sweep = runSweepCheckpointed({a, b}, refs, full,
                                             jobs, mapped);

    PairedResult out;
    out.a = std::move(sweep.perConfig[0]);
    out.b = std::move(sweep.perConfig[1]);

    // Windows are placed by reference index, and a window's
    // instruction count is a property of the trace alone — so a
    // window yields a CPI sample on machine A iff it does on B and
    // the two vectors align index-for-index.
    if (out.a.windowCpiValues.size() != out.b.windowCpiValues.size())
        mlc_panic("runPaired: misaligned window CPI samples (",
                  out.a.windowCpiValues.size(), " vs ",
                  out.b.windowCpiValues.size(), ")");
    for (std::size_t i = 0; i < out.a.windowCpiValues.size(); ++i)
        out.pairs.push(out.a.windowCpiValues[i],
                       out.b.windowCpiValues[i]);
    out.windowsPaired = out.pairs.count();
    out.deltaInterval = out.pairs.deltaInterval(opts.confidence);
    return out;
}

expt::DesignSpaceGrid
buildGridCheckpointed(const hier::HierarchyParams &base,
                      const std::vector<std::uint64_t> &sizes,
                      const std::vector<std::uint32_t> &cycles,
                      const expt::TraceStore &store,
                      const SampledOptions &opts, std::size_t jobs,
                      ckpt::CheckpointStore *ckpt_store,
                      const std::string &farm_tag, FarmTally *tally)
{
    if (store.size() == 0)
        mlc_panic("buildGridCheckpointed: empty trace store");

    // Row-major (size, cycle) flattening, matching
    // DesignSpaceGrid's own layout.
    std::vector<hier::HierarchyParams> configs;
    configs.reserve(sizes.size() * cycles.size());
    for (std::uint64_t size : sizes)
        for (std::uint32_t cycle : cycles)
            configs.push_back(base.withL2(size, cycle));

    // Traces run serially — each trace's sweep already spreads its
    // configurations over the jobs — and the accumulation order is
    // fixed, so the grid is bit-identical for any jobs count.
    std::vector<double> acc(configs.size(), 0.0);
    for (std::size_t t = 0; t < store.size(); ++t) {
        CheckpointPolicy policy;
        if (ckpt_store) {
            policy.store = ckpt_store;
            const std::string &name = store.specs()[t].name;
            policy.traceId =
                farm_tag.empty() ? name : farm_tag + "/" + name;
        }
        const SweepResult sweep = runSweepCheckpointed(
            configs, store.span(t), opts, jobs, nullptr, policy);
        if (ckpt_store && tally) {
            if (sweep.fromCheckpointFile)
                ++tally->loads;
            if (sweep.builtCheckpointFile)
                ++tally->builds;
            if (!sweep.fromCheckpointFile &&
                !sweep.checkpointFallback.empty())
                ++tally->fallbacks;
        }
        for (std::size_t c = 0; c < configs.size(); ++c)
            acc[c] += sweep.perConfig[c].estRelExecTime;
    }

    expt::DesignSpaceGrid grid(sizes, cycles);
    const double n = static_cast<double>(store.size());
    for (std::size_t si = 0; si < sizes.size(); ++si)
        for (std::size_t ci = 0; ci < cycles.size(); ++ci)
            grid.set(si, ci, acc[si * cycles.size() + ci] / n);
    return grid;
}

} // namespace sample
} // namespace mlc
