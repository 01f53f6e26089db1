#include "sample/sweep.hh"

#include <algorithm>
#include <memory>
#include <optional>
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
 * Detail and Measure untimed, so that the next window's warm state
 * matches a straight-line run; with @p log, that replay also
 * records the window log the branches replay timed.
 */
void
warmWindow(hier::HierarchySimulator &sim, std::size_t prefix,
           trace::RefSpan refs, const Window &win,
           const trace::MappedBinaryTrace *mapped, WarmState &state,
           ckpt::CheckpointWriter *writer,
           std::optional<hier::FrontLog> *log)
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
    if (log) {
        log->emplace(sim.runFunctionalLogged(spanOf(refs, win.detail),
                                             spanOf(refs, win.measure)));
        return;
    }
    sim.runFunctional(spanOf(refs, win.detail));
    sim.runFunctional(spanOf(refs, win.measure));
}

/**
 * The window states a batch may hold, in bytes: the capacity of its
 * boundary ops and snapshot arenas, summed over the batch's windows
 * (each window's log and tapes ride along, a fraction of that). The
 * L1-only snapshots of an L2 sweep fit a whole 100-window schedule
 * of 1M references in one batch; a family whose snapshots carry a
 * shared 1 MB L2 branches about 8 windows at a time, whose
 * snapshots are still in the last-level cache when the branches
 * restore them.
 */
constexpr std::size_t kBatchBytes = std::size_t{8} << 20;

/** One window of a batch: its segments, its warm state, the window
 *  log every configuration replays, and the tape each group leader
 *  records over that log for its followers. */
struct BatchWindow
{
    Window segments;
    WarmState state;
    std::optional<hier::FrontLog> log;
    std::vector<hier::LevelTape> tapes; //!< one per group
};

/** One configuration's branch machine and where it stands. */
struct Branch
{
    std::unique_ptr<hier::HierarchySimulator> sim;
    std::size_t group = 0;
    /** Still sampling; adaptive stopping clears it. */
    bool active = true;
    /** The machine's results at its stop: a leader replays on for
     *  its followers, but its own result ends there. */
    std::optional<hier::SimResults> frozen;
};

/** Configurations of one functional hierarchy, in input order: the
 *  first replays live, the rest read its tapes. */
struct Group
{
    std::size_t leader = 0;
    std::vector<std::size_t> followers;
};

std::vector<Group>
groupsOf(const std::vector<hier::HierarchyParams> &configs,
         std::vector<Branch> &branches)
{
    std::vector<Group> groups;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::size_t g = 0;
        while (g < groups.size() &&
               !hier::sameFunctionalHierarchy(configs[groups[g].leader],
                                              configs[c]))
            ++g;
        if (g == groups.size())
            groups.push_back({c, {}});
        else
            groups[g].followers.push_back(c);
        branches[c].group = g;
    }
    return groups;
}

/**
 * The one branch body: configuration @p b's window @p win, live
 * (recording a tape into @p record when non-null) or, for a
 * follower, from its leader's @p tape; then the window's accounting,
 * unless @p b has stopped.
 */
void
branchWindow(Branch &b, SampledResult &out, const BatchWindow &win,
             hier::LevelTape *record, const hier::LevelTape *tape,
             const SampledOptions &resolved)
{
    hier::HierarchySimulator &sim = *b.sim;
    const Tick split =
        tape ? sim.replayWindowTimeline(win.state.snap, *win.log, *tape)
             : sim.replayWindow(win.state.ops, win.state.arena,
                                win.state.snap, *win.log, record);
    if (!b.active)
        return;
    out.refsFunctionalWarmed += win.segments.warm.len;
    out.refsDetailWarmed += win.segments.detail.len;
    detail::measureWindow(
        sim, {split, win.log->leadCounts().instructions},
        win.segments.measure.len, resolved, out);
    if (out.stoppedEarly) {
        b.active = false;
        b.frozen = sim.results();
    }
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

    std::vector<Branch> branches(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        branches[c].sim =
            std::make_unique<hier::HierarchySimulator>(configs[c]);
    const std::vector<Group> groups = groupsOf(configs, branches);
    std::vector<std::size_t> followers;
    for (const Group &g : groups)
        followers.insert(followers.end(), g.followers.begin(),
                         g.followers.end());

    sweep.perConfig.resize(configs.size());
    for (SampledResult &r : sweep.perConfig) {
        r.refsTotal = refs.size;
        r.warmRefsPerWindow = sched.plan().functionalWarmRefs;
        r.adaptiveWarmUsed = opts.adaptiveWarm;
    }

    const auto active = [&](std::size_t c) { return branches[c].active; };

    // Branch a batch of windows at a time: load or warm the batch
    // and build its window logs, then one parallel region runs each
    // group's leader over the batch and a second runs the followers
    // over the tapes the leaders recorded. Each configuration steps
    // its windows in order inside one task and writes only its own
    // slot, so any jobs count is bit-identical.
    ThreadPool pool(jobs);
    const hier::HierarchyParams l1_params = shared.params.finalized();
    const std::vector<Window> windows = windowsOf(sched);
    std::vector<BatchWindow> batch;
    WarmState scratch;
    for (std::size_t next = 0; next < windows.size();) {
        if (std::none_of(branches.begin(), branches.end(),
                         [](const Branch &b) { return b.active; })) {
            // Adaptive stopping retired everyone: a teeing sweep
            // warms the rest so the published file covers the full
            // schedule (a farm entry must serve any stopping rule);
            // everyone else is done.
            if (!writer)
                break;
            for (; next < windows.size(); ++next)
                warmWindow(*warmer, prefix, refs, windows[next], mapped,
                           scratch, writer.get(), nullptr);
            break;
        }

        std::size_t n = 0;
        std::size_t bytes = 0;
        for (; next < windows.size() && bytes < kBatchBytes; ++next) {
            if (batch.size() == n)
                batch.emplace_back();
            BatchWindow &bw = batch[n++];
            bw.segments = windows[next];
            bw.tapes.assign(groups.size(), hier::LevelTape());
            WarmState &state = bw.state;
            if (reader) {
                // Load this window's live-point instead of warming,
                // so the warm segment's pages are never validated —
                // or touched — at all. open() already checksum-
                // verified every record, so a structural decode
                // failure here is a format bug, not bit rot — fail
                // the run, don't risk silent drift.
                validate(mapped, bw.segments.detail);
                validate(mapped, bw.segments.measure);
                if (!reader->loadWindow(next, state.ops, state.snap,
                                        state.arena))
                    mlc_panic("checkpoint window ", next, " of ",
                              policy.store->pathFor(key),
                              " failed structural decode after "
                              "verification");
                if (state.snap.prefixLevels != prefix)
                    mlc_panic("checkpoint window ", next,
                              " snapshot covers ",
                              state.snap.prefixLevels,
                              " levels, sweep expects ", prefix);
            } else {
                warmWindow(*warmer, prefix, refs, bw.segments, mapped,
                           state, writer.get(), &bw.log);
            }
            bytes += state.ops.capacity() * sizeof(hier::BoundaryOp) +
                     state.arena.capacity();
        }
        if (reader) {
            // A loaded window's log steps an L1 restored from its
            // snapshot; windows are independent, so in parallel.
            pool.parallelFor(n, [&](std::size_t k) {
                BatchWindow &bw = batch[k];
                hier::L1Front front(l1_params);
                front.restore(bw.state.arena, bw.state.snap);
                bw.log.emplace(l1_params, front,
                               spanOf(refs, bw.segments.detail),
                               spanOf(refs, bw.segments.measure));
            });
        }

        // A leader replays while it samples or while a follower
        // does, and records tapes only for active followers.
        pool.parallelFor(groups.size(), [&](std::size_t g) {
            const Group &group = groups[g];
            Branch &lead = branches[group.leader];
            const bool record = std::any_of(
                group.followers.begin(), group.followers.end(), active);
            for (std::size_t k = 0; k < n && (lead.active || record);
                 ++k)
                branchWindow(lead, sweep.perConfig[group.leader],
                             batch[k],
                             record ? &batch[k].tapes[g] : nullptr,
                             nullptr, resolved);
        });
        pool.parallelFor(followers.size(), [&](std::size_t f) {
            const std::size_t c = followers[f];
            Branch &b = branches[c];
            for (std::size_t k = 0; k < n && b.active; ++k)
                branchWindow(b, sweep.perConfig[c], batch[k], nullptr,
                             &batch[k].tapes[b.group], resolved);
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

    for (std::size_t c = 0; c < configs.size(); ++c) {
        const Branch &b = branches[c];
        detail::finishSampled(b.frozen ? *b.frozen : b.sim->results(),
                              resolved, sweep.perConfig[c]);
    }
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
                   &writer, nullptr);

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
