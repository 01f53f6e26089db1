/**
 * @file
 * Golden equivalence tests for the replay data path.
 *
 * The simulator offers several ways to feed the same references —
 * scalar next() through the batching default, an overridden
 * nextBatch(), zero-copy RefSpan replay, a recorded FrontLog that
 * carries only what leaves L1, and a FrontLog with a LevelTape
 * recorded at another L2 cycle time that carries what the levels
 * below L1 did — and an inline L1 hit fast path that bypasses the
 * generic access machinery. All of them
 * must produce *bit-identical* results: same cycle count, same
 * counter values, same victim choices, same cycle breakdown and
 * miss-penalty histogram, on every configuration and at every
 * warm-up length. These tests are the contract that keeps the
 * hot-path work honest.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hier/hierarchy.hh"
#include "trace/interleave.hh"
#include "trace/source.hh"
#include "util/snapshot_arena.hh"

namespace mlc {
namespace hier {
namespace {

using trace::MemRef;

/** Every field a run produces, for exact comparison. The doubles
 *  are ratios of integer tick counts, so they compare bit for bit. */
struct Golden
{
    Tick now = 0;
    std::uint64_t totalCycles = 0;
    std::uint64_t idealCycles = 0;
    std::uint64_t references = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cpuReads = 0;
    std::uint64_t cpuWrites = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::vector<std::uint64_t> levelReads;
    std::vector<std::uint64_t> levelMisses;
    std::vector<std::uint64_t> levelWritebacks;
    std::vector<std::uint64_t> l1DetailReads;
    std::vector<std::uint64_t> l1DetailMisses;
    std::vector<std::uint64_t> l1DetailWritebacks;
    std::uint64_t wbFullStalls = 0;
    /** @{ @name CycleBreakdown buckets */
    double base = 0.0;
    double storeWriteHit = 0.0;
    double readStallCacheHit = 0.0;
    double readStallMemory = 0.0;
    double storeStall = 0.0;
    /** @} */
    double meanL1MissPenalty = 0.0;
    /** Miss-penalty histogram: underflow, buckets, overflow. */
    std::vector<std::uint64_t> penaltyBuckets;

    bool operator==(const Golden &o) const = default;
};

Golden
extract(const HierarchySimulator &sim)
{
    Golden g;
    const SimResults r = sim.results();
    g.now = sim.now();
    g.totalCycles = r.totalCycles;
    g.idealCycles = r.idealCycles;
    g.references = r.references;
    g.instructions = r.instructions;
    g.cpuReads = r.cpuReads;
    g.cpuWrites = r.cpuWrites;
    g.memReads = sim.memoryReads();
    g.memWrites = sim.memoryWrites();
    g.wbFullStalls = r.writeBufferFullStalls;
    for (const LevelResults &lvl : r.levels) {
        g.levelReads.push_back(lvl.readRequests);
        g.levelMisses.push_back(lvl.readMisses);
        g.levelWritebacks.push_back(lvl.writebacks);
    }
    for (const LevelResults &side : r.l1Detail) {
        g.l1DetailReads.push_back(side.readRequests);
        g.l1DetailMisses.push_back(side.readMisses);
        g.l1DetailWritebacks.push_back(side.writebacks);
    }
    g.base = r.breakdown.base;
    g.storeWriteHit = r.breakdown.storeWriteHit;
    g.readStallCacheHit = r.breakdown.readStallCacheHit;
    g.readStallMemory = r.breakdown.readStallMemory;
    g.storeStall = r.breakdown.storeStall;
    g.meanL1MissPenalty = r.meanL1MissPenaltyCycles;
    const stats::Histogram &h = sim.missPenaltyHistogram();
    g.penaltyBuckets.push_back(h.underflow());
    for (std::size_t i = 0; i < h.bucketCount(); ++i)
        g.penaltyBuckets.push_back(h.bucket(i));
    g.penaltyBuckets.push_back(h.overflow());
    return g;
}

/** A source that deliberately hides its contiguity: only next()
 *  is exposed, so the simulator's batch loop runs the scalar
 *  default in TraceSource. */
class ScalarOnlySource : public trace::TraceSource
{
  public:
    explicit ScalarOnlySource(trace::RefSpan span) : span_(span) {}
    bool
    next(MemRef &ref) override
    {
        if (pos_ >= span_.size)
            return false;
        ref = span_[pos_++];
        return true;
    }

  private:
    trace::RefSpan span_;
    std::size_t pos_ = 0;
};

enum class Mode { Scalar, Batched, Span, Log, Record, Tape };

/** Whether @p mode feeds raw references, the only feed the L1 hit
 *  fast path applies to: a log carries what its own front did. */
bool
rawMode(Mode mode)
{
    return mode == Mode::Scalar || mode == Mode::Batched ||
           mode == Mode::Span;
}

/** Warm up on the first @p warmup references of @p all, then
 *  measure the rest, fed as @p mode says. */
Golden
replay(const HierarchyParams &params, trace::RefSpan all,
       std::size_t warmup, Mode mode, bool fast_path)
{
    const trace::RefSpan warm = all.first(warmup);
    const trace::RefSpan measure = all.dropFirst(warmup);
    HierarchySimulator sim(params);
    if (rawMode(mode))
        sim.setReadHitFastPath(fast_path);
    switch (mode) {
      case Mode::Scalar: {
        ScalarOnlySource ws(warm);
        sim.warmUp(ws, warm.size);
        ScalarOnlySource ms(measure);
        sim.run(ms);
        break;
      }
      case Mode::Batched: {
        trace::SpanSource ws(warm);
        sim.warmUp(ws, warm.size);
        trace::SpanSource ms(measure);
        sim.run(ms);
        break;
      }
      case Mode::Span:
        sim.warmUp(warm);
        sim.run(measure);
        break;
      case Mode::Log:
        // The log's own front steps the L1s (fast path on); this
        // simulator runs only the back end.
        sim.replayLog(FrontLog(params, all, warmup));
        break;
      case Mode::Record: {
        // Recording a tape leaves the log replay's results alone.
        LevelTape tape;
        sim.replayLog(FrontLog(params, all, warmup), &tape);
        break;
      }
      case Mode::Tape: {
        // A machine whose every downstream level cycles three times
        // slower records the tape; this one runs only the timeline.
        HierarchyParams recorder = params;
        for (cache::CacheParams &level : recorder.levels)
            level.cycleNs *= 3.0;
        const FrontLog log(params, all, warmup);
        LevelTape tape;
        HierarchySimulator(recorder).replayLog(log, &tape);
        sim.replayTimeline(log, tape);
        break;
      }
    }
    return extract(sim);
}

/** Assert every mode, raw modes with the fast path off and on,
 *  matches the scalar generic-path reference replay exactly, at
 *  warm-ups of nothing, a quarter, the whole span and past it. The
 *  log modes run on a simulator that is told nothing but the log,
 *  as a timing grid's cells are. */
void
expectAllModesIdentical(const HierarchyParams &params,
                        const std::vector<MemRef> &refs)
{
    const trace::RefSpan all{refs.data(), refs.size()};
    const std::size_t n = refs.size();
    for (const std::size_t warmup : {std::size_t{0}, n / 4, n, n + 1000}) {
        const Golden reference =
            replay(params, all, warmup, Mode::Scalar, false);
        if (warmup < n) {
            EXPECT_GT(reference.references, 0u);
            EXPECT_GT(reference.base, 0.0);
            EXPECT_GT(reference.meanL1MissPenalty, 0.0);
        } else {
            // Nothing measured: nothing counted, as in runOnTrace.
            EXPECT_EQ(reference.references, 0u);
            EXPECT_EQ(reference.now, 0u);
            EXPECT_EQ(reference.memReads + reference.memWrites, 0u);
            for (const std::uint64_t reads : reference.levelReads)
                EXPECT_EQ(reads, 0u);
        }

        for (const Mode mode : {Mode::Scalar, Mode::Batched, Mode::Span,
                                Mode::Log, Mode::Record, Mode::Tape}) {
            for (const bool fast : {false, true}) {
                if (fast && !rawMode(mode))
                    continue;
                const Golden got =
                    replay(params, all, warmup, mode, fast);
                EXPECT_TRUE(got == reference)
                    << "replay diverged: warmup=" << warmup
                    << " mode=" << static_cast<int>(mode)
                    << " fast=" << fast << " cycles "
                    << got.totalCycles << " vs "
                    << reference.totalCycles << ", now " << got.now
                    << " vs " << reference.now;
            }
        }
    }
}

std::vector<MemRef>
workload(std::uint64_t refs)
{
    auto gen = trace::makeMultiprogrammedWorkload(4, 6000, 0);
    return trace::collect(*gen, refs);
}

TEST(GoldenReplay, BaseMachineWriteBack)
{
    expectAllModesIdentical(HierarchyParams::baseMachine(),
                            workload(120000));
}

TEST(GoldenReplay, WriteThroughL1)
{
    HierarchyParams p = HierarchyParams::baseMachine();
    p.l1i.writePolicy = cache::WritePolicy::WriteThrough;
    p.l1d.writePolicy = cache::WritePolicy::WriteThrough;
    expectAllModesIdentical(p, workload(120000));
}

TEST(GoldenReplay, WriteThroughNoAllocateL1)
{
    HierarchyParams p = HierarchyParams::baseMachine();
    p.l1d.writePolicy = cache::WritePolicy::WriteThrough;
    p.l1d.allocPolicy = cache::AllocPolicy::NoWriteAllocate;
    expectAllModesIdentical(p, workload(120000));
}

TEST(GoldenReplay, SubBlockedL1)
{
    HierarchyParams p = HierarchyParams::baseMachine();
    // 16 B blocks fetched in 4 B sectors: the sub-block valid-mask
    // path, including tag-hit-but-invalid-sector misses.
    p.l1i.fetchBytes = 4;
    p.l1d.fetchBytes = 4;
    expectAllModesIdentical(p, workload(120000));
}

TEST(GoldenReplay, ThreeLevelHierarchy)
{
    HierarchyParams p = HierarchyParams::baseMachine();
    cache::CacheParams l3 = p.levels.back();
    l3.name = "l3";
    l3.geometry.sizeBytes = 4u << 20;
    l3.geometry.blockBytes = 64;
    l3.cycleNs = 60.0;
    p.levels.push_back(l3);
    p.busWidthWords.push_back(p.busWidthWords.back());
    expectAllModesIdentical(p, workload(120000));
}

TEST(GoldenReplay, UnifiedL1)
{
    HierarchyParams p = HierarchyParams::baseMachine();
    p.splitL1 = false;
    p.l1d.geometry.sizeBytes = 4096;
    expectAllModesIdentical(p, workload(120000));
}

/** L2 fills other than one demand block (sectors, fetch groups, a
 *  prefetch, misses with more fills than a tape's shape byte holds):
 *  the tape stores them, where it implies a lone demand block. */
TEST(GoldenReplay, L2FetchShapes)
{
    for (const std::uint32_t fetch : {8u, 128u, 1024u}) {
        HierarchyParams p = HierarchyParams::baseMachine();
        p.levels[0].fetchBytes = fetch;
        p.levels[0].prefetchNextBlock = fetch == 128;
        expectAllModesIdentical(p, workload(60000));
    }
}

/**
 * Victim-order regression: with associativity > 1 the exact victim
 * choices feed back into every later hit and miss, so any drift in
 * LRU stamps, FIFO insert order or the seeded Random stream shows
 * up as a cycle-count divergence between the replay modes — and a
 * change in the totals against the generic path.
 */
TEST(GoldenReplay, VictimOrderAcrossPolicies)
{
    for (const cache::ReplPolicy policy :
         {cache::ReplPolicy::LRU, cache::ReplPolicy::FIFO,
          cache::ReplPolicy::Random}) {
        HierarchyParams p = HierarchyParams::baseMachine();
        p.l1i.geometry.assoc = 2;
        p.l1d.geometry.assoc = 2;
        p.l1i.replPolicy = policy;
        p.l1d.replPolicy = policy;
        p.levels[0].geometry.assoc = 4;
        p.levels[0].replPolicy = policy;
        expectAllModesIdentical(p, workload(100000));
    }
}

TEST(GoldenReplay, SoloCoSimulationUnaffectedByFastPath)
{
    HierarchyParams p = HierarchyParams::baseMachine();
    p.measureSolo = true;
    const auto refs = workload(100000);
    const trace::RefSpan all{refs.data(), refs.size()};

    auto solo_ratio = [&](bool fast) {
        HierarchySimulator sim(p);
        sim.setReadHitFastPath(fast);
        sim.warmUp(all.first(refs.size() / 4));
        sim.run(all.dropFirst(refs.size() / 4));
        return sim.results().levels[1].soloMissRatio;
    };
    EXPECT_EQ(solo_ratio(false), solo_ratio(true));
}

TEST(GoldenReplayDeath, LogNeedsTheRecordedL1AndNoSolo)
{
    const auto refs = workload(20000);
    const HierarchyParams base = HierarchyParams::baseMachine();
    const FrontLog log(base, refs, refs.size() / 4);

    // Solo arrays replay the raw CPU stream, which the log lacks.
    HierarchyParams solo = base;
    solo.measureSolo = true;
    HierarchySimulator with_solo(solo);
    EXPECT_DEATH(with_solo.replayLog(log), "solo co-simulation");

    HierarchySimulator other_l1(base.withL1Total(32 * 1024));
    EXPECT_DEATH(other_l1.replayLog(log), "another L1");
}

TEST(GoldenReplayDeath, TapeNeedsItsLogAndHierarchy)
{
    const auto refs = workload(20000);
    const HierarchyParams base = HierarchyParams::baseMachine();
    const FrontLog log(base, refs, refs.size() / 4);
    LevelTape tape;
    HierarchySimulator(base).replayLog(log, &tape);

    // Another log over the same references is another log.
    const FrontLog again(base, refs, refs.size() / 4);
    HierarchySimulator other_log(base);
    EXPECT_DEATH(other_log.replayTimeline(again, tape), "another FrontLog");

    // A bigger L2 decides differently below L1.
    HierarchySimulator other_l2(base.withL2(1u << 20, 3));
    EXPECT_DEATH(other_l2.replayTimeline(log, tape), "another hierarchy");

    HierarchyParams three = base;
    three.levels.push_back(base.levels.back());
    three.levels.back().geometry.sizeBytes = 4u << 20;
    three.busWidthWords.push_back(three.busWidthWords.back());
    HierarchySimulator deeper(three);
    EXPECT_DEATH(deeper.replayTimeline(log, tape), "another hierarchy");
}

/** A timeline replay reads no tags, so it builds no cache: a grid
 *  cell that runs it allocates no level arrays. */
TEST(GoldenReplayDeath, TimelineBuildsNoCache)
{
    const auto refs = workload(20000);
    const HierarchyParams base = HierarchyParams::baseMachine();
    const FrontLog log(base, refs, refs.size() / 4);
    LevelTape tape;
    HierarchySimulator(base).replayLog(log, &tape);
    HierarchySimulator sim(base.withL2(
        base.levels[0].geometry.sizeBytes, 7));
    sim.replayTimeline(log, tape);
    EXPECT_GT(sim.results().references, 0u);
    EXPECT_DEATH(sim.level(0), "0 built caches");
}

/** A log carries no L1 timing: a machine with a slower L1 of the
 *  same function prices it like its own raw replay. */
TEST(GoldenReplay, LogServesAnyL1Timing)
{
    const auto refs = workload(60000);
    const trace::RefSpan all{refs.data(), refs.size()};
    HierarchyParams slow = HierarchyParams::baseMachine();
    slow.l1i.readCycles = 2;
    slow.l1d.readCycles = 2;
    slow.l1d.writeCycles = 3;
    const FrontLog log(HierarchyParams::baseMachine(), all,
                       refs.size() / 4);
    HierarchySimulator sim(slow);
    sim.replayLog(log);
    EXPECT_TRUE(extract(sim) == replay(slow, all, refs.size() / 4,
                                       Mode::Span, true));
}

/** A hit run closed at the run limit, as one of 2^32 hits would be,
 *  departs nothing: a log split that way replays like the raw span,
 *  on either side of the warm boundary. */
TEST(GoldenReplay, LogSplitsHitRunsAtTheRunLimit)
{
    const auto refs = workload(60000);
    const trace::RefSpan all{refs.data(), refs.size()};
    HierarchyParams no_allocate = HierarchyParams::baseMachine();
    no_allocate.l1d.writePolicy = cache::WritePolicy::WriteThrough;
    no_allocate.l1d.allocPolicy = cache::AllocPolicy::NoWriteAllocate;
    for (const HierarchyParams &params :
         {HierarchyParams::baseMachine(), no_allocate}) {
        for (const std::size_t warmup : {std::size_t{0}, refs.size() / 4}) {
            const FrontLog whole(params, all, warmup);
            const Golden raw =
                replay(params, all, warmup, Mode::Span, true);
            for (const std::uint32_t max_run : {1u, 2u, 4u}) {
                const FrontLog split(params, all, warmup, max_run);
                EXPECT_GT(split.records().size(),
                          whole.records().size());
                HierarchySimulator sim(params);
                sim.replayLog(split);
                EXPECT_TRUE(extract(sim) == raw)
                    << "warmup=" << warmup << " max_run=" << max_run;
            }
        }
    }
}

/** @{ @name Sampled windows: a window log replays a checkpointed
 *  L1's Detail and Measure segments */

/** A window of @p refs: warm on the first half, then a Detail and a
 *  Measure segment. */
struct WindowSpans
{
    trace::RefSpan warm, detail, measure;
};

WindowSpans
windowOf(trace::RefSpan all)
{
    const std::size_t warm = all.size / 2;
    const std::size_t detail = all.size / 16;
    return {all.first(warm), all.dropFirst(warm).first(detail),
            all.dropFirst(warm + detail)};
}

/** The L1s of @p params with main memory right below them. */
HierarchyParams
l1Only(const HierarchyParams &params)
{
    HierarchyParams p = params;
    p.levels.clear();
    p.busWidthWords.resize(1);
    return p;
}

bool
sameOps(const std::vector<BoundaryOp> &a, const std::vector<BoundaryOp> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const BoundaryOp &x, const BoundaryOp &y) {
                          return x.addr == y.addr && x.bytes == y.bytes &&
                                 x.kind == y.kind &&
                                 x.countRead == y.countRead;
                      });
}

/** What leaves an L1 restored from a snapshot, window log against a
 *  raw replay: an L1-only machine warms functionally and captures
 *  its L1s, then runs Detail and Measure raw while a window log is
 *  recorded from the snapshot. Replaying the Warm traffic and the
 *  log on another L1-only machine sends main memory the raw run's
 *  operations in order, the log's boundary falls where Detail's
 *  traffic ends, and the counts at the boundary and the end are the
 *  raw run's. */
void
expectWindowLogDepartures(const std::string &variant,
                          const HierarchyParams &params)
{
    SCOPED_TRACE(variant);
    const auto refs = workload(80000);
    const WindowSpans win = windowOf({refs.data(), refs.size()});
    const HierarchyParams l1_only = l1Only(params);

    HierarchySimulator donor(l1_only);
    std::vector<BoundaryOp> warm_ops;
    donor.setBoundaryRecorder(&warm_ops);
    donor.runFunctional(win.warm);
    SnapshotArena arena;
    WarmSnapshot snap;
    donor.captureWarmState(arena, snap, 0);
    std::vector<BoundaryOp> raw;
    donor.setBoundaryRecorder(&raw);
    donor.runFunctional(win.detail);
    const std::size_t raw_split = raw.size();
    const std::uint64_t split_instructions = donor.instructionCount();
    donor.runFunctional(win.measure);

    const auto windowLog = [&](trace::RefSpan measure) {
        L1Front front(l1_only.finalized());
        front.restore(arena, snap);
        return FrontLog(l1_only, front, win.detail, measure);
    };
    // The window's own departures: what follows the replayed Warm
    // traffic at the boundary.
    const auto departures = [&](const FrontLog &log) {
        HierarchySimulator sim(l1_only);
        std::vector<BoundaryOp> ops;
        sim.setBoundaryRecorder(&ops);
        sim.replayWindow(warm_ops, arena, snap, log);
        ops.erase(ops.begin(),
                  ops.begin() + static_cast<std::ptrdiff_t>(warm_ops.size()));
        return std::pair{ops, extract(sim)};
    };

    const FrontLog log = windowLog(win.measure);
    ASSERT_TRUE(log.window());
    const auto [ops, got] = departures(log);
    EXPECT_GT(raw_split, 0u);
    EXPECT_LT(raw_split, raw.size());
    EXPECT_TRUE(sameOps(ops, raw))
        << ops.size() << " replayed ops vs " << raw.size() << " raw";

    // Detail alone departs the raw Detail traffic; its records are
    // the full log's Detail part.
    const FrontLog lead = windowLog({});
    EXPECT_EQ(lead.boundary(), log.boundary());
    EXPECT_EQ(lead.records().size(), log.boundary());
    const std::vector<BoundaryOp> detail_ops(
        raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(raw_split));
    EXPECT_TRUE(sameOps(departures(lead).first, detail_ops));

    EXPECT_EQ(log.leadCounts().instructions, split_instructions);
    const Golden want = extract(donor);
    EXPECT_EQ(log.counts().instructions, want.instructions);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.cpuReads, want.cpuReads);
    EXPECT_EQ(got.cpuWrites, want.cpuWrites);
    EXPECT_EQ(got.memReads, want.memReads);
    EXPECT_EQ(got.memWrites, want.memWrites);
    EXPECT_EQ(got.l1DetailReads, want.l1DetailReads);
    EXPECT_EQ(got.l1DetailMisses, want.l1DetailMisses);
    EXPECT_EQ(got.l1DetailWritebacks, want.l1DetailWritebacks);
}

TEST(GoldenReplay, WindowLogEqualsRestoredL1Departures)
{
    const HierarchyParams base = HierarchyParams::baseMachine();
    expectWindowLogDepartures("write-back", base);

    HierarchyParams wt = base;
    wt.l1i.writePolicy = cache::WritePolicy::WriteThrough;
    wt.l1d.writePolicy = cache::WritePolicy::WriteThrough;
    expectWindowLogDepartures("write-through", wt);

    HierarchyParams wtna = base;
    wtna.l1d.writePolicy = cache::WritePolicy::WriteThrough;
    wtna.l1d.allocPolicy = cache::AllocPolicy::NoWriteAllocate;
    expectWindowLogDepartures("write-through no-allocate", wtna);

    HierarchyParams sub = base;
    sub.l1i.fetchBytes = 4;
    sub.l1d.fetchBytes = 4;
    expectWindowLogDepartures("sub-blocked", sub);

    HierarchyParams unified = base;
    unified.splitL1 = false;
    unified.l1d.geometry.sizeBytes = 4096;
    expectWindowLogDepartures("unified", unified);

    for (const cache::ReplPolicy policy :
         {cache::ReplPolicy::LRU, cache::ReplPolicy::FIFO,
          cache::ReplPolicy::Random}) {
        HierarchyParams p = base;
        p.l1i.geometry.assoc = 2;
        p.l1d.geometry.assoc = 2;
        p.l1i.replPolicy = policy;
        p.l1d.replPolicy = policy;
        expectWindowLogDepartures(
            "2-way policy " + std::to_string(static_cast<int>(policy)),
            p);
    }
}

/** A sampled window on the base machine: the warm state a warmer
 *  captured and the log an L1 restored from it records. */
struct BaseWindow
{
    std::vector<MemRef> refs = workload(40000);
    HierarchyParams params = HierarchyParams::baseMachine();
    SnapshotArena arena;
    WarmSnapshot snap;
    std::vector<BoundaryOp> ops;

    BaseWindow()
    {
        HierarchySimulator warmer(l1Only(params));
        warmer.setBoundaryRecorder(&ops);
        warmer.runFunctional(windowOf(all()).warm);
        warmer.captureWarmState(arena, snap, 0);
    }

    trace::RefSpan all() const { return {refs.data(), refs.size()}; }

    FrontLog
    log() const
    {
        const WindowSpans win = windowOf(all());
        L1Front front(params.finalized());
        front.restore(arena, snap);
        return FrontLog(params, front, win.detail, win.measure);
    }
};

/** A window's timeline reads its leader's tape: the tape of another
 *  functional hierarchy or of another window log panics. */
TEST(GoldenReplayDeath, WindowTapeNeedsItsLogAndHierarchy)
{
    const BaseWindow w;
    const FrontLog log = w.log();
    LevelTape tape;
    HierarchySimulator(w.params).replayWindow(w.ops, w.arena, w.snap,
                                              log, &tape);

    HierarchySimulator other_l2(w.params.withL2(1u << 20, 3));
    EXPECT_DEATH(other_l2.replayWindowTimeline(w.snap, log, tape),
                 "another hierarchy");

    // The same window's log, recorded again, is another log.
    const FrontLog again = w.log();
    HierarchySimulator other_log(w.params.withL2(
        w.params.levels[0].geometry.sizeBytes, 7));
    EXPECT_DEATH(other_log.replayWindowTimeline(w.snap, again, tape),
                 "another FrontLog");

    // A log over the whole span is no window log.
    const FrontLog plain(w.params, w.all(), 0);
    HierarchySimulator not_window(w.params);
    EXPECT_DEATH(not_window.replayWindow(w.ops, w.arena, w.snap, plain),
                 "not a window log");
}

/** A window's timeline reads no tags: a follower allocates no level
 *  arrays, and prices the window as its leader's live replay at its
 *  own cycle time would. */
TEST(GoldenReplayDeath, WindowTimelineBuildsNoCache)
{
    const BaseWindow w;
    const FrontLog log = w.log();
    LevelTape tape;
    HierarchySimulator(w.params).replayWindow(w.ops, w.arena, w.snap,
                                              log, &tape);

    const HierarchyParams slower =
        w.params.withL2(w.params.levels[0].geometry.sizeBytes, 7);
    HierarchySimulator follower(slower);
    const Tick split = follower.replayWindowTimeline(w.snap, log, tape);
    HierarchySimulator live(slower);
    EXPECT_EQ(split, live.replayWindow(w.ops, w.arena, w.snap, log));
    EXPECT_TRUE(extract(follower) == extract(live));
    EXPECT_GT(follower.results().references, 0u);
    EXPECT_DEATH(follower.level(0), "0 built caches");
}

/** @} */

} // namespace
} // namespace hier
} // namespace mlc
