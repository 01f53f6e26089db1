/**
 * @file
 * Golden equivalence tests for the replay data path.
 *
 * The simulator offers several ways to feed the same references —
 * scalar next() through the batching default, an overridden
 * nextBatch(), zero-copy RefSpan replay, and a recorded FrontLog
 * that carries only what leaves L1 — and an inline L1 hit fast
 * path that bypasses the generic access machinery. All of them
 * must produce *bit-identical* results: same cycle count, same
 * counter values, same victim choices, same cycle breakdown and
 * miss-penalty histogram, on every configuration and at every
 * warm-up length. These tests are the contract that keeps the
 * hot-path work honest.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "hier/hierarchy.hh"
#include "trace/interleave.hh"
#include "trace/source.hh"

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

enum class Mode { Scalar, Batched, Span, Log };

/** Warm up on the first @p warmup references of @p all, then
 *  measure the rest, fed as @p mode says. */
Golden
replay(const HierarchyParams &params, trace::RefSpan all,
       std::size_t warmup, Mode mode, bool fast_path)
{
    const trace::RefSpan warm = all.first(warmup);
    const trace::RefSpan measure = all.dropFirst(warmup);
    HierarchySimulator sim(params);
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
    }
    return extract(sim);
}

/** Assert every (mode, fast path) combination matches the scalar
 *  generic-path reference replay exactly, at warm-ups of nothing,
 *  a quarter, the whole span and past it. */
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

        for (const Mode mode :
             {Mode::Scalar, Mode::Batched, Mode::Span, Mode::Log}) {
            for (const bool fast : {false, true}) {
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

} // namespace
} // namespace hier
} // namespace mlc
