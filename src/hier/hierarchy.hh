/**
 * @file
 * The multi-level cache hierarchy timing simulator — the paper's
 * measurement apparatus.
 *
 * Model (Section 2 of the paper):
 *  - A RISC-like CPU issues one instruction fetch per cycle plus at
 *    most one data reference in the same cycle. Read hits in L1 are
 *    fully pipelined; an L1 write hit takes the L1's write time
 *    (2 cycles in the base machine, i.e. one stall cycle).
 *  - An L1 read miss stalls the CPU until the entire L1 block
 *    arrives from the next level; a miss at the last cache level
 *    stalls it until the whole block arrives from main memory.
 *  - Between every pair of adjacent levels sits a write buffer
 *    (default 4 entries) through which dirty victims and forwarded
 *    stores drain; demand reads have priority over unstarted
 *    buffered writes but wait for writes in progress and for
 *    buffered writes that overlap the read.
 *  - Main memory has read/write operation times and a refresh gap
 *    between successive operations.
 *
 * Simplifications (documented in DESIGN.md): fills do not charge
 * extra array occupancy at the level being filled, and victim
 * write-backs / forwarded stores that miss in an intermediate level
 * are passed around it (write-around) rather than allocating — the
 * paper's write-back L1 with ample buffering makes write effects
 * "mostly hidden" either way.
 *
 * Because reads block the CPU, the whole machine is exact under a
 * busy-until schedule: there is no event queue, and simulation
 * costs a few hundred instructions per reference.
 */

#ifndef MLC_HIER_HIERARCHY_HH
#define MLC_HIER_HIERARCHY_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/cache.hh"
#include "hier/hierarchy_config.hh"
#include "hier/results.hh"
#include "mem/bus.hh"
#include "mem/main_memory.hh"
#include "mem/timing.hh"
#include "mem/write_buffer.hh"
#include "stats/stats.hh"
#include "trace/source.hh"
#include "util/bits.hh"

namespace mlc {
namespace hier {

/**
 * One operation crossing the warm-snapshot boundary.
 *
 * During checkpointed warming a recorder captures every read/write
 * that leaves the shared hierarchy prefix (see
 * setBoundaryRecorder()); replaying the recorded stream into
 * another simulator's levels at and below the boundary evolves
 * their functional state exactly as straight-line warming would —
 * the traffic entering the boundary depends only on the prefix,
 * which compatible configurations share.
 */
struct BoundaryOp
{
    enum class Kind : std::uint8_t { Read, Write };

    Addr addr = 0;
    std::uint32_t bytes = 0;
    Kind kind = Kind::Read;
    /** The read was demand traffic (counts in readReqs_). */
    bool countRead = false;
};

/**
 * Checkpoint of the warm (functional) state above a boundary:
 * L1 caches, the shared prefix of downstream levels, and every
 * counter that advances during untimed replay. Timing state (now_,
 * write buffers, stall buckets) is deliberately absent — it only
 * advances during timed segments, which checkpointed sweeps run
 * per configuration anyway.
 */
struct WarmSnapshot
{
    /** @{ @name Shape fingerprint (restore-compat check) */
    bool splitL1 = false;
    std::size_t prefixLevels = 0;
    /** @} */

    cache::CacheSnapshot l1i; //!< meaningful only when splitL1
    cache::CacheSnapshot l1d;
    std::vector<cache::CacheSnapshot> levels; //!< [0, prefixLevels)

    /** @{ @name Counters that advance during untimed replay */
    std::uint64_t instructions = 0; //!< also the ifetch count
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t refsRun = 0;
    std::uint64_t l1ReadMissCount = 0;
    std::vector<std::uint64_t> readReqs;   //!< [0, prefixLevels)
    std::vector<std::uint64_t> readMisses; //!< [0, prefixLevels)
    /** @} */
};

/** An L1 front's counters: the reference mix and each side's cache
 *  counts. */
struct L1Counts
{
    std::uint64_t instructions = 0; //!< also the ifetch count
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    cache::CacheCounts l1i; //!< all zero when the L1 is unified
    cache::CacheCounts l1d; //!< the unified L1 when !splitL1

    /** @{ @name L1 read traffic, split I+D summed */
    std::uint64_t
    readRequests() const
    {
        return l1i.readAccesses() + l1d.readAccesses();
    }
    std::uint64_t
    readMisses() const
    {
        return l1i.readMisses() + l1d.readMisses();
    }
    /** @} */
};

/**
 * The L1 front end: the split (or unified) first level, replayed
 * functionally one CPU reference at a time. What leaves it (fills,
 * dirty victims, forwarded stores) depends only on the L1
 * configuration and the trace: functional state never depends on
 * timing, and the write-around levels below never feed back
 * upstream. So one replay serves every engine: HierarchySimulator
 * steps it and adds the cycles; onepass::L1Filter steps it and
 * turns what leaves it into ghost-sweep events.
 */
class L1Front
{
  public:
    /** What one reference did at L1. */
    enum class Step : std::uint8_t
    {
        ReadHit,   //!< a read L1 served
        StoreHit,  //!< a store L1 absorbed; nothing goes down
        ReadMiss,  //!< outcome() holds the fills and victims
        StoreDown, //!< outcome() holds fills, victims, forwardWrite
    };

    /** @param params must be finalized; only its L1s are read. */
    explicit L1Front(const HierarchyParams &params)
    {
        if (params.splitL1)
            l1i_ = std::make_unique<cache::Cache>(params.l1i, kL1iSeed);
        l1d_ = std::make_unique<cache::Cache>(params.l1d, kL1dSeed);
    }

    /**
     * Replay one CPU reference: count it in the reference mix and
     * apply it to the L1 that serves it. An L1 hit (the ~95% case at
     * the paper's base miss ratios) is one inline SoA probe plus a
     * recency touch; the rest goes through cache::Cache::access().
     * Both paths update the caches identically (golden-tested).
     */
    Step
    step(const trace::MemRef &ref)
    {
        cache::Cache *l1 = l1d_.get();
        if (ref.isInst()) {
            ++instructions_;
            if (l1i_)
                l1 = l1i_.get();
        } else if (ref.type == trace::RefType::Load) {
            ++loads_;
        } else {
            ++stores_;
        }

        if (ref.isRead()) {
            if (fastPath_ && l1->tryReadHit(ref))
                return Step::ReadHit;
            l1->access(ref, outcome_);
            return outcome_.hit ? Step::ReadHit : Step::ReadMiss;
        }
        // A write-back store hit completes locally (stores always
        // address the D-side); a write-through hit still forwards.
        if (fastPath_ && l1->tryStoreHit(ref))
            return Step::StoreHit;
        l1->access(ref, outcome_);
        return outcome_.hit && !outcome_.forwardWrite ? Step::StoreHit
                                                      : Step::StoreDown;
    }

    /** What the last ReadMiss or StoreDown step sends downstream,
     *  demand fill first. */
    const cache::AccessOutcome &outcome() const { return outcome_; }

    /** Disable/re-enable the inline hit fast paths. They are
     *  bit-exact, so only tests and benches turn them off. */
    void setFastPath(bool enabled) { fastPath_ = enabled; }

    /** Zero every counter, keeping tag state (post-warm-up). */
    void
    resetCounts()
    {
        instructions_ = loads_ = stores_ = 0;
        if (l1i_)
            l1i_->resetCounts();
        l1d_->resetCounts();
    }

    /** @{ @name Reference mix since the last reset (every
     *  instruction is one ifetch) */
    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t loads() const { return loads_; }
    std::uint64_t stores() const { return stores_; }
    /** @} */

    /** Every counter since the last reset. */
    L1Counts
    counts() const
    {
        return {instructions_, loads_, stores_,
                l1i_ ? l1i_->counts() : cache::CacheCounts{},
                l1d_->counts()};
    }

  private:
    /** Checkpoints this state (WarmSnapshot) and reports per side. */
    friend class HierarchySimulator;

    std::unique_ptr<cache::Cache> l1i_; //!< null if unified
    std::unique_ptr<cache::Cache> l1d_; //!< the unified L1 if !split
    cache::AccessOutcome outcome_;
    bool fastPath_ = true;

    std::uint64_t instructions_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
};

/** L1 hits by kind. */
struct HitRun
{
    std::uint32_t ifetches = 0;
    std::uint32_t loads = 0;
    std::uint32_t stores = 0;
};

/**
 * What one reference sends below L1 (a ReadMiss or StoreDown step):
 * its fills, demand fill first, its dirty victims, and whether the
 * store itself goes down. A view into the front's AccessOutcome or
 * into a FrontLog, so neither replay copies the group.
 */
struct Departure
{
    std::span<const Addr> fills;
    std::span<const cache::WritebackReq> writebacks;
    bool forwardWrite = false;
};

/**
 * What one L1 configuration sends below L1 for one trace, recorded
 * in a single pass of L1Front over the span.
 *
 * Neither the L1 tag state nor the cost of an L1 hit depends on
 * anything below L1, so the timed back end needs from the trace only
 * the departing steps (ReadMiss, StoreDown) and how many hits of
 * each kind came between them. The log keeps exactly that: one
 * Record per departing step, holding the hit run since the previous
 * record, the reference's kind, address and size, and its fills,
 * victims and forwardWrite (plus a record that departs nothing
 * wherever 2^32 - 1 hits of one kind come in a row); the index of the first record after the
 * warm boundary, whose hit run counts only post-boundary hits; the
 * trailing hit run; and the front's counters after the boundary.
 * HierarchySimulator::replayLog() replays it into any machine whose
 * L1 is functionally equal (sameFunctionalL1), bit-identical to
 * warmUp() + run() over the raw span. A log costs O(records), about
 * 0.1 per reference on the grid suite, never one entry per
 * reference.
 */
class FrontLog
{
  public:
    /** One ReadMiss or StoreDown step, or a hit run closed at the
     *  run limit, which sends nothing below L1. */
    struct Record
    {
        Addr addr = 0;  //!< where a forwarded store writes
        HitRun hits;    //!< L1 hits since the previous record
        std::uint32_t fills = 0;      //!< its entries in fills()
        std::uint32_t writebacks = 0; //!< its entries in writebacks()
        trace::RefType type = trace::RefType::IFetch;
        std::uint8_t size = 0;
        bool forwardWrite = false;
        bool departs = true; //!< false: the hit run alone
    };

    /** The longest run of one kind of hit a HitRun holds. */
    static constexpr std::uint32_t kMaxRun =
        std::numeric_limits<std::uint32_t>::max();

    /**
     * Step @p refs through an L1Front built from @p params's L1s;
     * the first @p warmup_refs references (clamped to the span) are
     * the warm-up. A hit run that reaches @p max_run (>= 1) hits of
     * one kind is closed by a record that departs nothing, so a span
     * of any length fits the 32-bit counts; a smaller @p max_run
     * only exercises that split.
     */
    FrontLog(const HierarchyParams &params, trace::RefSpan refs,
             std::uint64_t warmup_refs, std::uint32_t max_run = kMaxRun);

    /** The finalized configuration whose L1s were recorded. */
    const HierarchyParams &params() const { return params_; }
    const std::vector<Record> &records() const { return records_; }
    /** Records [0, boundary()) precede the warm boundary. */
    std::size_t boundary() const { return boundary_; }
    /** Hits after the last record, all past the boundary. */
    const HitRun &tail() const { return tail_; }
    /** The front's counters after the warm boundary. */
    const L1Counts &counts() const { return counts_; }
    /** @{ @name Every record's fills and victims, in record order */
    const std::vector<Addr> &fills() const { return fills_; }
    const std::vector<cache::WritebackReq> &
    writebacks() const
    {
        return writebacks_;
    }
    /** @} */

  private:
    HierarchyParams params_;
    std::vector<Record> records_;
    std::vector<Addr> fills_;
    std::vector<cache::WritebackReq> writebacks_;
    std::size_t boundary_ = 0;
    HitRun tail_;
    L1Counts counts_;
};

/** Trace-driven, cycle-accounting hierarchy simulator. */
class HierarchySimulator
{
  public:
    /** @param params finalized (or finalizable) configuration. */
    explicit HierarchySimulator(HierarchyParams params);

    /**
     * Run @p refs references functionally (tags update, no timing,
     * no statistics kept afterwards) to take the caches out of the
     * cold-start region, as the paper's methodology requires. Must
     * precede run(); counters are zeroed on return.
     */
    std::uint64_t warmUp(trace::TraceSource &source,
                         std::uint64_t refs);

    /** Warm up over a contiguous span (zero-copy replay). */
    std::uint64_t warmUp(trace::RefSpan refs);

    /**
     * Simulate with full timing.
     *
     * The source is drained in batches through nextBatch(), so the
     * per-reference cost carries no virtual call; contiguous
     * sources are consumed with one copy per few hundred
     * references. Results are bit-identical to feeding the same
     * references through run(RefSpan).
     *
     * @return number of references consumed.
     */
    std::uint64_t
    run(trace::TraceSource &source,
        std::uint64_t max_refs =
            std::numeric_limits<std::uint64_t>::max());

    /** Simulate a contiguous span with full timing (zero-copy). */
    std::uint64_t run(trace::RefSpan refs);

    /**
     * Replay @p refs functionally *without* resetting counters:
     * tags, dirty bits and reference/miss counters advance, timing
     * state does not. This is the sampled engine's between-window
     * warming primitive — unlike warmUp() it may be freely
     * interleaved with timed run() calls; CPI windows are delimited
     * by snapshotting now() and instructionCount() around the timed
     * segments, so the untimed references in between never enter a
     * window's cycle arithmetic.
     */
    std::uint64_t runFunctional(trace::RefSpan refs);

    /**
     * Replay a recorded FrontLog instead of its raw span: the
     * records before the warm boundary untimed, then a reset, then
     * the rest timed, each record's hit run charged before its
     * departure goes to the same back end the raw replay uses.
     * Results, L1 counts included (taken from the log), equal
     * warmUp() + run() over the span the log was recorded from.
     * Call it on a fresh simulator, in place of those two. Panics
     * when the log's L1 is not functionally this machine's, and
     * when a solo co-simulation is active (solo arrays replay the
     * raw CPU stream, which a log does not keep).
     */
    void replayLog(const FrontLog &log);

    /** Disable/re-enable the L1 front's hit fast paths; results
     *  do not depend on it (L1Front::setFastPath). */
    void setReadHitFastPath(bool enabled) { front_.setFastPath(enabled); }

    /** Measurements over everything run() has simulated. */
    SimResults results() const;

    /**
     * @{ @name Warm-state checkpointing
     *
     * captureWarmState() copies the functional state above the
     * boundary — L1s, levels [0, prefix_levels), untimed-path
     * counters — into the arena; restoreWarmState() copies it back.
     * Both panic when a solo co-simulation is active (solo arrays
     * see the raw CPU stream and cannot be reconstructed from
     * boundary traffic), and restore panics when the snapshot's
     * shape does not match this simulator (different splitL1, a
     * deeper prefix than this hierarchy, or per-level geometry
     * mismatch via TagArray::restoreState).
     */
    void captureWarmState(SnapshotArena &arena, WarmSnapshot &snap,
                          std::size_t prefix_levels) const;
    void restoreWarmState(const SnapshotArena &arena,
                          const WarmSnapshot &snap);
    /** @} */

    /**
     * Record every operation that reaches main memory (the
     * boundary of a truncated warming hierarchy) into @p sink;
     * nullptr disables recording. A sweep's warmer simulator is
     * built with only the shared prefix of levels, so "main
     * memory" there is exactly the boundary into the first
     * divergent level of the full configurations.
     */
    void setBoundaryRecorder(std::vector<BoundaryOp> *sink)
    {
        boundaryRec_ = sink;
    }

    /**
     * Replay recorded boundary traffic, untimed, into this
     * hierarchy starting at @p level (levels_.size() = main
     * memory). Evolves levels >= level exactly as the straight-line
     * untimed recursion would.
     */
    std::uint64_t replayBoundary(std::size_t level,
                                 const std::vector<BoundaryOp> &ops);

    /** @{ @name Component access (tests, stats reporting) */
    const HierarchyParams &params() const { return params_; }
    std::size_t levelCount() const { return levels_.size(); }
    const cache::Cache &level(std::size_t i) const
    {
        return *levels_[i];
    }
    const mem::WriteBuffer &writeBuffer(std::size_t i) const
    {
        return *wb_[i];
    }
    Tick now() const { return now_; }
    std::uint64_t instructionCount() const { return front_.instructions(); }
    Tick cpuCycleTicks() const { return cpuCycle_; }
    std::uint64_t memoryReads() const { return memReads_; }
    std::uint64_t memoryWrites() const { return memWrites_; }

    /** Distribution of L1 read-miss penalties in CPU cycles
     *  (2-cycle linear buckets, 0..80, overflow beyond). */
    const stats::Histogram &
    missPenaltyHistogram() const
    {
        return missPenaltyHist_;
    }
    /** @} */

  private:
    /**
     * Apply one CPU reference; advances now_ when timed.
     *
     * Defined inline below the class: the front's hit fast paths
     * and the hit cycles then inline straight into the replay
     * loops, so the ~90% of references that hit in L1 never leave
     * the loop body.
     */
    void handleRef(const trace::MemRef &ref, bool timed);

    /**
     * Charge @p hits L1 hits: an ifetch hit costs its CPU cycle
     * plus the I-side read extra, a load hit the D-side read extra,
     * a store hit the L1 write extra. The one hit-cost rule of the
     * raw and the log replay.
     */
    void
    chargeHits(const HitRun &hits)
    {
        const Tick issue = hits.ifetches * cpuCycle_;
        const Tick read =
            hits.ifetches * l1iReadExtra_ + hits.loads * l1dReadExtra_;
        const Tick write = hits.stores * l1dWriteExtra_;
        now_ += issue + read + write;
        baseTicks_ += issue;
        readStallCacheTicks_ += read;
        storeWriteHitTicks_ += write;
    }

    /**
     * The back end: @p ref left L1 (ReadMiss or StoreDown) with
     * @p group; send its fills, victims and forwarded store below
     * L1 and, when timed, charge an ifetch's CPU cycle and the
     * stall.
     */
    void handleMiss(const trace::MemRef &ref, const Departure &group,
                    bool timed);

    /** The replay loops every public entry point shares. */
    template <bool Timed>
    std::uint64_t replay(trace::TraceSource &source,
                         std::uint64_t max_refs);
    template <bool Timed>
    void replay(trace::RefSpan refs);

    /** Feed the solo co-simulation arrays (out of the hot path). */
    void soloReplay(const trace::MemRef &ref);

    /**
     * Read an upstream block from downstream level @p i (i ==
     * levels_.size() addresses main memory).
     * @return tick at which the block is fully delivered.
     */
    Tick downstreamRead(std::size_t i, Addr addr,
                        std::uint64_t bytes, Tick start,
                        bool count_read, bool timed);

    /**
     * Queue a write (victim write-back or forwarded store) toward
     * level @p i, applying write-around at levels that miss.
     * @return tick at which the requester may proceed.
     */
    Tick queueDownstreamWrite(std::size_t i, Addr base,
                              std::uint64_t bytes, Tick start,
                              bool timed);

    /** Fan a miss's fills and write-backs downstream. */
    Tick fillFromBelow(std::size_t i, std::span<const Addr> fills,
                       std::span<const cache::WritebackReq> writebacks,
                       std::uint64_t up_block_bytes, Tick start,
                       bool count_read, bool timed);

    /** @{ @name Per-level timing helpers */
    Tick readHitService(std::size_t i,
                        std::uint64_t up_bytes) const;
    Tick tagCheckTicks(std::size_t i) const;
    Tick writeService(std::size_t i, std::uint64_t bytes) const;
    /** @} */

    void resetAllCounts();

    /** References pulled per nextBatch() call when draining a
     *  TraceSource (an 8 KB stack buffer — big enough to amortize
     *  the virtual call, small enough to stay cache-resident). */
    static constexpr std::size_t kReplayBatch = 512;

    HierarchyParams params_;
    Tick cpuCycle_;
    /** @{ @name L1 constants, precomputed so the timing never
     *  touches CacheParams. The I-side ones describe the cache
     *  that serves ifetches: the unified L1 when !splitL1. */
    Tick l1iReadExtra_ = 0; //!< (readCycles-1) * cycle, I-side
    Tick l1dReadExtra_ = 0; //!< (readCycles-1) * cycle, D-side
    Tick l1dWriteExtra_ = 0; //!< (writeCycles-1) * cycle, D-side
    std::uint64_t l1iFillBytes_ = 0; //!< fill request, I-side
    std::uint64_t l1dFillBytes_ = 0; //!< fill request, D-side
    /** @} */
    /** Exact cpuCycle_ rounding without a divide per miss/store. */
    FixedDivisor cpuCycleDiv_;
    /** @{ @name Per-level tick constants, precomputed so the miss
     *  path never converts cycleNs (a double) at access time. */
    std::vector<Tick> levelTagCheckTicks_;
    std::vector<Tick> levelWriteTicks_; //!< writeCycles * cycle
    /** @} */

    L1Front front_;
    /** The L1 counters of a replayLog() run, which never steps
     *  front_; results() reads them in place of front_'s. */
    std::optional<L1Counts> loggedL1_;
    std::vector<std::unique_ptr<cache::Cache>> levels_;
    std::vector<std::unique_ptr<cache::Cache>> solo_;
    std::vector<mem::Bus> buses_; //!< buses_[i] feeds levels_[i];
                                  //!< back() is the backplane
    std::vector<std::unique_ptr<mem::WriteBuffer>> wb_;
    mem::MainMemory memory_;

    Tick now_ = 0;
    std::uint64_t refsRun_ = 0;

    std::vector<std::uint64_t> readReqs_;
    std::vector<std::uint64_t> readMisses_;
    std::uint64_t memReads_ = 0;
    std::uint64_t memWrites_ = 0;

    Tick l1ReadMissStallTicks_ = 0;
    std::uint64_t l1ReadMissCount_ = 0;

    /** @{ @name Cycle attribution (breakdown invariant: the five
     *  buckets sum to now_). */
    Tick baseTicks_ = 0;
    Tick storeWriteHitTicks_ = 0;
    Tick readStallCacheTicks_ = 0;
    Tick readStallMemoryTicks_ = 0;
    Tick storeStallTicks_ = 0;
    /** @} */

    stats::Group statsGroup_{"hier"};
    stats::Histogram missPenaltyHist_ = stats::Histogram::linear(
        &statsGroup_, "l1MissPenalty",
        "L1 read-miss penalty (CPU cycles)", 0.0, 2.0, 40);

    /** Boundary-traffic sink; nullptr when not recording. */
    std::vector<BoundaryOp> *boundaryRec_ = nullptr;

    /** One buffer per downstream level: the recursion at level i
     *  iterates its own buffer while deeper calls use theirs. */
    std::vector<cache::AccessOutcome> levelOutcomes_;
    /** Separate buffers for the downstream-write Allocate path so
     *  a victim allocation never clobbers a read in flight. */
    std::vector<cache::AccessOutcome> victimOutcomes_;
    cache::AccessOutcome soloOutcome_; //!< reused per solo access
};

inline void
HierarchySimulator::handleRef(const trace::MemRef &ref, bool timed)
{
    // Solo co-simulation sees the raw CPU stream.
    if (!solo_.empty())
        soloReplay(ref);

    switch (front_.step(ref)) {
      case L1Front::Step::ReadHit:
        if (timed) {
            if (ref.isInst())
                chargeHits({1, 0, 0});
            else
                chargeHits({0, 1, 0});
        }
        return;
      case L1Front::Step::StoreHit:
        if (timed)
            chargeHits({0, 0, 1});
        return;
      case L1Front::Step::ReadMiss:
      case L1Front::Step::StoreDown: {
        const cache::AccessOutcome &out = front_.outcome();
        handleMiss(ref, {out.fills, out.writebacks, out.forwardWrite},
                   timed);
        return;
      }
    }
}

/**
 * Number of leading downstream levels of @p a and @p b that evolve
 * identical functional state under the same boundary traffic
 * (timing-only fields — cycle times, bus widths, write-buffer
 * depth — are ignored).
 */
std::size_t sharedFunctionalPrefix(const HierarchyParams &a,
                                   const HierarchyParams &b);

/**
 * True when @p a and @p b have functionally equal L1s: the same
 * split and cache::functionallyEqual sides. Such L1s send the same
 * traffic below L1 for any trace, so they share warm snapshots and
 * FrontLogs.
 */
bool sameFunctionalL1(const HierarchyParams &a,
                      const HierarchyParams &b);

/**
 * True when a warm snapshot taken on a machine shaped like @p a is
 * reusable by one shaped like @p b: sameFunctionalL1() and no solo
 * co-simulation on either side. The reusable depth is
 * sharedFunctionalPrefix().
 */
bool warmCompatible(const HierarchyParams &a,
                    const HierarchyParams &b);

} // namespace hier
} // namespace mlc

#endif // MLC_HIER_HIERARCHY_HH
