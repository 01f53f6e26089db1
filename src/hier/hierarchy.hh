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

    /** @{ @name Warm-state checkpointing
     *
     * capture() copies the L1 caches, their counts and the reference
     * mix into @p snap (the arrays into @p arena); restore() copies
     * them back. restore() panics when the snapshot's split shape is
     * not this front's, and (TagArray::restoreState) when a side's
     * geometry differs. */
    void capture(SnapshotArena &arena, WarmSnapshot &snap) const;
    void restore(const SnapshotArena &arena, const WarmSnapshot &snap);
    /** @} */

  private:
    /** Reports per side. */
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
 *
 * A window log (window()) records one window of a checkpointed
 * sampled sweep instead: an L1 carrying a snapshot's warm state and
 * counters steps the window's Detail then its Measure segment. Both
 * parts are timed, so the Detail part's last hit run is closed at
 * the boundary by a record that departs nothing, and the counters
 * run on from the snapshot's: leadCounts() holds them at the
 * boundary, counts() at the end. HierarchySimulator::replayWindow()
 * replays it.
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

    /**
     * A window log: step @p front, whose L1s are @p params's and
     * hold a window's warm state (restored from a snapshot, or a
     * warmer's own), over @p detail then @p measure.
     */
    FrontLog(const HierarchyParams &params, L1Front &front,
             trace::RefSpan detail, trace::RefSpan measure);

    /** The finalized configuration whose L1s were recorded. */
    const HierarchyParams &params() const { return params_; }
    /** True for a sampled window's log (the second constructor). */
    bool window() const { return window_; }
    const std::vector<Record> &records() const { return records_; }
    /** Records [0, boundary()) precede the warm boundary; in a
     *  window log they are the Detail part. */
    std::size_t boundary() const { return boundary_; }
    /** @{ @name Where the boundary() record's fills and victims
     *  start */
    std::size_t boundaryFills() const { return boundaryFills_; }
    std::size_t boundaryWritebacks() const { return boundaryWritebacks_; }
    /** @} */
    /** Hits after the last record, all past the boundary. */
    const HitRun &tail() const { return tail_; }
    /** The front's counters after the warm boundary; a window log's
     *  at its end. */
    const L1Counts &counts() const { return counts_; }
    /** A window log's counters at the boundary. */
    const L1Counts &leadCounts() const { return leadCounts_; }
    /** @{ @name Every record's fills and victims, in record order */
    const std::vector<Addr> &fills() const { return fills_; }
    const std::vector<cache::WritebackReq> &
    writebacks() const
    {
        return writebacks_;
    }
    /** @} */

  private:
    /** Step @p front over @p refs, appending a record per departure
     *  and closing @p run, the open hit run, at @p max_run hits of
     *  one kind. The one recording loop of both constructors. */
    void record(L1Front &front, trace::RefSpan refs, HitRun &run,
                std::uint32_t max_run);
    /** Close @p run with a record that departs nothing. */
    void closeRun(HitRun &run);
    /** Mark the boundary at the records so far. */
    void markBoundary();

    HierarchyParams params_;
    bool window_ = false;
    std::vector<Record> records_;
    std::vector<Addr> fills_;
    std::vector<cache::WritebackReq> writebacks_;
    std::size_t boundary_ = 0;
    std::size_t boundaryFills_ = 0;
    std::size_t boundaryWritebacks_ = 0;
    HitRun tail_;
    L1Counts counts_;
    L1Counts leadCounts_;
};

/**
 * What the cache levels below L1 did while one machine replayed the
 * measured records of one FrontLog (those past its warm boundary):
 * for every probe of a downstream level, in the order the back end
 * makes them, whether it hit; for each read miss and each write miss
 * that allocates, its fills and dirty victims; and each level's
 * write-back count at the end.
 *
 * Those are functional decisions. They depend on the log and on the
 * levels' functional parameters, never on a cycle time, a bus width,
 * the write buffers or memory timing (sameFunctionalHierarchy). So
 * HierarchySimulator::replayLog() records a tape during one timed
 * run, and replayTimeline() prices any machine of the same
 * functional hierarchy from the (log, tape) pair: it walks the same
 * back end, takes each probe's answer from the tape, and computes
 * only the timeline. A tape holds a bit per probe and, per miss, a
 * byte plus the fills and victims; a fill is stored only when it is
 * not the demand block of the probed address. The grid suite makes
 * about 0.155 probes per measured reference at the base machine's
 * L2s.
 *
 * HierarchySimulator::replayWindow() records a window tape over a
 * window log the same way. It also keeps what the window's untimed
 * boundary replay added to each level's read requests and misses
 * and to memory's reads and writes: those are functional too, so
 * replayWindowTimeline() takes them as counter deltas and never
 * walks the boundary traffic.
 */
class LevelTape
{
    /** Records a tape and replays it; nothing else reads one. */
    friend class HierarchySimulator;

    /** A miss's counts: its fills stored in fills_ (0 when its one
     *  fill is the demand block, which the probe's address
     *  implies) and its victims in writebacks_. */
    struct Miss
    {
        std::uint32_t fills = 0;
        std::uint32_t writebacks = 0;
    };

    /** The shape byte of a miss whose counts are in wide_; any
     *  other holds the stored fills (< 15) times 16 plus the
     *  victims (< 16). */
    static constexpr std::uint8_t kWide = 0xff;

    /** The block a miss at level @p level fetches for @p addr
     *  first, as cache::Cache fills it. */
    Addr
    demandBlock(std::size_t level, Addr addr) const
    {
        const Addr bytes = params_.levels[level].fillRequestBytes();
        return addr & ~(bytes - 1);
    }

    void
    pushProbe(bool hit)
    {
        if (probes_ % 64 == 0)
            hitBits_.push_back(0);
        if (hit)
            hitBits_.back() |= std::uint64_t{1} << (probes_ % 64);
        ++probes_;
    }

    void
    pushMiss(std::size_t level, Addr addr, std::span<const Addr> fills,
             std::span<const cache::WritebackReq> writebacks)
    {
        const bool implied =
            fills.size() == 1 && fills[0] == demandBlock(level, addr);
        const Miss miss{
            implied ? 0u : static_cast<std::uint32_t>(fills.size()),
            static_cast<std::uint32_t>(writebacks.size())};
        if (miss.fills < 15 && miss.writebacks < 16) {
            shapes_.push_back(static_cast<std::uint8_t>(
                miss.fills * 16 + miss.writebacks));
        } else {
            shapes_.push_back(kWide);
            wide_.push_back(miss);
        }
        if (!implied)
            fills_.insert(fills_.end(), fills.begin(), fills.end());
        writebacks_.insert(writebacks_.end(), writebacks.begin(),
                           writebacks.end());
    }

    HierarchyParams params_; //!< the machine it was recorded on
    /** The log it was recorded over: compared, never dereferenced. */
    const FrontLog *log_ = nullptr;
    std::uint64_t probes_ = 0;
    std::vector<std::uint64_t> hitBits_; //!< bit k: probe k hit
    std::vector<std::uint8_t> shapes_;   //!< one per miss
    std::vector<Miss> wide_;
    std::vector<Addr> fills_;
    std::vector<cache::WritebackReq> writebacks_;
    std::vector<std::uint64_t> levelWritebacks_; //!< at the end
    /** @{ @name A window tape's boundary replay: its additions to
     *  each level's read requests and misses, and to memory's reads
     *  and writes */
    std::vector<std::uint64_t> boundaryReadReqs_;
    std::vector<std::uint64_t> boundaryReadMisses_;
    std::uint64_t boundaryMemReads_ = 0;
    std::uint64_t boundaryMemWrites_ = 0;
    /** @} */
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
     * Call it on a fresh simulator, in place of those two. With
     * @p record, the timed part also records what the levels below
     * L1 did into it (replacing its contents), for replayTimeline().
     * Panics when the log's L1 is not functionally this machine's,
     * and when a solo co-simulation is active (solo arrays replay
     * the raw CPU stream, which a log does not keep).
     */
    void replayLog(const FrontLog &log, LevelTape *record = nullptr);

    /**
     * Replay @p log's measured records with every downstream probe
     * answered by @p tape, recorded by replayLog() over the same log
     * on a machine of this functional hierarchy: only the timeline
     * runs (hit runs, write buffers, buses, memory, cycle rounding).
     * Results equal replayLog(log) on this machine. Call it on a
     * fresh simulator; it builds no cache. Panics when the tape was
     * recorded over another log or on another functional hierarchy,
     * and when a solo co-simulation is active.
     */
    void replayTimeline(const FrontLog &log, const LevelTape &tape);

    /**
     * @{ @name Checkpointed sampled windows
     *
     * runFunctionalLogged() is a sweep warmer's runFunctional() over
     * a window's Detail and Measure segments that also returns their
     * window log: the log an L1 restored from a snapshot captured
     * just before would record.
     *
     * replayWindow() prices one window on a branch machine whose L1
     * is @p log's and whose levels [0, snap.prefixLevels) are the
     * warmer's. It replays @p ops (what crossed the warmer's memory
     * boundary during the Warm segment) untimed into the levels
     * below that prefix, restores the prefix levels and the untimed
     * counters from @p snap, then replays the window log timed, with
     * no reset. Window after window, results equal a straight-line
     * runFunctional(Warm) + run(Detail) + run(Measure). It returns
     * now() at the log's boundary, where the Measure part starts;
     * instructionCount() there is log.leadCounts().instructions.
     * With @p record it also records a window tape into it.
     *
     * replayWindowTimeline() prices the same window on a machine of
     * the same functional hierarchy from that tape: the boundary
     * replay's counter deltas, the snapshot's counters, and the
     * timeline over the log. It builds no cache.
     *
     * Both panic when the log is not a window log or was recorded on
     * another L1, when a solo co-simulation is active, and when the
     * snapshot's shape does not match this machine (different
     * splitL1, a prefix deeper than this hierarchy, or a prefix
     * level's geometry via TagArray::restoreState); the timeline
     * also when the tape was recorded over another log or on another
     * functional hierarchy.
     */
    FrontLog runFunctionalLogged(trace::RefSpan detail,
                                 trace::RefSpan measure);
    Tick replayWindow(const std::vector<BoundaryOp> &ops,
                      const SnapshotArena &arena, const WarmSnapshot &snap,
                      const FrontLog &log, LevelTape *record = nullptr);
    Tick replayWindowTimeline(const WarmSnapshot &snap,
                              const FrontLog &log, const LevelTape &tape);
    /** @} */

    /** Disable/re-enable the L1 front's hit fast paths; results
     *  do not depend on it (L1Front::setFastPath). */
    void setReadHitFastPath(bool enabled);

    /** Measurements over everything run() has simulated. */
    SimResults results() const;

    /**
     * Copy the functional state above a sweep's boundary — L1s,
     * levels [0, prefix_levels), untimed-path counters — into the
     * arena. Panics when a solo co-simulation is active (solo arrays
     * see the raw CPU stream and cannot be reconstructed from
     * boundary traffic) and before any replay over raw references
     * has built the L1s. L1Front::restore() and replayWindow()
     * restore it.
     */
    void captureWarmState(SnapshotArena &arena, WarmSnapshot &snap,
                          std::size_t prefix_levels) const;

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

    /** @{ @name Component access (tests, stats reporting) */
    const HierarchyParams &params() const { return params_; }
    std::size_t levelCount() const { return depth_; }
    /** Downstream cache @p i; panics before a replay has built it
     *  (replayTimeline() never does). */
    const cache::Cache &level(std::size_t i) const;
    const mem::WriteBuffer &writeBuffer(std::size_t i) const
    {
        return *wb_[i];
    }
    Tick now() const { return now_; }
    std::uint64_t
    instructionCount() const
    {
        return loggedL1_ ? loggedL1_->instructions
               : front_  ? front_->instructions()
                         : 0;
    }
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
    /** @{ @name Where the back end's probes get their answers: the
     *  live caches, the live caches while a LevelTape records them,
     *  or a recorded tape. Each answers read(i, addr),
     *  absorbWrite(i, base) and allocate(i, base) in the order the
     *  recursion below probes level i. */
    class LiveLevels;
    class RecordingLevels;
    class TapeLevels;
    /** @} */

    /**
     * Apply one CPU reference; advances now_ when timed.
     *
     * Defined inline above the replay loops in hierarchy.cc: the
     * front's hit fast paths and the hit cycles then inline straight
     * into them, so the ~90% of references that hit in L1 never
     * leave the loop body.
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
    template <typename Levels>
    void handleMiss(Levels &levels, const trace::MemRef &ref,
                    const Departure &group, bool timed);

    /** The replay loops every raw entry point shares. */
    template <bool Timed>
    std::uint64_t replay(trace::TraceSource &source,
                         std::uint64_t max_refs);
    template <bool Timed>
    void replay(trace::RefSpan refs);

    /** Send records [@p begin, @p end) of @p log below L1, their
     *  hit runs charged first when @p timed; @p fill and @p victim
     *  index record @p begin's first fill and victim. */
    template <typename Levels>
    void departRecords(Levels &levels, const FrontLog &log,
                       std::size_t begin, std::size_t end,
                       std::size_t fill, std::size_t victim, bool timed);

    /** @p log's records past the boundary and its tail, timed, and
     *  the log's L1 counters in place of front_'s. */
    template <typename Levels>
    void replayPastBoundary(Levels &levels, const FrontLog &log);

    /** The timed part of a log replay: reset, then
     *  replayPastBoundary(). */
    template <typename Levels>
    void replayMeasured(Levels &levels, const FrontLog &log);

    /** A window log's timed replay, with no reset: the Detail
     *  records, then the Measure records and the tail. Returns now()
     *  at the boundary. */
    template <typename Levels>
    Tick replayWindowLog(Levels &levels, const FrontLog &log);

    /** Panics unless @p log can drive this machine's back end. */
    void checkLog(const FrontLog &log, const char *caller) const;
    /** Panics unless @p tape was recorded over @p log on a machine
     *  of this functional hierarchy. */
    void checkTape(const FrontLog &log, const LevelTape &tape,
                   const char *caller) const;
    /** checkLog() for a window log, plus the snapshot shape checks. */
    void checkWindow(const FrontLog &log, const WarmSnapshot &snap,
                     const char *caller) const;
    /** Set the untimed-path counters a snapshot carries. */
    void restoreCounters(const WarmSnapshot &snap);

    /** Feed the solo co-simulation arrays (out of the hot path). */
    void soloReplay(const trace::MemRef &ref);

    /**
     * Build, on first use, the caches a call reads: the downstream
     * levels (and solo arrays) for any replay that probes them, and
     * the L1 front too when @p front. A FrontLog replay steps no
     * L1 and a tape replay probes no cache, so neither allocates
     * what it never reads.
     */
    void buildCaches(bool front);

    /**
     * Read an upstream block from downstream level @p i (i ==
     * levelCount() addresses main memory).
     * @return tick at which the block is fully delivered.
     */
    template <typename Levels>
    Tick downstreamRead(Levels &levels, std::size_t i, Addr addr,
                        std::uint64_t bytes, Tick start,
                        bool count_read, bool timed);

    /**
     * Queue a write (victim write-back or forwarded store) toward
     * level @p i, applying write-around at levels that miss.
     * @return tick at which the requester may proceed.
     */
    template <typename Levels>
    Tick queueDownstreamWrite(Levels &levels, std::size_t i, Addr base,
                              std::uint64_t bytes, Tick start,
                              bool timed);

    /** Fan a miss's fills and write-backs downstream. */
    template <typename Levels>
    Tick fillFromBelow(Levels &levels, std::size_t i,
                       std::span<const Addr> fills,
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

    std::size_t depth_ = 0; //!< downstream levels; level depth_ is memory
    /** @{ @name Built by buildCaches() on first use */
    std::optional<L1Front> front_;
    std::vector<std::unique_ptr<cache::Cache>> levels_;
    std::vector<std::unique_ptr<cache::Cache>> solo_;
    /** @} */
    /** The L1 counters of a log replay, which never steps front_;
     *  results() and instructionCount() read them in place of
     *  front_'s. */
    std::optional<L1Counts> loggedL1_;
    /** Per-level write-back counts of a replayTimeline() or
     *  replayWindowTimeline() run, which probes no level; results()
     *  reads them in place of levels_'s. */
    std::optional<std::vector<std::uint64_t>> tapedWritebacks_;
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
 * True when @p a and @p b have the same functional hierarchy:
 * sameFunctionalL1(), the same depth, and every downstream level
 * cache::functionallyEqual. Cycle times, bus widths, write-buffer
 * depth and memory timing are ignored. Such machines make the same
 * decisions below L1 for any FrontLog, so they share LevelTapes.
 */
bool sameFunctionalHierarchy(const HierarchyParams &a,
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
