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
    std::uint64_t instructions = 0;
    std::uint64_t ifetches = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t refsRun = 0;
    std::uint64_t l1ReadMissCount = 0;
    std::vector<std::uint64_t> readReqs;   //!< [0, prefixLevels)
    std::vector<std::uint64_t> readMisses; //!< [0, prefixLevels)
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
            ++ifetches_;
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
        instructions_ = ifetches_ = loads_ = stores_ = 0;
        if (l1i_)
            l1i_->resetCounts();
        l1d_->resetCounts();
    }

    /** @{ @name Reference mix since the last reset */
    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t ifetches() const { return ifetches_; }
    std::uint64_t loads() const { return loads_; }
    std::uint64_t stores() const { return stores_; }
    /** @} */

    /** @{ @name L1 read traffic, split I+D summed */
    std::uint64_t
    readRequests() const
    {
        return l1d_->counts().readAccesses() +
               (l1i_ ? l1i_->counts().readAccesses() : 0);
    }
    std::uint64_t
    readMisses() const
    {
        return l1d_->counts().readMisses() +
               (l1i_ ? l1i_->counts().readMisses() : 0);
    }
    /** @} */

  private:
    /** Checkpoints this state (WarmSnapshot) and reports per side. */
    friend class HierarchySimulator;

    std::unique_ptr<cache::Cache> l1i_; //!< null if unified
    std::unique_ptr<cache::Cache> l1d_; //!< the unified L1 if !split
    cache::AccessOutcome outcome_;
    bool fastPath_ = true;

    std::uint64_t instructions_ = 0;
    std::uint64_t ifetches_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
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
     * A reference the front reported as ReadMiss or StoreDown:
     * send @p outcome's fills, victims and forwarded store below
     * L1 and, when timed, charge the stall.
     */
    void handleMiss(const trace::MemRef &ref,
                    const cache::AccessOutcome &outcome, bool timed);

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

    /** Fan a miss outcome's fills and write-backs downstream. */
    Tick fillFromBelow(std::size_t i,
                       const cache::AccessOutcome &outcome,
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

    const L1Front::Step step = front_.step(ref);
    if (timed && ref.isInst()) {
        now_ += cpuCycle_;
        baseTicks_ += cpuCycle_;
    }
    switch (step) {
      case L1Front::Step::ReadHit:
        if (timed) {
            const Tick extra =
                ref.isInst() ? l1iReadExtra_ : l1dReadExtra_;
            now_ += extra;
            readStallCacheTicks_ += extra;
        }
        return;
      case L1Front::Step::StoreHit:
        if (timed) {
            now_ += l1dWriteExtra_;
            storeWriteHitTicks_ += l1dWriteExtra_;
        }
        return;
      case L1Front::Step::ReadMiss:
      case L1Front::Step::StoreDown:
        handleMiss(ref, front_.outcome(), timed);
        return;
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
 * True when a warm snapshot taken on a machine shaped like @p a is
 * reusable by one shaped like @p b: same L1 organization (split
 * and per-side functional parameters) and no solo co-simulation on
 * either side. The reusable depth is sharedFunctionalPrefix().
 */
bool warmCompatible(const HierarchyParams &a,
                    const HierarchyParams &b);

} // namespace hier
} // namespace mlc

#endif // MLC_HIER_HIERARCHY_HH
