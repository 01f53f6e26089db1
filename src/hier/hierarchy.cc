#include "hier/hierarchy.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace mlc {
namespace hier {

HierarchySimulator::HierarchySimulator(HierarchyParams params)
    : params_(params.finalized()),
      cpuCycle_(nsToTicks(params_.cpuCycleNs)),
      depth_(params_.levels.size()), memory_(params_.memory)
{
    // Bus i feeds levels_[i] and cycles at that level's rate; the
    // backplane cycles at the rate of the deepest cache (or the CPU
    // when there are no downstream caches).
    for (std::size_t i = 0; i < params_.levels.size(); ++i) {
        buses_.emplace_back(params_.busWidthWords[i],
                            nsToTicks(params_.levels[i].cycleNs));
    }
    const Tick backplane_cycle =
        params_.backplaneCycleNs > 0.0
            ? nsToTicks(params_.backplaneCycleNs)
            : (params_.levels.empty()
                   ? cpuCycle_
                   : nsToTicks(params_.levels.back().cycleNs));
    buses_.emplace_back(params_.busWidthWords.back(),
                        backplane_cycle);

    for (std::size_t i = 0; i <= params_.levels.size(); ++i)
        wb_.push_back(std::make_unique<mem::WriteBuffer>(
            params_.writeBufferDepth));

    readReqs_.assign(depth_, 0);
    readMisses_.assign(depth_, 0);
    levelOutcomes_.resize(depth_);
    victimOutcomes_.resize(depth_);

    cpuCycleDiv_ = FixedDivisor(cpuCycle_);
    const cache::CacheParams &iside =
        params_.splitL1 ? params_.l1i : params_.l1d;
    l1iReadExtra_ =
        (iside.readCycles - 1) * nsToTicks(iside.cycleNs);
    l1iFillBytes_ = iside.fillRequestBytes();
    const Tick l1d_cycle = nsToTicks(params_.l1d.cycleNs);
    l1dReadExtra_ = (params_.l1d.readCycles - 1) * l1d_cycle;
    l1dWriteExtra_ = (params_.l1d.writeCycles - 1) * l1d_cycle;
    l1dFillBytes_ = params_.l1d.fillRequestBytes();
    for (std::size_t i = 0; i < params_.levels.size(); ++i) {
        const Tick cycle = nsToTicks(params_.levels[i].cycleNs);
        levelTagCheckTicks_.push_back(
            params_.levels[i].readCycles * cycle);
        levelWriteTicks_.push_back(
            params_.levels[i].writeCycles * cycle);
    }
}

void
HierarchySimulator::buildCaches(bool front)
{
    if (levels_.empty()) {
        for (std::size_t i = 0; i < depth_; ++i) {
            levels_.push_back(std::make_unique<cache::Cache>(
                params_.levels[i], levelSeed(i)));
            if (params_.measureSolo)
                solo_.push_back(std::make_unique<cache::Cache>(
                    params_.levels[i], soloSeed(i)));
        }
    }
    if (front && !front_)
        front_.emplace(params_);
}

void
HierarchySimulator::setReadHitFastPath(bool enabled)
{
    buildCaches(true);
    front_->setFastPath(enabled);
}

const cache::Cache &
HierarchySimulator::level(std::size_t i) const
{
    if (i >= levels_.size())
        mlc_panic("level ", i, " of a simulator with ", levels_.size(),
                  " built caches");
    return *levels_[i];
}

/** The live caches answer the probes. One outcome buffer per level:
 *  the recursion at level i iterates its own while deeper levels
 *  fill theirs. */
class HierarchySimulator::LiveLevels
{
  public:
    explicit LiveLevels(HierarchySimulator &sim) : sim_(sim) {}

    const cache::AccessOutcome &
    read(std::size_t i, Addr addr)
    {
        cache::AccessOutcome &outcome = sim_.levelOutcomes_[i];
        sim_.levels_[i]->access(trace::makeLoad(addr), outcome);
        return outcome;
    }

    bool
    absorbWrite(std::size_t i, Addr base)
    {
        return sim_.levels_[i]->absorbWrite(base);
    }

    const cache::AccessOutcome &
    allocate(std::size_t i, Addr base)
    {
        cache::AccessOutcome &outcome = sim_.victimOutcomes_[i];
        sim_.levels_[i]->absorbWriteAllocate(base, outcome);
        return outcome;
    }

  private:
    HierarchySimulator &sim_;
};

/** The live caches answer the probes, and each answer goes on a
 *  tape too. */
class HierarchySimulator::RecordingLevels
{
  public:
    RecordingLevels(HierarchySimulator &sim, LevelTape &tape)
        : live_(sim), tape_(tape)
    {
    }

    const cache::AccessOutcome &
    read(std::size_t i, Addr addr)
    {
        const cache::AccessOutcome &outcome = live_.read(i, addr);
        tape_.pushProbe(outcome.hit);
        if (!outcome.hit)
            tape_.pushMiss(i, addr, outcome.fills, outcome.writebacks);
        return outcome;
    }

    bool
    absorbWrite(std::size_t i, Addr base)
    {
        const bool hit = live_.absorbWrite(i, base);
        tape_.pushProbe(hit);
        return hit;
    }

    const cache::AccessOutcome &
    allocate(std::size_t i, Addr base)
    {
        const cache::AccessOutcome &outcome = live_.allocate(i, base);
        tape_.pushMiss(i, base, outcome.fills, outcome.writebacks);
        return outcome;
    }

  private:
    LiveLevels live_;
    LevelTape &tape_;
};

/** A recorded tape answers the probes, in the order they were
 *  recorded; no cache is read. */
class HierarchySimulator::TapeLevels
{
  public:
    /** One probe's answer, viewing the tape's arrays. */
    struct Outcome
    {
        bool hit = false;
        std::span<const Addr> fills;
        std::span<const cache::WritebackReq> writebacks;
    };

    explicit TapeLevels(const LevelTape &tape)
        : tape_(tape), readDemand_(tape.params_.levels.size()),
          allocDemand_(tape.params_.levels.size())
    {
    }

    Outcome
    read(std::size_t i, Addr addr)
    {
        if (nextHit())
            return {true, {}, {}};
        return nextMiss(i, addr, readDemand_[i]);
    }

    bool absorbWrite(std::size_t, Addr) { return nextHit(); }

    Outcome
    allocate(std::size_t i, Addr base)
    {
        return nextMiss(i, base, allocDemand_[i]);
    }

    /** Every recorded probe and miss has been replayed. */
    bool
    atEnd() const
    {
        return probe_ == tape_.probes_ && miss_ == tape_.shapes_.size();
    }

  private:
    bool
    nextHit()
    {
        if (probe_ == tape_.probes_)
            mlc_panic("replayTimeline: the tape ran out of probes");
        const bool hit =
            ((tape_.hitBits_[probe_ / 64] >> (probe_ % 64)) & 1) != 0;
        ++probe_;
        return hit;
    }

    /** The next miss, at level @p i for @p addr; an implied demand
     *  fill goes in @p demand, which a read and an allocation at one
     *  level keep apart, as the live caches' outcome buffers do. */
    Outcome
    nextMiss(std::size_t i, Addr addr, Addr &demand)
    {
        if (miss_ == tape_.shapes_.size())
            mlc_panic("replayTimeline: the tape ran out of misses");
        const std::uint8_t shape = tape_.shapes_[miss_++];
        const LevelTape::Miss miss =
            shape == LevelTape::kWide
                ? tape_.wide_[wide_++]
                : LevelTape::Miss{shape / 16u, shape % 16u};
        Outcome outcome;
        if (miss.fills == 0) {
            demand = tape_.demandBlock(i, addr);
            outcome.fills = {&demand, 1};
        } else {
            outcome.fills = {tape_.fills_.data() + fill_, miss.fills};
            fill_ += miss.fills;
        }
        outcome.writebacks = {tape_.writebacks_.data() + victim_,
                              miss.writebacks};
        victim_ += miss.writebacks;
        return outcome;
    }

    const LevelTape &tape_;
    std::vector<Addr> readDemand_;  //!< per level
    std::vector<Addr> allocDemand_; //!< per level
    std::uint64_t probe_ = 0;
    std::size_t miss_ = 0;
    std::size_t wide_ = 0;
    std::size_t fill_ = 0;
    std::size_t victim_ = 0;
};

Tick
HierarchySimulator::tagCheckTicks(std::size_t i) const
{
    return levelTagCheckTicks_[i];
}

Tick
HierarchySimulator::readHitService(std::size_t i,
                                   std::uint64_t up_bytes) const
{
    // The first bus beat overlaps the array read; wider upstream
    // blocks add beats at the bus rate.
    const std::uint64_t beats = buses_[i].beatsFor(up_bytes);
    return tagCheckTicks(i) +
           (beats - 1) * buses_[i].cycleTime();
}

Tick
HierarchySimulator::writeService(std::size_t i,
                                 std::uint64_t bytes) const
{
    const std::uint64_t beats = buses_[i].beatsFor(bytes);
    return levelWriteTicks_[i] +
           (beats - 1) * buses_[i].cycleTime();
}

template <typename Levels>
Tick
HierarchySimulator::downstreamRead(Levels &levels, std::size_t i,
                                   Addr addr, std::uint64_t bytes,
                                   Tick start, bool count_read,
                                   bool timed)
{
    if (i == depth_) {
        if (boundaryRec_)
            boundaryRec_->push_back(
                {addr, static_cast<std::uint32_t>(bytes),
                 BoundaryOp::Kind::Read, count_read});
        ++memReads_;
        if (!timed)
            return start;
        const Tick service =
            memory_.readService(buses_.back(), bytes);
        const mem::WriteBuffer::Op op{
            service, memory_.occupancyFor(service)};
        return wb_[i]->read(start, addr, bytes, op).done;
    }

    if (count_read)
        ++readReqs_[i];
    const auto &outcome = levels.read(i, addr);

    if (outcome.hit) {
        if (!timed)
            return start;
        const Tick service = readHitService(i, bytes);
        const mem::WriteBuffer::Op op{service, service};
        return wb_[i]->read(start, addr, bytes, op).done;
    }

    if (count_read)
        ++readMisses_[i];

    Tick miss_known = start;
    if (timed) {
        const Tick tag = tagCheckTicks(i);
        const mem::WriteBuffer::Op op{tag, tag};
        miss_known = wb_[i]->read(start, addr, bytes, op).done;
    }
    return fillFromBelow(levels, i + 1, outcome.fills,
                         outcome.writebacks,
                         params_.levels[i].fillRequestBytes(), miss_known,
                         count_read, timed);
}

template <typename Levels>
Tick
HierarchySimulator::fillFromBelow(
    Levels &levels, std::size_t i, std::span<const Addr> fills,
    std::span<const cache::WritebackReq> writebacks,
    std::uint64_t up_block_bytes, Tick start, bool count_read,
    bool timed)
{
    // The demand block gates the requester; further fills of the
    // fetch group (and prefetches) proceed afterwards without
    // stalling it, but they do occupy the downstream timelines.
    Tick demand_ready = start;
    bool first = true;
    for (Addr fill : fills) {
        const Tick r = downstreamRead(levels, i, fill, up_block_bytes,
                                      first ? start : demand_ready,
                                      count_read && first, timed);
        if (first) {
            demand_ready = r;
            first = false;
        }
    }

    Tick ready = demand_ready;
    for (const cache::WritebackReq &victim : writebacks) {
        const Tick proceed = queueDownstreamWrite(
            levels, i, victim.base, victim.bytes, demand_ready, timed);
        ready = std::max(ready, proceed);
    }
    return ready;
}

template <typename Levels>
Tick
HierarchySimulator::queueDownstreamWrite(Levels &levels, std::size_t i,
                                         Addr base, std::uint64_t bytes,
                                         Tick start, bool timed)
{
    if (i == depth_) {
        if (boundaryRec_)
            boundaryRec_->push_back(
                {base, static_cast<std::uint32_t>(bytes),
                 BoundaryOp::Kind::Write, false});
        ++memWrites_;
        if (!timed)
            return start;
        const Tick service =
            memory_.writeService(buses_.back(), bytes);
        const mem::WriteBuffer::Op op{
            service, memory_.occupancyFor(service)};
        return wb_[i]->queueWrite(start, base, bytes, op);
    }

    const cache::CacheParams &level = params_.levels[i];
    const bool hit = levels.absorbWrite(i, base);
    if (!hit) {
        if (level.downstreamWriteMiss ==
            cache::DownstreamWriteMissPolicy::Around) {
            return queueDownstreamWrite(levels, i + 1, base, bytes,
                                        start, timed);
        }
        // Allocate: fetch the enclosing block from below, install
        // it dirty, then complete the write locally. The fetch is
        // demand traffic on the lower timeline but does not stall
        // the original requester beyond the local queueing.
        const auto &outcome = levels.allocate(i, base);
        Tick fetched = start;
        for (Addr fill : outcome.fills)
            fetched = downstreamRead(
                levels, i + 1, fill, level.fillRequestBytes(), start,
                false, timed);
        Tick proceed = fetched;
        if (timed) {
            const Tick service = writeService(i, bytes);
            const mem::WriteBuffer::Op op{service, service};
            proceed = wb_[i]->queueWrite(fetched, base, bytes, op);
        }
        for (const cache::WritebackReq &victim :
             outcome.writebacks)
            proceed = std::max(proceed,
                               queueDownstreamWrite(
                                   levels, i + 1, victim.base,
                                   victim.bytes, fetched, timed));
        return timed ? proceed : start;
    }

    Tick proceed = start;
    if (timed) {
        const Tick service = writeService(i, bytes);
        const mem::WriteBuffer::Op op{service, service};
        proceed = wb_[i]->queueWrite(start, base, bytes, op);
    }
    if (level.writePolicy == cache::WritePolicy::WriteThrough) {
        proceed = std::max(proceed,
                           queueDownstreamWrite(levels, i + 1, base,
                                                bytes, start, timed));
    }
    return proceed;
}

void
HierarchySimulator::soloReplay(const trace::MemRef &ref)
{
    for (auto &solo : solo_)
        solo->access(ref, soloOutcome_);
}

template <typename Levels>
void
HierarchySimulator::handleMiss(Levels &levels, const trace::MemRef &ref,
                               const Departure &group, bool timed)
{
    // Every ifetch costs its CPU cycle, hit or miss.
    if (timed && ref.isInst()) {
        now_ += cpuCycle_;
        baseTicks_ += cpuCycle_;
    }
    if (ref.isRead()) {
        ++l1ReadMissCount_;
        const Tick miss_start = now_;
        const std::uint64_t mem_reads_before = memReads_;
        const Tick ready = fillFromBelow(
            levels, 0, group.fills, group.writebacks,
            ref.isInst() ? l1iFillBytes_ : l1dFillBytes_, now_, true,
            timed);
        if (timed) {
            l1ReadMissStallTicks_ += ready - miss_start;
            missPenaltyHist_.sample(
                static_cast<double>(ready - miss_start) /
                static_cast<double>(cpuCycle_));
            const Tick before = now_;
            now_ = cpuCycleDiv_.roundUp(ready);
            // Attribute the whole stall (including rounding) to
            // memory if the demand path reached main memory.
            if (memReads_ > mem_reads_before)
                readStallMemoryTicks_ += now_ - before;
            else
                readStallCacheTicks_ += now_ - before;
        }
        return;
    }

    // A store leaving L1: fills and victims, then a forwarded store.
    Tick ready = now_;
    if (!group.fills.empty() || !group.writebacks.empty())
        ready = fillFromBelow(levels, 0, group.fills, group.writebacks,
                              l1dFillBytes_, now_, false, timed);
    if (group.forwardWrite) {
        const Addr word_base = ref.addr & ~Addr{3};
        const Tick proceed = queueDownstreamWrite(
            levels, 0, word_base, ref.size, ready, timed);
        ready = std::max(ready, proceed);
    }
    if (timed) {
        const Tick before = now_;
        now_ = cpuCycleDiv_.roundUp(ready) + l1dWriteExtra_;
        storeStallTicks_ += now_ - before - l1dWriteExtra_;
        storeWriteHitTicks_ += l1dWriteExtra_;
    }
}

inline void
HierarchySimulator::handleRef(const trace::MemRef &ref, bool timed)
{
    // Solo co-simulation sees the raw CPU stream.
    if (!solo_.empty())
        soloReplay(ref);

    switch (front_->step(ref)) {
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
        const cache::AccessOutcome &out = front_->outcome();
        LiveLevels live(*this);
        handleMiss(live, ref, {out.fills, out.writebacks, out.forwardWrite},
                   timed);
        return;
      }
    }
}

template <typename Levels>
void
HierarchySimulator::departRecords(Levels &levels, const FrontLog &log,
                                  std::size_t begin, std::size_t end,
                                  std::size_t fill, std::size_t victim,
                                  bool timed)
{
    const std::span<const Addr> fills = log.fills();
    const std::span<const cache::WritebackReq> victims =
        log.writebacks();
    const std::vector<FrontLog::Record> &records = log.records();
    for (std::size_t i = begin; i < end; ++i) {
        const FrontLog::Record &rec = records[i];
        if (timed)
            chargeHits(rec.hits);
        if (!rec.departs)
            continue;
        handleMiss(levels, {rec.addr, rec.type, rec.size, 0},
                   {fills.subspan(fill, rec.fills),
                    victims.subspan(victim, rec.writebacks),
                    rec.forwardWrite},
                   timed);
        fill += rec.fills;
        victim += rec.writebacks;
    }
}

template <typename Levels>
void
HierarchySimulator::replayPastBoundary(Levels &levels, const FrontLog &log)
{
    departRecords(levels, log, log.boundary(), log.records().size(),
                  log.boundaryFills(), log.boundaryWritebacks(), true);
    chargeHits(log.tail());

    const L1Counts &c = log.counts();
    refsRun_ = c.instructions + c.loads + c.stores;
    loggedL1_ = c;
}

template <typename Levels>
void
HierarchySimulator::replayMeasured(Levels &levels, const FrontLog &log)
{
    resetAllCounts();
    replayPastBoundary(levels, log);
}

void
HierarchySimulator::checkLog(const FrontLog &log, const char *caller) const
{
    if (params_.measureSolo)
        mlc_panic(caller, " with solo co-simulation active: solo "
                  "arrays replay the raw CPU stream, which a "
                  "FrontLog does not keep");
    if (!sameFunctionalL1(log.params(), params_))
        mlc_panic(caller, ": the log was recorded on another L1");
}

void
HierarchySimulator::replayLog(const FrontLog &log, LevelTape *record)
{
    checkLog(log, "replayLog");
    buildCaches(false);
    LiveLevels live(*this);
    departRecords(live, log, 0, log.boundary(), 0, 0, false);
    if (!record) {
        replayMeasured(live, log);
        return;
    }
    *record = LevelTape();
    record->params_ = params_;
    record->log_ = &log;
    RecordingLevels recording(*this, *record);
    replayMeasured(recording, log);
    for (const auto &level : levels_)
        record->levelWritebacks_.push_back(level->counts().writebacks);
}

void
HierarchySimulator::checkTape(const FrontLog &log, const LevelTape &tape,
                              const char *caller) const
{
    if (tape.log_ != &log)
        mlc_panic(caller, ": the tape was recorded over another "
                  "FrontLog");
    if (!sameFunctionalHierarchy(tape.params_, params_))
        mlc_panic(caller, ": the tape was recorded on another "
                  "hierarchy");
}

void
HierarchySimulator::replayTimeline(const FrontLog &log,
                                   const LevelTape &tape)
{
    checkLog(log, "replayTimeline");
    checkTape(log, tape, "replayTimeline");
    TapeLevels taped(tape);
    replayMeasured(taped, log);
    if (!taped.atEnd())
        mlc_panic("replayTimeline: the log left part of the tape "
                  "unread");
    tapedWritebacks_ = tape.levelWritebacks_;
}

template <typename Levels>
Tick
HierarchySimulator::replayWindowLog(Levels &levels, const FrontLog &log)
{
    departRecords(levels, log, 0, log.boundary(), 0, 0, true);
    const Tick split = now_;
    replayPastBoundary(levels, log);
    return split;
}

void
HierarchySimulator::checkWindow(const FrontLog &log,
                                const WarmSnapshot &snap,
                                const char *caller) const
{
    checkLog(log, caller);
    if (!log.window())
        mlc_panic(caller, ": not a window log");
    if (snap.splitL1 != params_.splitL1)
        mlc_panic(caller, ": split-L1 mismatch: snapshot ",
                  snap.splitL1 ? "split" : "unified", ", simulator ",
                  params_.splitL1 ? "split" : "unified");
    if (snap.prefixLevels > depth_)
        mlc_panic(caller, ": snapshot prefix depth ", snap.prefixLevels,
                  " exceeds hierarchy depth ", depth_);
}

void
HierarchySimulator::restoreCounters(const WarmSnapshot &snap)
{
    l1ReadMissCount_ = snap.l1ReadMissCount;
    for (std::size_t i = 0; i < snap.prefixLevels; ++i) {
        readReqs_[i] = snap.readReqs[i];
        readMisses_[i] = snap.readMisses[i];
    }
}

FrontLog
HierarchySimulator::runFunctionalLogged(trace::RefSpan detail,
                                        trace::RefSpan measure)
{
    buildCaches(true);
    FrontLog log(params_, *front_, detail, measure);
    checkLog(log, "runFunctionalLogged");
    LiveLevels live(*this);
    departRecords(live, log, 0, log.records().size(), 0, 0, false);
    refsRun_ += detail.size + measure.size;
    return log;
}

Tick
HierarchySimulator::replayWindow(const std::vector<BoundaryOp> &ops,
                                 const SnapshotArena &arena,
                                 const WarmSnapshot &snap,
                                 const FrontLog &log, LevelTape *record)
{
    checkWindow(log, snap, "replayWindow");
    buildCaches(false);
    LiveLevels live(*this);

    // The Warm segment's traffic below the shared prefix, untimed.
    std::vector<std::uint64_t> reqs, misses;
    if (record) {
        reqs = readReqs_;
        misses = readMisses_;
    }
    const std::uint64_t mem_reads = memReads_;
    const std::uint64_t mem_writes = memWrites_;
    for (const BoundaryOp &op : ops) {
        if (op.kind == BoundaryOp::Kind::Read)
            downstreamRead(live, snap.prefixLevels, op.addr, op.bytes, 0,
                           op.countRead, false);
        else
            queueDownstreamWrite(live, snap.prefixLevels, op.addr,
                                 op.bytes, 0, false);
    }

    // The prefix's warm state and counters.
    for (std::size_t i = 0; i < snap.prefixLevels; ++i)
        levels_[i]->restoreState(arena, snap.levels[i]);
    restoreCounters(snap);

    if (!record)
        return replayWindowLog(live, log);
    *record = LevelTape();
    record->params_ = params_;
    record->log_ = &log;
    for (std::size_t i = 0; i < depth_; ++i) {
        record->boundaryReadReqs_.push_back(
            i < snap.prefixLevels ? 0 : readReqs_[i] - reqs[i]);
        record->boundaryReadMisses_.push_back(
            i < snap.prefixLevels ? 0 : readMisses_[i] - misses[i]);
    }
    record->boundaryMemReads_ = memReads_ - mem_reads;
    record->boundaryMemWrites_ = memWrites_ - mem_writes;
    RecordingLevels recording(*this, *record);
    const Tick split = replayWindowLog(recording, log);
    for (const auto &level : levels_)
        record->levelWritebacks_.push_back(level->counts().writebacks);
    return split;
}

Tick
HierarchySimulator::replayWindowTimeline(const WarmSnapshot &snap,
                                         const FrontLog &log,
                                         const LevelTape &tape)
{
    checkWindow(log, snap, "replayWindowTimeline");
    checkTape(log, tape, "replayWindowTimeline");
    for (std::size_t i = 0; i < depth_; ++i) {
        readReqs_[i] += tape.boundaryReadReqs_[i];
        readMisses_[i] += tape.boundaryReadMisses_[i];
    }
    memReads_ += tape.boundaryMemReads_;
    memWrites_ += tape.boundaryMemWrites_;
    restoreCounters(snap);

    TapeLevels taped(tape);
    const Tick split = replayWindowLog(taped, log);
    if (!taped.atEnd())
        mlc_panic("replayWindowTimeline: the log left part of the tape "
                  "unread");
    tapedWritebacks_ = tape.levelWritebacks_;
    return split;
}

void
FrontLog::closeRun(HitRun &run)
{
    Record closed;
    closed.hits = run;
    closed.departs = false;
    records_.push_back(closed);
    run = {};
}

void
FrontLog::markBoundary()
{
    boundary_ = records_.size();
    boundaryFills_ = fills_.size();
    boundaryWritebacks_ = writebacks_.size();
}

void
FrontLog::record(L1Front &front, trace::RefSpan refs, HitRun &run,
                 std::uint32_t max_run)
{
    const auto hit = [&](std::uint32_t &count) {
        if (++count == max_run)
            closeRun(run);
    };
    for (const trace::MemRef &ref : refs) {
        switch (front.step(ref)) {
          case L1Front::Step::ReadHit:
            hit(ref.isInst() ? run.ifetches : run.loads);
            break;
          case L1Front::Step::StoreHit:
            hit(run.stores);
            break;
          case L1Front::Step::ReadMiss:
          case L1Front::Step::StoreDown: {
            const cache::AccessOutcome &out = front.outcome();
            records_.push_back(
                {ref.addr, run,
                 static_cast<std::uint32_t>(out.fills.size()),
                 static_cast<std::uint32_t>(out.writebacks.size()),
                 ref.type, ref.size, out.forwardWrite});
            fills_.insert(fills_.end(), out.fills.begin(),
                          out.fills.end());
            writebacks_.insert(writebacks_.end(),
                               out.writebacks.begin(),
                               out.writebacks.end());
            run = {};
            break;
          }
        }
    }
}

FrontLog::FrontLog(const HierarchyParams &params, trace::RefSpan refs,
                   std::uint64_t warmup_refs, std::uint32_t max_run)
    : params_(params.finalized())
{
    L1Front front(params_);
    HitRun run;
    record(front, refs.first(warmup_refs), run, max_run);
    markBoundary();
    front.resetCounts();
    run = {};
    record(front, refs.dropFirst(warmup_refs), run, max_run);
    tail_ = run;
    counts_ = front.counts();
}

FrontLog::FrontLog(const HierarchyParams &params, L1Front &front,
                   trace::RefSpan detail, trace::RefSpan measure)
    : params_(params.finalized()), window_(true)
{
    HitRun run;
    record(front, detail, run, kMaxRun);
    // Detail hits are timed: charge them before the boundary.
    if (run.ifetches || run.loads || run.stores)
        closeRun(run);
    markBoundary();
    leadCounts_ = front.counts();
    record(front, measure, run, kMaxRun);
    tail_ = run;
    counts_ = front.counts();
}

template <bool Timed>
std::uint64_t
HierarchySimulator::replay(trace::TraceSource &source,
                           std::uint64_t max_refs)
{
    buildCaches(true);
    trace::MemRef buf[kReplayBatch];
    std::uint64_t n = 0;
    while (n < max_refs) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(kReplayBatch, max_refs - n));
        const std::size_t got = source.nextBatch(buf, want);
        if (got == 0)
            break;
        for (std::size_t i = 0; i < got; ++i)
            handleRef(buf[i], Timed);
        n += got;
    }
    return n;
}

template <bool Timed>
void
HierarchySimulator::replay(trace::RefSpan refs)
{
    buildCaches(true);
    for (const trace::MemRef &ref : refs)
        handleRef(ref, Timed);
}

std::uint64_t
HierarchySimulator::warmUp(trace::TraceSource &source,
                           std::uint64_t refs)
{
    const std::uint64_t n = replay<false>(source, refs);
    resetAllCounts();
    return n;
}

std::uint64_t
HierarchySimulator::warmUp(trace::RefSpan refs)
{
    replay<false>(refs);
    resetAllCounts();
    return refs.size;
}

std::uint64_t
HierarchySimulator::runFunctional(trace::RefSpan refs)
{
    replay<false>(refs);
    refsRun_ += refs.size;
    return refs.size;
}

std::uint64_t
HierarchySimulator::run(trace::TraceSource &source,
                        std::uint64_t max_refs)
{
    const std::uint64_t n = replay<true>(source, max_refs);
    refsRun_ += n;
    return n;
}

std::uint64_t
HierarchySimulator::run(trace::RefSpan refs)
{
    replay<true>(refs);
    refsRun_ += refs.size;
    return refs.size;
}

void
HierarchySimulator::resetAllCounts()
{
    if (front_)
        front_->resetCounts();
    refsRun_ = 0;
    std::fill(readReqs_.begin(), readReqs_.end(), 0);
    std::fill(readMisses_.begin(), readMisses_.end(), 0);
    memReads_ = 0;
    memWrites_ = 0;
    l1ReadMissStallTicks_ = 0;
    l1ReadMissCount_ = 0;
    missPenaltyHist_.reset();
    baseTicks_ = 0;
    storeWriteHitTicks_ = 0;
    readStallCacheTicks_ = 0;
    readStallMemoryTicks_ = 0;
    storeStallTicks_ = 0;

    for (auto &level : levels_)
        level->resetCounts();
    for (auto &solo : solo_)
        solo->resetCounts();
}

void
L1Front::capture(SnapshotArena &arena, WarmSnapshot &snap) const
{
    snap.splitL1 = l1i_ != nullptr;
    if (l1i_)
        l1i_->captureState(arena, snap.l1i);
    l1d_->captureState(arena, snap.l1d);
    snap.instructions = instructions_;
    snap.loads = loads_;
    snap.stores = stores_;
}

void
L1Front::restore(const SnapshotArena &arena, const WarmSnapshot &snap)
{
    if (snap.splitL1 != (l1i_ != nullptr))
        mlc_panic("L1 restore split-L1 mismatch: snapshot ",
                  snap.splitL1 ? "split" : "unified", ", front ",
                  l1i_ ? "split" : "unified");
    if (l1i_)
        l1i_->restoreState(arena, snap.l1i);
    l1d_->restoreState(arena, snap.l1d);
    instructions_ = snap.instructions;
    loads_ = snap.loads;
    stores_ = snap.stores;
}

void
HierarchySimulator::captureWarmState(SnapshotArena &arena,
                                     WarmSnapshot &snap,
                                     std::size_t prefix_levels) const
{
    if (prefix_levels > depth_)
        mlc_panic("captureWarmState prefix depth ", prefix_levels,
                  " exceeds hierarchy depth ", depth_);
    if (params_.measureSolo)
        mlc_panic("captureWarmState with solo co-simulation "
                  "active: solo arrays replay the raw CPU stream "
                  "and cannot be rebuilt from boundary traffic");
    if (!front_)
        mlc_panic("captureWarmState before any replay over raw "
                  "references: there is no L1 state");
    front_->capture(arena, snap);
    snap.prefixLevels = prefix_levels;
    snap.levels.resize(prefix_levels);
    for (std::size_t i = 0; i < prefix_levels; ++i)
        levels_[i]->captureState(arena, snap.levels[i]);
    snap.refsRun = refsRun_;
    snap.l1ReadMissCount = l1ReadMissCount_;
    snap.readReqs.assign(readReqs_.begin(),
                         readReqs_.begin() +
                             static_cast<std::ptrdiff_t>(
                                 prefix_levels));
    snap.readMisses.assign(readMisses_.begin(),
                           readMisses_.begin() +
                               static_cast<std::ptrdiff_t>(
                                   prefix_levels));
}

std::size_t
sharedFunctionalPrefix(const HierarchyParams &a,
                       const HierarchyParams &b)
{
    const std::size_t depth =
        std::min(a.levels.size(), b.levels.size());
    std::size_t k = 0;
    while (k < depth &&
           cache::functionallyEqual(a.levels[k], b.levels[k]))
        ++k;
    return k;
}

bool
sameFunctionalL1(const HierarchyParams &a, const HierarchyParams &b)
{
    if (a.splitL1 != b.splitL1)
        return false;
    if (a.splitL1 && !cache::functionallyEqual(a.l1i, b.l1i))
        return false;
    return cache::functionallyEqual(a.l1d, b.l1d);
}

bool
sameFunctionalHierarchy(const HierarchyParams &a,
                        const HierarchyParams &b)
{
    return sameFunctionalL1(a, b) && a.levels.size() == b.levels.size() &&
           sharedFunctionalPrefix(a, b) == a.levels.size();
}

bool
warmCompatible(const HierarchyParams &a, const HierarchyParams &b)
{
    return !a.measureSolo && !b.measureSolo && sameFunctionalL1(a, b);
}

SimResults
HierarchySimulator::results() const
{
    const L1Counts l1c = loggedL1_ ? *loggedL1_
                         : front_  ? front_->counts()
                                   : L1Counts{};
    SimResults r;
    r.instructions = l1c.instructions;
    r.cpuReads = l1c.instructions + l1c.loads;
    r.cpuWrites = l1c.stores;
    r.references = r.cpuReads + r.cpuWrites;

    r.totalCycles = divCeil(now_, cpuCycle_);
    const Tick ideal_ticks = r.instructions * cpuCycle_ +
                             r.cpuWrites * l1dWriteExtra_;
    r.idealCycles = divCeil(ideal_ticks, cpuCycle_);

    r.cpi = r.instructions == 0
                ? 0.0
                : static_cast<double>(r.totalCycles) /
                      static_cast<double>(r.instructions);
    r.relativeExecTime =
        r.idealCycles == 0
            ? 0.0
            : static_cast<double>(r.totalCycles) /
                  static_cast<double>(r.idealCycles);

    const double cpu_reads = static_cast<double>(r.cpuReads);

    // Combined first level.
    LevelResults l1;
    l1.name = params_.splitL1 ? "l1" : "l1 (unified)";
    l1.readRequests = l1c.readRequests();
    l1.readMisses = l1c.readMisses();
    l1.writebacks = l1c.l1i.writebacks + l1c.l1d.writebacks;
    l1.localMissRatio =
        l1.readRequests == 0
            ? 0.0
            : static_cast<double>(l1.readMisses) /
                  static_cast<double>(l1.readRequests);
    l1.globalMissRatio =
        r.cpuReads == 0 ? 0.0
                        : static_cast<double>(l1.readMisses) /
                              cpu_reads;
    r.levels.push_back(l1);

    if (params_.splitL1) {
        const auto side = [&](const std::string &name,
                              const cache::CacheCounts &c) {
            LevelResults d;
            d.name = name;
            d.readRequests = c.readAccesses();
            d.readMisses = c.readMisses();
            d.writebacks = c.writebacks;
            d.localMissRatio = c.readMissRatio();
            d.globalMissRatio =
                r.cpuReads == 0
                    ? 0.0
                    : static_cast<double>(d.readMisses) / cpu_reads;
            r.l1Detail.push_back(d);
        };
        side(params_.l1i.name, l1c.l1i);
        side(params_.l1d.name, l1c.l1d);
    }

    for (std::size_t i = 0; i < depth_; ++i) {
        LevelResults lvl;
        lvl.name = params_.levels[i].name;
        lvl.readRequests = readReqs_[i];
        lvl.readMisses = readMisses_[i];
        lvl.writebacks = tapedWritebacks_ ? (*tapedWritebacks_)[i]
                         : levels_.empty()
                             ? 0
                             : levels_[i]->counts().writebacks;
        lvl.localMissRatio =
            readReqs_[i] == 0
                ? 0.0
                : static_cast<double>(readMisses_[i]) /
                      static_cast<double>(readReqs_[i]);
        lvl.globalMissRatio =
            r.cpuReads == 0
                ? 0.0
                : static_cast<double>(readMisses_[i]) / cpu_reads;
        if (params_.measureSolo)
            lvl.soloMissRatio =
                solo_.empty() ? 0.0 : solo_[i]->counts().readMissRatio();
        r.levels.push_back(lvl);
    }

    if (l1ReadMissCount_ > 0) {
        r.meanL1MissPenaltyCycles =
            static_cast<double>(l1ReadMissStallTicks_) /
            static_cast<double>(cpuCycle_) /
            static_cast<double>(l1ReadMissCount_);
    }

    const double cycle = static_cast<double>(cpuCycle_);
    r.breakdown.base = static_cast<double>(baseTicks_) / cycle;
    r.breakdown.storeWriteHit =
        static_cast<double>(storeWriteHitTicks_) / cycle;
    r.breakdown.readStallCacheHit =
        static_cast<double>(readStallCacheTicks_) / cycle;
    r.breakdown.readStallMemory =
        static_cast<double>(readStallMemoryTicks_) / cycle;
    r.breakdown.storeStall =
        static_cast<double>(storeStallTicks_) / cycle;

    for (const auto &wb : wb_)
        r.writeBufferFullStalls += wb->fullStalls();

    return r;
}

} // namespace hier
} // namespace mlc
