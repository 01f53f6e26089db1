#include "hier/hierarchy.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace mlc {
namespace hier {

HierarchySimulator::HierarchySimulator(HierarchyParams params)
    : params_(params.finalized()),
      cpuCycle_(nsToTicks(params_.cpuCycleNs)), front_(params_),
      memory_(params_.memory)
{
    for (std::size_t i = 0; i < params_.levels.size(); ++i) {
        levels_.push_back(std::make_unique<cache::Cache>(
            params_.levels[i], levelSeed(i)));
        if (params_.measureSolo)
            solo_.push_back(std::make_unique<cache::Cache>(
                params_.levels[i], soloSeed(i)));
    }

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

    readReqs_.assign(levels_.size(), 0);
    readMisses_.assign(levels_.size(), 0);
    levelOutcomes_.resize(levels_.size());
    victimOutcomes_.resize(levels_.size());

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

Tick
HierarchySimulator::downstreamRead(std::size_t i, Addr addr,
                                   std::uint64_t bytes, Tick start,
                                   bool count_read, bool timed)
{
    if (i == levels_.size()) {
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

    cache::Cache &c = *levels_[i];
    cache::AccessOutcome &outcome = levelOutcomes_[i];
    if (count_read)
        ++readReqs_[i];

    trace::MemRef req = trace::makeLoad(addr);
    c.access(req, outcome);

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
    return fillFromBelow(i + 1, outcome,
                         c.params().fillRequestBytes(), miss_known,
                         count_read, timed);
}

Tick
HierarchySimulator::fillFromBelow(std::size_t i,
                                  const cache::AccessOutcome &outcome,
                                  std::uint64_t up_block_bytes,
                                  Tick start, bool count_read,
                                  bool timed)
{
    // The demand block gates the requester; further fills of the
    // fetch group (and prefetches) proceed afterwards without
    // stalling it, but they do occupy the downstream timelines.
    Tick demand_ready = start;
    bool first = true;
    for (Addr fill : outcome.fills) {
        const Tick r = downstreamRead(i, fill, up_block_bytes,
                                      first ? start : demand_ready,
                                      count_read && first, timed);
        if (first) {
            demand_ready = r;
            first = false;
        }
    }

    Tick ready = demand_ready;
    for (const cache::WritebackReq &victim : outcome.writebacks) {
        const Tick proceed = queueDownstreamWrite(
            i, victim.base, victim.bytes, demand_ready, timed);
        ready = std::max(ready, proceed);
    }
    return ready;
}

Tick
HierarchySimulator::queueDownstreamWrite(std::size_t i, Addr base,
                                         std::uint64_t bytes,
                                         Tick start, bool timed)
{
    if (i == levels_.size()) {
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

    cache::Cache &c = *levels_[i];
    const bool hit = c.absorbWrite(base);
    if (!hit) {
        if (c.params().downstreamWriteMiss ==
            cache::DownstreamWriteMissPolicy::Around) {
            return queueDownstreamWrite(i + 1, base, bytes, start,
                                        timed);
        }
        // Allocate: fetch the enclosing block from below, install
        // it dirty, then complete the write locally. The fetch is
        // demand traffic on the lower timeline but does not stall
        // the original requester beyond the local queueing.
        cache::AccessOutcome &outcome = victimOutcomes_[i];
        c.absorbWriteAllocate(base, outcome);
        Tick fetched = start;
        for (Addr fill : outcome.fills)
            fetched = downstreamRead(
                i + 1, fill, c.params().fillRequestBytes(), start,
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
                                   i + 1, victim.base,
                                   victim.bytes, fetched, timed));
        return timed ? proceed : start;
    }

    Tick proceed = start;
    if (timed) {
        const Tick service = writeService(i, bytes);
        const mem::WriteBuffer::Op op{service, service};
        proceed = wb_[i]->queueWrite(start, base, bytes, op);
    }
    if (c.params().writePolicy == cache::WritePolicy::WriteThrough) {
        proceed = std::max(
            proceed,
            queueDownstreamWrite(i + 1, base, bytes, start, timed));
    }
    return proceed;
}

void
HierarchySimulator::soloReplay(const trace::MemRef &ref)
{
    for (auto &solo : solo_)
        solo->access(ref, soloOutcome_);
}

void
HierarchySimulator::handleMiss(const trace::MemRef &ref,
                               const cache::AccessOutcome &outcome,
                               bool timed)
{
    if (ref.isRead()) {
        ++l1ReadMissCount_;
        const Tick miss_start = now_;
        const std::uint64_t mem_reads_before = memReads_;
        const Tick ready = fillFromBelow(
            0, outcome, ref.isInst() ? l1iFillBytes_ : l1dFillBytes_,
            now_, true, timed);
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
    if (!outcome.fills.empty() || !outcome.writebacks.empty())
        ready = fillFromBelow(0, outcome, l1dFillBytes_, now_, false,
                              timed);
    if (outcome.forwardWrite) {
        const Addr word_base = ref.addr & ~Addr{3};
        const Tick proceed = queueDownstreamWrite(
            0, word_base, ref.size, ready, timed);
        ready = std::max(ready, proceed);
    }
    if (timed) {
        const Tick before = now_;
        now_ = cpuCycleDiv_.roundUp(ready) + l1dWriteExtra_;
        storeStallTicks_ += now_ - before - l1dWriteExtra_;
        storeWriteHitTicks_ += l1dWriteExtra_;
    }
}

template <bool Timed>
std::uint64_t
HierarchySimulator::replay(trace::TraceSource &source,
                           std::uint64_t max_refs)
{
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
    front_.resetCounts();
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
HierarchySimulator::captureWarmState(SnapshotArena &arena,
                                     WarmSnapshot &snap,
                                     std::size_t prefix_levels) const
{
    if (prefix_levels > levels_.size())
        mlc_panic("captureWarmState prefix depth ", prefix_levels,
                  " exceeds hierarchy depth ", levels_.size());
    if (!solo_.empty())
        mlc_panic("captureWarmState with solo co-simulation "
                  "active: solo arrays replay the raw CPU stream "
                  "and cannot be rebuilt from boundary traffic");
    snap.splitL1 = params_.splitL1;
    snap.prefixLevels = prefix_levels;
    if (front_.l1i_)
        front_.l1i_->captureState(arena, snap.l1i);
    front_.l1d_->captureState(arena, snap.l1d);
    snap.levels.resize(prefix_levels);
    for (std::size_t i = 0; i < prefix_levels; ++i)
        levels_[i]->captureState(arena, snap.levels[i]);
    snap.instructions = front_.instructions_;
    snap.ifetches = front_.ifetches_;
    snap.loads = front_.loads_;
    snap.stores = front_.stores_;
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

void
HierarchySimulator::restoreWarmState(const SnapshotArena &arena,
                                     const WarmSnapshot &snap)
{
    if (snap.splitL1 != params_.splitL1)
        mlc_panic("restoreWarmState split-L1 mismatch: snapshot ",
                  snap.splitL1 ? "split" : "unified",
                  ", simulator ",
                  params_.splitL1 ? "split" : "unified");
    if (snap.prefixLevels > levels_.size())
        mlc_panic("restoreWarmState snapshot prefix depth ",
                  snap.prefixLevels, " exceeds hierarchy depth ",
                  levels_.size());
    if (!solo_.empty())
        mlc_panic("restoreWarmState with solo co-simulation "
                  "active");
    if (front_.l1i_)
        front_.l1i_->restoreState(arena, snap.l1i);
    front_.l1d_->restoreState(arena, snap.l1d);
    for (std::size_t i = 0; i < snap.prefixLevels; ++i)
        levels_[i]->restoreState(arena, snap.levels[i]);
    front_.instructions_ = snap.instructions;
    front_.ifetches_ = snap.ifetches;
    front_.loads_ = snap.loads;
    front_.stores_ = snap.stores;
    refsRun_ = snap.refsRun;
    l1ReadMissCount_ = snap.l1ReadMissCount;
    for (std::size_t i = 0; i < snap.prefixLevels; ++i) {
        readReqs_[i] = snap.readReqs[i];
        readMisses_[i] = snap.readMisses[i];
    }
}

std::uint64_t
HierarchySimulator::replayBoundary(std::size_t level,
                                   const std::vector<BoundaryOp> &ops)
{
    if (level > levels_.size())
        mlc_panic("replayBoundary at level ", level,
                  " of a hierarchy with ", levels_.size(),
                  " downstream levels");
    for (const BoundaryOp &op : ops) {
        if (op.kind == BoundaryOp::Kind::Read)
            downstreamRead(level, op.addr, op.bytes, 0,
                           op.countRead, false);
        else
            queueDownstreamWrite(level, op.addr, op.bytes, 0,
                                 false);
    }
    return ops.size();
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
warmCompatible(const HierarchyParams &a, const HierarchyParams &b)
{
    if (a.splitL1 != b.splitL1)
        return false;
    if (a.measureSolo || b.measureSolo)
        return false;
    if (a.splitL1 && !cache::functionallyEqual(a.l1i, b.l1i))
        return false;
    return cache::functionallyEqual(a.l1d, b.l1d);
}

SimResults
HierarchySimulator::results() const
{
    SimResults r;
    r.instructions = front_.instructions();
    r.cpuReads = front_.ifetches() + front_.loads();
    r.cpuWrites = front_.stores();
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
    l1.readRequests = front_.readRequests();
    l1.readMisses = front_.readMisses();
    l1.writebacks = front_.l1d_->counts().writebacks +
                    (front_.l1i_ ? front_.l1i_->counts().writebacks : 0);
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
        for (const cache::Cache *c :
             {front_.l1i_.get(), front_.l1d_.get()}) {
            LevelResults d;
            d.name = c->params().name;
            d.readRequests = c->counts().readAccesses();
            d.readMisses = c->counts().readMisses();
            d.writebacks = c->counts().writebacks;
            d.localMissRatio = c->counts().readMissRatio();
            d.globalMissRatio =
                r.cpuReads == 0
                    ? 0.0
                    : static_cast<double>(d.readMisses) / cpu_reads;
            r.l1Detail.push_back(d);
        }
    }

    for (std::size_t i = 0; i < levels_.size(); ++i) {
        LevelResults lvl;
        lvl.name = levels_[i]->params().name;
        lvl.readRequests = readReqs_[i];
        lvl.readMisses = readMisses_[i];
        lvl.writebacks = levels_[i]->counts().writebacks;
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
            lvl.soloMissRatio = solo_[i]->counts().readMissRatio();
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
