/**
 * @file
 * grid_onepass: one long seeded synthetic trace, written at set-up
 * as .mlct and mmapped by every request, priced three ways:
 *
 *  - onepass::profileTrace over a size x assoc x block family with
 *    solo profiling on (sharded sweep, one shard per worker);
 *  - onepass::profileCascadeTrace over an L2-pivot x L3 family on
 *    the three-level machine;
 *  - mrc::profileMapped over the first family at p = 0.01.
 *
 * Every cell is then priced through EqTimingModel. A round is one
 * request of each kind. Trace decode, L1Filter, ghost sweeps,
 * CascadeFilter, SampledGhostForest and pricing do the work; the
 * timing simulator runs only in the output checks.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>

#include "expt/runner.hh"
#include "hier/config_file.hh"
#include "mrc/engine.hh"
#include "onepass/cascade.hh"
#include "onepass/l1_filter.hh"
#include "onepass/model_timing.hh"
#include "onepass/sharded.hh"
#include "onepass/validate.hh"
#include "trace/binary.hh"
#include "workload.hh"

namespace mlcbench {

namespace {

using namespace mlc;

const char *const kTracePath = "onepass.mlct";

onepass::FamilySpec
crossFamily()
{
    return onepass::FamilySpec::crossProduct(expt::paperSizes(),
                                             {1, 2, 4}, {32, 64});
}

/** L2 pivots x L3 members for the three-level machine, whose L2
 *  blocks are 32 bytes and L3 blocks 64. */
onepass::CascadeFamilySpec
cascadeFamily(const hier::HierarchyParams &three)
{
    onepass::CascadeFamilySpec fam;
    for (const std::uint64_t kb : {16ul, 32ul, 64ul, 128ul, 256ul})
        fam.pivots.push_back({kb * 1024,
                              three.levels[0].geometry.assoc,
                              three.levels[0].geometry.blockBytes});
    for (const std::uint64_t kb : {512ul, 1024ul, 2048ul, 4096ul, 8192ul})
        fam.l3.configs.push_back(
            {kb * 1024, three.levels[1].geometry.assoc,
             three.levels[1].geometry.blockBytes});
    return fam;
}

/** @p base with its L2 shaped as @p l2 at @p cyc CPU cycles. */
hier::HierarchyParams
twoLevelMachine(const hier::HierarchyParams &base,
                const onepass::GhostCacheSpec &l2, std::uint32_t cyc)
{
    hier::HierarchyParams p = base.withL2(l2.sizeBytes, cyc, l2.assoc);
    p.levels[0].geometry.blockBytes = l2.blockBytes;
    return p;
}

/** @p three with its L2 shaped as @p pivot at @p cyc CPU cycles and
 *  its L3 as @p l3. */
hier::HierarchyParams
threeLevelMachine(const hier::HierarchyParams &three,
                  const onepass::GhostCacheSpec &pivot,
                  const onepass::GhostCacheSpec &l3, std::uint32_t cyc)
{
    hier::HierarchyParams p =
        three.withL2(pivot.sizeBytes, cyc, pivot.assoc);
    p.levels[0].geometry.blockBytes = pivot.blockBytes;
    p.levels[1].geometry.sizeBytes = l3.sizeBytes;
    p.levels[1].geometry.assoc = l3.assoc;
    p.levels[1].geometry.blockBytes = l3.blockBytes;
    return p;
}

/** Price every (member, L2 cycle) cell of a two-level profile. */
std::vector<double>
priceFamily(const hier::HierarchyParams &base,
            const onepass::TraceProfile &prof,
            const std::vector<std::uint32_t> &cycles)
{
    Span span("onepass.price");
    std::vector<double> cells;
    for (const std::uint32_t cyc : cycles) {
        // The model depends on the cycle time and the block size.
        std::vector<std::pair<std::uint32_t, onepass::EqTimingModel>>
            models;
        for (std::size_t m = 0; m < prof.configs.size(); ++m) {
            const onepass::GhostCacheSpec &spec = prof.configs[m].spec;
            auto it = std::find_if(
                models.begin(), models.end(),
                [&](const auto &e) { return e.first == spec.blockBytes; });
            if (it == models.end()) {
                models.emplace_back(
                    spec.blockBytes, onepass::EqTimingModel::forMachine(
                                         twoLevelMachine(base, spec, cyc)));
                it = models.end() - 1;
            }
            cells.push_back(it->second.relExec(prof, m));
        }
    }
    span.setWork(cells.size());
    return cells;
}

/** Price every (pivot, L3 member, L2 cycle) cell of a cascade. */
std::vector<double>
priceCascade(const hier::HierarchyParams &three,
             const onepass::CascadeFamilySpec &fam,
             const std::vector<onepass::TraceProfile> &profs,
             const std::vector<std::uint32_t> &cycles)
{
    Span span("onepass.price");
    std::vector<double> cells;
    for (const std::uint32_t cyc : cycles) {
        // Every pivot shares one block size, every member another,
        // so one model per cycle time prices the whole family.
        const onepass::EqTimingModel model =
            onepass::EqTimingModel::forMachine(threeLevelMachine(
                three, fam.pivots[0], fam.l3.configs[0], cyc));
        for (const onepass::TraceProfile &prof : profs)
            for (std::size_t m = 0; m < prof.configs.size(); ++m)
                cells.push_back(model.relExec(prof, m));
    }
    span.setWork(cells.size());
    return cells;
}

/** Map the benchmark trace: eagerly validated for the exact
 *  engines, lazily for the streaming one (it validates per chunk). */
std::unique_ptr<trace::MappedBinaryTrace>
openTrace(bool lazy, std::uint64_t refs)
{
    Span span("trace.open");
    span.setWork(refs);
    return std::make_unique<trace::MappedBinaryTrace>(
        kTracePath, trace::MappedBinaryTrace::Backing::Auto,
        lazy ? trace::MappedBinaryTrace::Validation::Lazy
             : trace::MappedBinaryTrace::Validation::Eager);
}

bool
countsEqual(const onepass::GhostCounts &a, const onepass::GhostCounts &b)
{
    return a.reads == b.reads && a.readMisses == b.readMisses &&
           a.extraAccesses == b.extraAccesses &&
           a.extraMisses == b.extraMisses;
}

bool
profilesEqual(const onepass::TraceProfile &a,
              const onepass::TraceProfile &b)
{
    if (a.instructions != b.instructions ||
        a.l1ReadMisses != b.l1ReadMisses ||
        a.configs.size() != b.configs.size())
        return false;
    for (std::size_t m = 0; m < a.configs.size(); ++m)
        if (!countsEqual(a.configs[m].filtered, b.configs[m].filtered) ||
            !countsEqual(a.configs[m].solo, b.configs[m].solo))
            return false;
    return true;
}

/** The family's ghost policies, as profileTrace derives them. */
onepass::GhostPolicies
policiesFor(const hier::HierarchyParams &base,
            const onepass::FamilySpec &fam)
{
    hier::HierarchyParams p = base;
    p.finalize();
    std::uint32_t max_assoc = 1;
    for (const onepass::GhostCacheSpec &s : fam.configs)
        max_assoc = std::max(max_assoc, s.assoc);
    return onepass::GhostPolicies::fromLevel(p.levels[0], max_assoc);
}

} // namespace

void
runGridOnepass(const Options &opts, Report &rep)
{
    const std::uint64_t refs = opts.tiny ? 60'000 : 800'000;
    const std::uint64_t warm = refs / 4;
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const hier::HierarchyParams three = hier::parseConfigFile(
        opts.root + "/examples/configs/three_level.cfg");
    const std::vector<std::uint32_t> cycles = expt::paperCycles();
    const onepass::FamilySpec famA = crossFamily();
    const onepass::CascadeFamilySpec famB = cascadeFamily(three);

    expt::TraceSpec spec = expt::paperSuite()[1];
    spec.warmupRefs = warm;
    spec.measureRefs = refs - warm;

    // --- set-up: generate, write the .mlct, map and validate it.
    std::vector<double> setups;
    const auto setUp = [&](const char *path) {
        const auto t0 = Clock::now();
        std::vector<trace::MemRef> stream;
        {
            Span span("trace.generate");
            span.setWork(refs);
            stream = suiteTrace(spec, opts.seed);
        }
        {
            Span span("trace.write");
            span.setWork(refs);
            std::ofstream os(path, std::ios::binary);
            trace::BinaryWriter w(os);
            w.putSpan({stream.data(), stream.size()});
            w.finish();
        }
        const trace::MappedBinaryTrace mapped(path);
        setups.push_back(secondsSince(t0));
    };
    tracer::enable(opts.trace);
    setUp(kTracePath);
    tracer::enable(false);

    // --- timed phase: one request of each kind per round.
    mrc::MrcOptions mopts;
    mopts.sampler.rate = 0.01;
    onepass::ProfileOptions popts;
    popts.solo = true;
    popts.shards = opts.jobs;
    onepass::ProfileOptions cascadeOpts;
    cascadeOpts.shards = opts.jobs;
    const std::uint64_t cascadeWarm = warm;

    std::vector<std::vector<double>> cellsA, cellsB, cellsC;
    std::vector<double> roundRates, latencies;
    onepass::TraceProfile exactA, sampledA;
    const Rounds rounds = timedRounds(opts, [&](std::size_t round) {
        std::size_t cells = 0;
        double busy = 0.0;
        const auto request = [&](auto &&fn) {
            const auto t0 = Clock::now();
            Span span("bench.request");
            cells += fn();
            const double s = secondsSince(t0);
            latencies.push_back(s * 1e6);
            busy += s;
        };
        request([&] {
            const auto mapped = openTrace(false, refs);
            onepass::TraceProfile prof;
            {
                Span p("onepass.profileTrace");
                p.setWork(refs);
                prof = onepass::profileTrace(base, famA, mapped->span(),
                                             warm, popts);
            }
            cellsA.push_back(priceFamily(base, prof, cycles));
            if (round == 0)
                exactA = std::move(prof);
            return cellsA.back().size();
        });
        request([&] {
            const auto mapped = openTrace(false, refs);
            std::vector<onepass::TraceProfile> profs;
            {
                Span p("onepass.profileCascadeTrace");
                p.setWork(refs);
                profs = onepass::profileCascadeTrace(
                    three, famB, mapped->span(), cascadeWarm,
                    cascadeOpts);
            }
            cellsB.push_back(priceCascade(three, famB, profs, cycles));
            return cellsB.back().size();
        });
        request([&] {
            const auto mapped = openTrace(true, refs);
            onepass::TraceProfile prof;
            {
                Span p("mrc.profileMapped");
                p.setWork(refs);
                prof = mrc::profileMapped(base, famA, *mapped, warm,
                                          mopts);
            }
            cellsC.push_back(priceFamily(base, prof, cycles));
            if (round == 0)
                sampledA = std::move(prof);
            return cellsC.back().size();
        });
        roundRates.push_back(static_cast<double>(cells) / busy);
    }, [&] { setUp("setup.mlct"); });
    const std::size_t cellsPerRound =
        cellsA[0].size() + cellsB[0].size() + cellsC[0].size();
    rep.operations(cellsPerRound * rounds.seconds.size());
    rep.fact("trace_refs", static_cast<double>(refs));
    rep.fact("trace_warmup_refs", static_cast<double>(warm));
    rep.fact("cells_per_round", static_cast<double>(cellsPerRound));
    rep.fact("rounds", static_cast<double>(rounds.seconds.size()));
    rep.fact("latency_samples", static_cast<double>(latencies.size()));
    rep.fact("shards", static_cast<double>(opts.jobs));

    // --- checks.
    bool repeat = true;
    for (std::size_t r = 1; r < cellsA.size(); ++r)
        repeat = repeat && cellsA[r] == cellsA[0] &&
                 cellsB[r] == cellsB[0] && cellsC[r] == cellsC[0];
    rep.check("cells_repeat_identically", repeat, "cells_changed");

    // Exact counts against the timing simulator, on a prefix.
    const trace::MappedBinaryTrace mapped(kTracePath);
    fingerprintInputs({mapped.span()}, "", rep);
    const std::uint64_t prefixRefs = std::min<std::uint64_t>(refs, 120'000);
    expt::TraceSpec prefixSpec;
    prefixSpec.name = "onepass-prefix";
    prefixSpec.warmupRefs = prefixRefs / 4;
    const trace::RefSpan prefix = mapped.span().first(prefixRefs);
    const expt::TraceStore prefixStore = expt::TraceStore::deferred(
        {prefixSpec}, [&](const expt::TraceSpec &) {
            return std::vector<trace::MemRef>(prefix.begin(),
                                              prefix.end());
        });
    const onepass::FamilySpec small = onepass::FamilySpec::crossProduct(
        {4096, 65536, 1u << 20}, {1, 2}, {32, 64});
    rep.check("onepass_counts_equal_timing",
              onepass::crossCheck(base, small, prefixStore, opts.jobs,
                                  true)
                  .allMatch(),
              "count_mismatch");
    onepass::CascadeFamilySpec smallB;
    smallB.pivots = {famB.pivots.front(), famB.pivots.back()};
    smallB.l3.configs = {famB.l3.configs.front(),
                         famB.l3.configs.back()};
    rep.check("cascade_counts_equal_timing",
              onepass::crossCheckCascade(three, smallB, prefixStore,
                                         opts.jobs)
                  .allMatch(),
              "count_mismatch");
    onepass::ProfileOptions serial = popts;
    serial.shards = 1;
    rep.check("profile_shards1_equals_shardsN",
              profilesEqual(onepass::profileTrace(base, famA, prefix,
                                                  prefixRefs / 4, serial),
                            onepass::profileTrace(base, famA, prefix,
                                                  prefixRefs / 4, popts)),
              "shards_changed_counts");

    // Modelled against simulated time on the prefix, for the exact
    // two-level and the cascade profiles at the fastest and slowest
    // L2. The error is a bias of the model, so it moves little from
    // seed to seed; mrc's sampling error does, and is reported per
    // layer.
    const std::uint64_t prefixWarm = prefixRefs / 4;
    double modelErr = 0.0;
    const auto account = [&](const hier::HierarchyParams &machine,
                             double modelled) {
        const double simulated =
            expt::runOnTrace(machine, prefix, prefixWarm)
                .relativeExecTime;
        modelErr = std::max(modelErr,
                            std::fabs(modelled - simulated) / simulated);
    };
    const onepass::TraceProfile twoLevel =
        onepass::profileTrace(base, small, prefix, prefixWarm);
    const std::vector<onepass::TraceProfile> cascade =
        onepass::profileCascadeTrace(three, smallB, prefix, prefixWarm);
    for (const std::uint32_t cyc : {cycles.front(), cycles.back()}) {
        for (std::size_t m = 0; m < small.configs.size(); ++m) {
            const hier::HierarchyParams p =
                twoLevelMachine(base, small.configs[m], cyc);
            account(p, onepass::EqTimingModel::forMachine(p).relExec(
                           twoLevel, m));
        }
        for (std::size_t v = 0; v < smallB.pivots.size(); ++v)
            for (std::size_t m = 0; m < smallB.l3.configs.size(); ++m) {
                const hier::HierarchyParams p = threeLevelMachine(
                    three, smallB.pivots[v], smallB.l3.configs[m], cyc);
                account(p, onepass::EqTimingModel::forMachine(p).relExec(
                               cascade[v], m));
            }
    }

    double mrcErrMax = 0.0;
    for (std::size_t m = 0; m < famA.configs.size(); ++m)
        mrcErrMax = std::max(
            mrcErrMax,
            std::fabs(sampledA.configs[m].filtered.localMissRatio() -
                      exactA.configs[m].filtered.localMissRatio()));

    if (!opts.trace) {
        rep.metric("setup_s", median(setups));
        rep.metric("cells_per_s", median(roundRates));
        std::vector<double> qps;
        for (const double s : rounds.seconds)
            qps.push_back(3.0 / s);
        rep.metric("qps", median(qps));
        rep.metric("p50_us", percentile(latencies, 50));
        rep.metric("p99_us", tail(latencies, rep));
        rep.metric("err", modelErr);
        return;
    }

    // --- traced run: each layer of profileTrace / the cascade,
    // called directly on the same inputs.
    tracer::enable(true);
    {
        Span span("trace.decode");
        span.setWork(refs);
        const trace::MappedBinaryTrace m(kTracePath);
        std::uint64_t sum = 0;
        for (const trace::MemRef &r : m.span())
            sum += r.addr;
        rep.fact("trace_addr_sum", static_cast<double>(sum % 1000003));
    }
    const trace::RefSpan all = mapped.span();
    const onepass::GhostPolicies pol = policiesFor(base, famA);
    onepass::FilteredEventLog log;
    log.warmEvents = onepass::FilteredEventLog::kNoBoundary;
    onepass::L1Filter filter(base);
    {
        Span span("onepass.l1filter");
        span.setWork(refs);
        for (std::size_t i = 0; i < all.size; ++i) {
            if (i == warm) {
                filter.resetCounts();
                log.warmEvents = log.events.size();
            }
            filter.step(all[i], log);
        }
    }
    const std::uint64_t members = famA.configs.size();
    std::vector<onepass::GhostCounts> swept, solo;
    {
        Span span("onepass.sweepEventLog");
        span.setWork(log.events.size() * members);
        swept = onepass::sweepEventLog(log, famA.configs, pol, opts.jobs);
    }
    {
        Span span("onepass.sweepSoloStream");
        span.setWork(refs * members);
        solo = onepass::sweepSoloStream(all, warm, famA.configs, pol,
                                        opts.jobs);
    }
    bool decomposed = filter.l1ReadMisses() == exactA.l1ReadMisses;
    for (std::size_t m = 0; m < members; ++m)
        decomposed = decomposed &&
                     countsEqual(swept[m], exactA.configs[m].filtered) &&
                     countsEqual(solo[m], exactA.configs[m].solo);
    rep.check("layer_calls_equal_profileTrace", decomposed,
              "count_mismatch");

    onepass::FilteredEventLog log3;
    log3.warmEvents = onepass::FilteredEventLog::kNoBoundary;
    {
        onepass::L1Filter f3(three);
        for (std::size_t i = 0; i < all.size; ++i) {
            if (i == cascadeWarm)
                log3.warmEvents = log3.events.size();
            f3.step(all[i], log3);
        }
    }
    for (const onepass::GhostCacheSpec &pivot : famB.pivots) {
        onepass::CascadeFilter cf(three, pivot);
        onepass::FilteredEventLog out;
        Span span("onepass.filterEventLog");
        span.setWork(log3.events.size());
        onepass::filterEventLog(log3, cf, out);
    }
    mrc::SampledGhostForest forest(famA.configs, pol, mopts.sampler);
    double kept = 0.0;
    for (std::size_t m = 0; m < members; ++m)
        kept += forest.effectiveRate(m);
    tracer::enable(false);

    const std::vector<SpanRecord> spans = tracer::collect();
    rep.metric("trace.gen_ns_per_ref", nsPerWork(spans, "trace.generate"));
    rep.metric("trace.decode_ns_per_ref", nsPerWork(spans, "trace.decode"));
    rep.metric("onepass.l1filter_ns_per_ref",
               nsPerWork(spans, "onepass.l1filter"));
    rep.metric("onepass.log_events_per_ref",
               static_cast<double>(log.events.size()) /
                   static_cast<double>(refs));
    rep.metric("onepass.sweep_ns_per_event_member",
               nsPerWork(spans, "onepass.sweepEventLog"));
    rep.metric("onepass.solo_ns_per_ref_member",
               nsPerWork(spans, "onepass.sweepSoloStream"));
    rep.metric("onepass.cascade_ns_per_event",
               nsPerWork(spans, "onepass.filterEventLog"));
    rep.metric("onepass.price_ns_per_cell",
               nsPerWork(spans, "onepass.price"));
    rep.metric("mrc.profile_ns_per_ref",
               nsPerWork(spans, "mrc.profileMapped"));
    rep.metric("mrc.kept_frac", kept / static_cast<double>(members));
    rep.metric("mrc.miss_ratio_err_max", mrcErrMax);
    reportTrace(opts, rounds, rep);
}

} // namespace mlcbench
