#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <limits>

#include "engines/engines.hh"
#include "expt/design_space.hh"
#include "serve/metrics.hh"
#include "util/thread_pool.hh"
#include "trace/source.hh"
#include "util/bits.hh"
#include "util/logging.hh"
#include "util/str.hh"

#if defined(__unix__) || defined(__APPLE__)
#define MLC_SERVE_HAVE_SOCKETS 1
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define MLC_SERVE_HAVE_SOCKETS 0
#endif

namespace mlc {
namespace serve {

namespace {

std::uint64_t
elapsedUs(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/** `trace_tools warm` sidecar lookup: <path>.warm.json. Returns
 *  the recommended warm-up length, or 0 when no sidecar exists. */
std::uint64_t
sidecarWarmup(const std::string &path)
{
    std::ifstream side(path + ".warm.json");
    if (!side)
        return 0;
    std::string text((std::istreambuf_iterator<char>(side)),
                     std::istreambuf_iterator<char>());
    Json doc;
    std::string err;
    if (!Json::parse(text, doc, err) || !doc.isObject()) {
        warn("serve: ignoring malformed sidecar ", path,
             ".warm.json: ", err);
        return 0;
    }
    const Json *w = doc.find("warmup_refs");
    if (!w || !w->isNumber())
        return 0;
    return w->asU64();
}

/** Per-point geometry validation — rejects what the engines would
 *  panic on, as a structured error instead of a dead server. */
bool
validPoint(std::uint64_t size, std::uint32_t assoc,
           std::string &why, const char *lvl = "l2")
{
    constexpr std::uint32_t kBlockBytes = 32; // base machine L2
    const std::uint32_t eff_assoc = assoc == 0 ? 1 : assoc;
    if (!isPowerOfTwo(size)) {
        why = std::string(lvl) + " sizes must be powers of two";
        return false;
    }
    if (assoc != 0 && !isPowerOfTwo(assoc)) {
        why = std::string(lvl) + "_assoc must be a power of two";
        return false;
    }
    if (size < static_cast<std::uint64_t>(eff_assoc) * kBlockBytes) {
        why = std::string(lvl) +
              " size below one set (assoc x 32B block)";
        return false;
    }
    return true;
}

bool
validL1Total(std::uint64_t l1_total, std::string &why)
{
    if (l1_total == 0)
        return true;
    if (!isPowerOfTwo(l1_total) || l1_total < 2 * 1024) {
        why = "l1_total must be a power of two >= 2048 (split "
              "evenly across I and D)";
        return false;
    }
    return true;
}

} // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      jobs_(opts_.jobs == 0 ? defaultJobs() : opts_.jobs),
      memo_(opts_.memoCapacity), profiles_(opts_.profileCapacity)
{
    memo_.setTagQuota(opts_.memoTagQuota);
    if (!opts_.checkpointDir.empty())
        ckptStore_ = std::make_unique<ckpt::CheckpointStore>(
            opts_.checkpointDir);
    registerBuiltinWorkloads();
    for (const std::string &path : opts_.traceFiles)
        registerTraceFile(path);
    if (ckptStore_) {
        // Surface what the farm already holds per workload, so an
        // operator can tell resident live-points from cold traces
        // at startup instead of from the first slow sweep.
        for (const auto &wl : workloads_) {
            const std::uint64_t entries = checkpointEntries(*wl);
            inform("serve: workload '", wl->tag, "': ", entries,
                   " checkpoint farm ",
                   entries == 1 ? "entry" : "entries", " under ",
                   opts_.checkpointDir);
        }
    }
}

Server::~Server()
{
    stop();
}

void
Server::registerBuiltinWorkloads()
{
    workloads_.push_back(std::make_unique<Workload>(
        "grid", expt::TraceStore::deferred(expt::gridSuite())));
    workloads_.push_back(std::make_unique<Workload>(
        "paper", expt::TraceStore::deferred(expt::paperSuite())));
}

void
Server::registerTraceFile(const std::string &path)
{
    const std::string tag = trace::fileStem(path);
    if (findWorkload(tag))
        mlc_fatal("serve: duplicate workload tag '", tag, "'");
    // Open it once now, so a missing or unreadable file fails at
    // start-up rather than on the first query with clients
    // connected. The deferred loader below reopens it on first use.
    (void)trace::openTraceFile(path);
    expt::TraceSpec spec;
    spec.name = tag;
    const std::uint64_t warm = sidecarWarmup(path);
    // Without a sidecar the split is a guess; `trace_tools warm`
    // exists to replace it with a measured recommendation.
    spec.warmupRefs = warm != 0 ? warm : 50'000;
    spec.measureRefs = 0; // unused: file traces replay in full
    workloads_.push_back(std::make_unique<Workload>(
        tag, expt::TraceStore::deferred(
                 {spec}, [path](const expt::TraceSpec &) {
                     return trace::collect(
                         *trace::openTraceFile(path),
                         std::numeric_limits<std::uint64_t>::max());
                 })));
    inform("serve: registered workload '", tag, "' from ", path,
           warm != 0 ? " (warm sidecar found)"
                     : " (no warm sidecar)");
}

Server::Workload *
Server::findWorkload(const std::string &tag)
{
    for (const auto &wl : workloads_)
        if (wl->tag == tag)
            return wl.get();
    return nullptr;
}

hier::HierarchyParams
Server::baseFor(const Request &req)
{
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
    if (req.l1Total != 0)
        p = p.withL1Total(req.l1Total);
    if (req.l2Assoc != 0) {
        const auto cyc = static_cast<std::uint32_t>(
            p.levels[0].cycleNs / p.cpuCycleNs + 0.5);
        p = p.withL2(p.levels[0].geometry.sizeBytes, cyc,
                     req.l2Assoc);
    }
    if (req.l3Size != 0) {
        cache::CacheParams l3;
        l3.name = "l3";
        l3.geometry.sizeBytes = req.l3Size;
        l3.geometry.blockBytes = p.levels[0].geometry.blockBytes;
        l3.geometry.assoc = req.l3Assoc == 0 ? 1 : req.l3Assoc;
        l3.cycleNs =
            p.cpuCycleNs * static_cast<double>(req.l3Cycles);
        p.levels.push_back(l3);
        p.busWidthWords.push_back(p.busWidthWords.back());
    }
    return p;
}

expt::DesignSpaceGrid
Server::evaluateCells(const Request &req,
                      const std::vector<std::uint64_t> &sizes,
                      const std::vector<std::uint32_t> &cycles,
                      Workload &wl)
{
    // One engine execution at a time: each run parallelizes
    // internally across jobs_ workers, and serializing here is
    // also what keeps concurrent-client output bit-identical to a
    // serial client for free.
    std::lock_guard<std::mutex> lk(engineMu_);
    {
        std::lock_guard<std::mutex> clk(countersMu_);
        ++counters_.engineRuns;
    }
    const hier::HierarchyParams base = baseFor(req);
    engines::EngineOptions eo;
    engines::engineNamed(req.engine, eo.engine); // vetted by parseRequest
    eo.jobs = jobs_;
    eo.shards = opts_.shards;
    eo.sampled = opts_.sampled;
    eo.sampled.seed = req.seed;
    // With a farm attached, sampled warming loads from (or tees to)
    // disk, bit-identically either way (the persistence contract).
    sample::FarmTally farm;
    eo.farm = ckptStore_.get();
    eo.farmTag = wl.tag;
    eo.farmTally = &farm;
    // One-pass profiles are the cost, so they stay resident, keyed
    // by (workload, machine knobs, family). Two-level families
    // inside the canonical paper-size universe widen to all of it,
    // so every such request shares one resident profile; a cascade
    // family is exactly what the batch asked for, since every pivot
    // costs an exact filtered replay.
    eo.profiles = [&](onepass::CascadeFamilySpec family) {
        const std::vector<std::uint64_t> paper = expt::paperSizes();
        bool canonical = family.pivots.empty();
        for (const onepass::GhostCacheSpec &m : family.l3.configs)
            canonical = canonical && std::count(paper.begin(), paper.end(),
                                                m.sizeBytes) != 0;
        if (canonical)
            family.l3 = onepass::FamilySpec::l2Grid(base, paper);
        const char *kind =
            family.pivots.empty() ? "onepass" : "cascade";
        const std::string key =
            wl.tag + "#" + req.batchKey() + "#" + family.key();
        ProfileCache::Profiles profiles = profiles_.get(key, kind);
        if (!profiles) {
            profiles = std::make_shared<
                const std::vector<onepass::TraceProfile>>(
                engines::profile(eo, base, family, wl.store));
            profiles_.put(key, profiles, kind);
        }
        return engines::FamilyProfiles{std::move(family),
                                       std::move(profiles)};
    };
    expt::DesignSpaceGrid grid =
        engines::buildGrid(eo, base, sizes, cycles, wl.store);
    if (ckptStore_) {
        std::lock_guard<std::mutex> clk(countersMu_);
        counters_.ckptLoads += farm.loads;
        counters_.ckptBuilds += farm.builds;
        counters_.ckptFallbacks += farm.fallbacks;
    }
    return grid;
}

std::string
Server::handleLine(const std::string &line)
{
    return handleBatch({line})[0];
}

MemoKey
Server::memoKeyFor(const Request &req) const
{
    std::string detail = req.detailKey();
    if (req.engine == "sampled") {
        // The schedule-shaping knobs are fixed at startup, but the
        // memo contract is "equal key => identical payload" across
        // restarts and config changes too, so bake them in.
        sample::SampledOptions so = opts_.sampled;
        so.seed = req.seed;
        detail += "#" + so.key();
    }
    return MemoKey{req.workload, req.engine, std::move(detail)};
}

std::vector<std::string>
Server::handleBatch(const std::vector<std::string> &lines)
{
    std::vector<std::string> responses(lines.size());
    std::vector<ParsedRequest> parsed(lines.size());
    const bool drain = draining();

    // Phase 1: parse everything, answer what needs no engine —
    // malformed lines, drain rejections, memo hits, admin verbs —
    // and collect the one-pass query misses into batch groups.
    //
    // Admission control: each uncached engine evaluation charges
    // its workload's per-batch quota (tenantAdmitQuota; 0 =
    // unlimited). Memo hits and admin verbs are free, and one-pass
    // queries joining an already-admitted group piggyback on its
    // engine call. Beyond the quota the request gets a structured
    // quota_exceeded error instead of queueing engine work.
    std::map<std::string, std::size_t> admitted;
    const auto admitEngine = [&](const std::string &tag) {
        if (opts_.tenantAdmitQuota == 0)
            return true;
        std::size_t &n = admitted[tag];
        if (n >= opts_.tenantAdmitQuota)
            return false;
        ++n;
        return true;
    };
    std::vector<QueryGroup> groups;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        parsed[i] = parseRequest(lines[i]);
        {
            std::lock_guard<std::mutex> clk(countersMu_);
            ++counters_.requests;
        }
        ParsedRequest &p = parsed[i];
        if (!p.ok) {
            std::lock_guard<std::mutex> clk(countersMu_);
            ++counters_.errors;
            responses[i] = errorResponse(
                p.request.id, p.errorCode, p.errorMessage);
            continue;
        }
        const Request &req = p.request;
        const bool needsEngine = req.op == Op::Query ||
                                 req.op == Op::Sweep ||
                                 req.op == Op::Warm;
        if (drain && needsEngine) {
            std::lock_guard<std::mutex> clk(countersMu_);
            ++counters_.rejectedDraining;
            responses[i] = errorResponse(
                req.id, "shutting_down",
                "server is draining; no new work accepted");
            continue;
        }
        switch (req.op) {
        case Op::Ping:
            responses[i] = okResponse(req.id, "", false, 0);
            continue;
        case Op::Stats:
            responses[i] = handleStats(req);
            continue;
        case Op::Metrics:
            responses[i] = handleMetrics(req);
            continue;
        case Op::Warm:
            responses[i] = handleWarm(req);
            continue;
        case Op::Shutdown:
            responses[i] = okResponse(
                req.id, "\"draining\":true", false, 0);
            requestStop();
#if MLC_SERVE_HAVE_SOCKETS
            if (wakePipe_[1] != -1) {
                const char byte = 's';
                [[maybe_unused]] const auto n =
                    write(wakePipe_[1], &byte, 1);
            }
#endif
            continue;
        case Op::Query:
        case Op::Sweep: break;
        }

        // Validation shared by query and sweep.
        std::string why;
        if (!findWorkload(req.workload))
            why = "unknown workload '" + req.workload + "'";
        else if (!validL1Total(req.l1Total, why))
            ;
        else if (req.engine == "sampled" && req.l2Assoc != 0)
            why = "l2_assoc is not supported by the sampled "
                  "engine";
        else if (req.engine == "sampled" && req.l3Size != 0)
            why = "l3 levels are not supported by the sampled "
                  "engine (use onepass or timing)";
        if (why.empty() && req.l3Size != 0)
            validPoint(req.l3Size, req.l3Assoc, why, "l3");
        if (why.empty()) {
            if (req.op == Op::Query) {
                validPoint(req.l2Size, req.l2Assoc, why);
            } else {
                for (const std::uint64_t s : req.sizes)
                    if (!validPoint(s, req.l2Assoc, why))
                        break;
            }
        }
        if (!why.empty()) {
            std::lock_guard<std::mutex> clk(countersMu_);
            ++counters_.errors;
            responses[i] =
                errorResponse(req.id, "bad_request", why);
            continue;
        }

        {
            std::lock_guard<std::mutex> clk(countersMu_);
            if (req.op == Op::Query)
                ++counters_.queries;
            else
                ++counters_.sweeps;
        }

        // Memo replay: byte-identical payload, no engine.
        const MemoKey key = memoKeyFor(req);
        if (const ResultCache::Payload hit = memo_.get(key)) {
            responses[i] = okResponse(req.id, *hit, true, 0);
            continue;
        }

        const auto quotaError = [&](const Request &r) {
            {
                std::lock_guard<std::mutex> clk(countersMu_);
                ++counters_.rejectedQuota;
                ++counters_.errors;
            }
            return errorResponse(
                r.id, "quota_exceeded",
                "workload '" + r.workload +
                    "' exceeded its per-batch engine admission "
                    "quota (" +
                    std::to_string(opts_.tenantAdmitQuota) + ")");
        };

        if (req.op == Op::Sweep) {
            if (!admitEngine(req.workload)) {
                responses[i] = quotaError(req);
                continue;
            }
            const auto t0 = std::chrono::steady_clock::now();
            const expt::DesignSpaceGrid grid = evaluateCells(
                req, req.sizes, req.cycles,
                *findWorkload(req.workload));
            std::string payload = "\"sizes\":[";
            for (std::size_t s = 0; s < req.sizes.size(); ++s)
                payload +=
                    (s ? "," : "") + std::to_string(req.sizes[s]);
            payload += "],\"cycles\":[";
            for (std::size_t c = 0; c < req.cycles.size(); ++c)
                payload +=
                    (c ? "," : "") + std::to_string(req.cycles[c]);
            payload += "],\"grid\":[";
            for (std::size_t s = 0; s < req.sizes.size(); ++s) {
                payload += s ? ",[" : "[";
                for (std::size_t c = 0; c < req.cycles.size();
                     ++c)
                    payload += (c ? "," : "") +
                               jsonNumber(grid.at(s, c));
                payload += "]";
            }
            payload += "]";
            auto shared = std::make_shared<const std::string>(
                std::move(payload));
            memo_.put(key, shared);
            responses[i] =
                okResponse(req.id, *shared, false, elapsedUs(t0));
            continue;
        }

        // A query miss: one-pass queries group into one engine
        // call per (workload, machine knobs); timing/sampled
        // queries stay individual (a union grid would price cells
        // nobody asked for, and those engines pay per cell).
        if (req.engine == "onepass") {
            QueryGroup *group = nullptr;
            for (QueryGroup &g : groups)
                if (g.engine == req.engine &&
                    g.workload == req.workload &&
                    g.batchKey == req.batchKey())
                    group = &g;
            if (!group) {
                if (!admitEngine(req.workload)) {
                    responses[i] = quotaError(req);
                    continue;
                }
                groups.push_back(QueryGroup{
                    req.engine, req.workload, req.batchKey(), {}});
                group = &groups.back();
            }
            group->members.push_back(i);
        } else {
            if (!admitEngine(req.workload)) {
                responses[i] = quotaError(req);
                continue;
            }
            const auto t0 = std::chrono::steady_clock::now();
            const expt::DesignSpaceGrid grid = evaluateCells(
                req, {req.l2Size}, {req.l2Cycles},
                *findWorkload(req.workload));
            auto shared = std::make_shared<const std::string>(
                "\"rel_exec_time\":" + jsonNumber(grid.at(0, 0)));
            memo_.put(key, shared);
            responses[i] =
                okResponse(req.id, *shared, false, elapsedUs(t0));
        }
    }

    // Phase 2: one engine call per group, answers in request
    // order. The union grid is sound for one-pass: the cycle axis
    // is closed-form and every requested size is profiled in the
    // same single pass.
    for (const QueryGroup &group : groups) {
        std::vector<std::uint64_t> usizes;
        std::vector<std::uint32_t> ucycles;
        for (const std::size_t i : group.members) {
            usizes.push_back(parsed[i].request.l2Size);
            ucycles.push_back(parsed[i].request.l2Cycles);
        }
        std::sort(usizes.begin(), usizes.end());
        usizes.erase(std::unique(usizes.begin(), usizes.end()),
                     usizes.end());
        std::sort(ucycles.begin(), ucycles.end());
        ucycles.erase(
            std::unique(ucycles.begin(), ucycles.end()),
            ucycles.end());

        const auto t0 = std::chrono::steady_clock::now();
        const expt::DesignSpaceGrid grid = evaluateCells(
            parsed[group.members[0]].request, usizes, ucycles,
            *findWorkload(group.workload));
        const std::uint64_t us = elapsedUs(t0);
        if (group.members.size() > 1) {
            std::lock_guard<std::mutex> clk(countersMu_);
            counters_.batchedQueries += group.members.size();
        }

        for (const std::size_t i : group.members) {
            const Request &req = parsed[i].request;
            const std::size_t si = static_cast<std::size_t>(
                std::find(usizes.begin(), usizes.end(),
                          req.l2Size) -
                usizes.begin());
            const std::size_t ci = static_cast<std::size_t>(
                std::find(ucycles.begin(), ucycles.end(),
                          req.l2Cycles) -
                ucycles.begin());
            auto shared = std::make_shared<const std::string>(
                "\"rel_exec_time\":" + jsonNumber(grid.at(si, ci)));
            memo_.put(memoKeyFor(req), shared);
            responses[i] = okResponse(req.id, *shared, false, us);
        }
    }
    return responses;
}

std::uint64_t
Server::checkpointEntries(const Workload &wl) const
{
    std::uint64_t entries = 0;
    for (const expt::TraceSpec &spec : wl.store.specs())
        entries += ckptStore_->list(wl.tag + "/" + spec.name).size();
    return entries;
}

MetricsSnapshot
Server::snapshot() const
{
    MetricsSnapshot snap;
    snap.counters = counters();
    snap.memo = memo_.stats();
    snap.profiles = profiles_.stats();
    for (const auto &wl : workloads_)
        snap.workloads.push_back(
            {wl->tag, static_cast<std::uint64_t>(wl->store.size()),
             static_cast<std::uint64_t>(
                 wl->store.residentCount())});
    snap.jobs = static_cast<std::uint64_t>(jobs_);
    snap.shards = static_cast<std::uint64_t>(opts_.shards);
    snap.draining = draining();
    snap.tenantAdmitQuota =
        static_cast<std::uint64_t>(opts_.tenantAdmitQuota);
    if (ckptStore_) {
        snap.haveCheckpoints = true;
        for (const auto &wl : workloads_)
            snap.checkpointEntries += checkpointEntries(*wl);
    }
    return snap;
}

std::string
Server::handleStats(const Request &req)
{
    const MetricsSnapshot snap = snapshot();
    Json body = Json::object();
    {
        const ServerCounters &sc = snap.counters;
        Json c = Json::object();
        c.set("requests", Json(sc.requests));
        c.set("queries", Json(sc.queries));
        c.set("sweeps", Json(sc.sweeps));
        c.set("errors", Json(sc.errors));
        c.set("rejected_draining", Json(sc.rejectedDraining));
        c.set("rejected_quota", Json(sc.rejectedQuota));
        c.set("batched_queries", Json(sc.batchedQueries));
        c.set("engine_runs", Json(sc.engineRuns));
        c.set("connections", Json(sc.connectionsAccepted));
        c.set("ckpt_loads", Json(sc.ckptLoads));
        c.set("ckpt_builds", Json(sc.ckptBuilds));
        c.set("ckpt_fallbacks", Json(sc.ckptFallbacks));
        body.set("counters", std::move(c));
    }
    {
        const ResultCache::Stats &ms = snap.memo;
        Json m = Json::object();
        m.set("hits", Json(ms.hits));
        m.set("misses", Json(ms.misses));
        m.set("insertions", Json(ms.insertions));
        m.set("evictions", Json(ms.evictions));
        m.set("quota_evictions", Json(ms.quotaEvictions));
        m.set("entries", Json(static_cast<std::uint64_t>(
                             ms.entries)));
        m.set("capacity", Json(static_cast<std::uint64_t>(
                              ms.capacity)));
        m.set("tag_quota", Json(static_cast<std::uint64_t>(
                               ms.tagQuota)));
        Json tags = Json::object();
        for (const auto &[tag, n] : ms.tags)
            tags.set(tag, Json(static_cast<std::uint64_t>(n)));
        m.set("tags", std::move(tags));
        body.set("memo", std::move(m));
    }
    {
        const ProfileCache::Stats &ps = snap.profiles;
        Json p = Json::object();
        p.set("hits", Json(ps.hits));
        p.set("misses", Json(ps.misses));
        p.set("evictions", Json(ps.evictions));
        p.set("entries", Json(static_cast<std::uint64_t>(
                             ps.entries)));
        Json kinds = Json::object();
        for (const auto &[kind, k] : ps.kinds) {
            Json kj = Json::object();
            kj.set("hits", Json(k.hits));
            kj.set("misses", Json(k.misses));
            kj.set("evictions", Json(k.evictions));
            kj.set("entries", Json(static_cast<std::uint64_t>(
                                  k.entries)));
            kinds.set(kind, std::move(kj));
        }
        p.set("kinds", std::move(kinds));
        body.set("profiles", std::move(p));
    }
    {
        Json wls = Json::array();
        for (const MetricsWorkload &wl : snap.workloads) {
            Json w = Json::object();
            w.set("tag", Json(wl.tag));
            w.set("traces", Json(wl.traces));
            w.set("resident", Json(wl.resident));
            wls.push(std::move(w));
        }
        body.set("workloads", std::move(wls));
    }
    if (snap.haveCheckpoints) {
        Json ck = Json::object();
        ck.set("dir", Json(opts_.checkpointDir));
        ck.set("entries", Json(snap.checkpointEntries));
        body.set("checkpoints", std::move(ck));
    }
    body.set("jobs", Json(snap.jobs));
    body.set("shards", Json(snap.shards));
    body.set("draining", Json(snap.draining));
    body.set("tenant_admit_quota", Json(snap.tenantAdmitQuota));

    return okResponse(req.id, "\"stats\":" + body.dump(), false,
                      0);
}

std::string
Server::handleMetrics(const Request &req)
{
    return okResponse(req.id,
                      "\"metrics\":" +
                          Json(renderMetrics(snapshot())).dump(),
                      false, 0);
}

std::string
Server::handleWarm(const Request &req)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t resident = 0, total = 0;
    bool found = false;
    for (const auto &wl : workloads_) {
        if (!req.workload.empty() && req.workload != "all" &&
            wl->tag != req.workload)
            continue;
        found = true;
        wl->store.ensureAll(jobs_);
        resident += wl->store.residentCount();
        total += wl->store.size();
    }
    if (!found)
        return errorResponse(req.id, "bad_request",
                             "unknown workload '" + req.workload +
                                 "'");
    return okResponse(req.id,
                      "\"resident\":" + std::to_string(resident) +
                          ",\"traces\":" + std::to_string(total),
                      false, elapsedUs(t0));
}

ServerCounters
Server::counters() const
{
    std::lock_guard<std::mutex> clk(countersMu_);
    return counters_;
}

void
Server::requestStop()
{
    draining_.store(true, std::memory_order_release);
}

#if MLC_SERVE_HAVE_SOCKETS

void
Server::start()
{
    if (opts_.socketPath.empty())
        mlc_fatal("serve: start() needs a socket path");
    sockaddr_un addr{};
    if (opts_.socketPath.size() >= sizeof(addr.sun_path))
        mlc_fatal("serve: socket path too long: ",
                  opts_.socketPath);

    // A dying client mid-write must not kill the server.
    std::signal(SIGPIPE, SIG_IGN);

    listenFd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        mlc_fatal("serve: socket(): ", std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    unlink(opts_.socketPath.c_str()); // stale path from a crash
    if (bind(listenFd_,
             reinterpret_cast<const sockaddr *>(&addr),
             sizeof(addr)) != 0)
        mlc_fatal("serve: bind(", opts_.socketPath,
                  "): ", std::strerror(errno));
    if (listen(listenFd_, 64) != 0)
        mlc_fatal("serve: listen(): ", std::strerror(errno));
    if (pipe(wakePipe_) != 0)
        mlc_fatal("serve: pipe(): ", std::strerror(errno));

    acceptThread_ = std::thread([this] { acceptLoop(); });
    inform("serve: listening on ", opts_.socketPath, " (jobs=",
           jobs_, ", shards=", opts_.shards, ")");
}

void
Server::acceptLoop()
{
    for (;;) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakePipe_[0], POLLIN, 0}};
        const int rc = poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll(): ", std::strerror(errno));
            requestStop();
        }
        if (draining())
            break;
        if (fds[1].revents & POLLIN)
            break; // woken for shutdown
        if (!(fds[0].revents & POLLIN))
            continue;
        const int fd = accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: accept(): ", std::strerror(errno));
            continue;
        }
        {
            std::lock_guard<std::mutex> clk(countersMu_);
            ++counters_.connectionsAccepted;
        }
        std::lock_guard<std::mutex> lk(connMu_);
        connFds_.push_back(fd);
        connThreads_.emplace_back(
            [this, fd] { connectionLoop(fd); });
    }
    requestStop();
}

void
Server::connectionLoop(int fd)
{
    std::string buffer;
    char chunk[65536];
    for (;;) {
        const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break; // EOF, kill/reconnect churn, or half-close
        buffer.append(chunk, static_cast<std::size_t>(n));
        if (buffer.size() > (64u << 20)) {
            // A runaway line is a protocol violation, not a
            // server-death sentence.
            const std::string err = errorResponse(
                "", "bad_request", "request line too large");
            (void)send(fd, (err + "\n").c_str(), err.size() + 1,
                       MSG_NOSIGNAL);
            break;
        }

        // Everything buffered = one batch; this is where
        // pipelined queries collapse into grouped engine calls.
        std::vector<std::string> lines;
        std::size_t start = 0;
        for (;;) {
            const std::size_t nl = buffer.find('\n', start);
            if (nl == std::string::npos)
                break;
            if (nl > start)
                lines.push_back(
                    buffer.substr(start, nl - start));
            start = nl + 1;
        }
        buffer.erase(0, start);
        if (lines.empty())
            continue;

        const std::vector<std::string> responses =
            handleBatch(lines);
        std::string out;
        for (const std::string &r : responses) {
            out += r;
            out += '\n';
        }
        std::size_t sent = 0;
        bool dead = false;
        while (sent < out.size()) {
            const ssize_t w =
                send(fd, out.data() + sent, out.size() - sent,
                     MSG_NOSIGNAL);
            if (w <= 0) {
                dead = true; // client vanished; state unharmed
                break;
            }
            sent += static_cast<std::size_t>(w);
        }
        if (dead)
            break;
    }
    {
        // Unregister before closing: once the slot is -1, stop()
        // will not shutdown() a descriptor number the kernel may
        // have already reused.
        std::lock_guard<std::mutex> lk(connMu_);
        const auto it =
            std::find(connFds_.begin(), connFds_.end(), fd);
        if (it != connFds_.end())
            *it = -1;
    }
    close(fd);
}

void
Server::stop()
{
    std::lock_guard<std::mutex> slk(stopMu_);
    if (stopped_.load(std::memory_order_acquire))
        return;
    requestStop();
    if (acceptThread_.joinable()) {
        const char byte = 'q';
        [[maybe_unused]] const auto n =
            write(wakePipe_[1], &byte, 1);
        acceptThread_.join();
    }
    {
        // Half-close every live connection: its thread finishes
        // the batch it is computing (in-flight work drains), the
        // next recv() returns 0, and the thread exits after
        // flushing its responses.
        std::lock_guard<std::mutex> lk(connMu_);
        for (const int fd : connFds_)
            if (fd != -1)
                shutdown(fd, SHUT_RD);
    }
    for (;;) {
        std::thread t;
        {
            std::lock_guard<std::mutex> lk(connMu_);
            if (connThreads_.empty())
                break;
            t = std::move(connThreads_.back());
            connThreads_.pop_back();
        }
        if (t.joinable())
            t.join();
    }
    if (listenFd_ != -1) {
        close(listenFd_);
        listenFd_ = -1;
        unlink(opts_.socketPath.c_str());
    }
    for (int &fd : wakePipe_) {
        if (fd != -1)
            close(fd);
        fd = -1;
    }
    stopped_.store(true, std::memory_order_release);
}

void
Server::join()
{
    // The accept loop exits on a shutdown verb or signal wake;
    // stop() is safe to call redundantly and performs the actual
    // teardown exactly once.
    if (acceptThread_.joinable())
        acceptThread_.join();
    stop();
}

namespace {

std::atomic<Server *> g_signal_server{nullptr};
std::atomic<int> g_signal_wake_fd{-1};

extern "C" void
serveSignalHandler(int)
{
    // Async-signal-safe: flip the flag, poke the accept loop.
    Server *server =
        g_signal_server.load(std::memory_order_acquire);
    if (server)
        server->requestStop();
    const int fd = g_signal_wake_fd.load(std::memory_order_acquire);
    if (fd != -1) {
        const char byte = 'i';
        [[maybe_unused]] const auto n = write(fd, &byte, 1);
    }
}

} // namespace

void
installSignalHandlers(Server *server)
{
    g_signal_server.store(server, std::memory_order_release);
    g_signal_wake_fd.store(server ? server->wakeFd() : -1,
                           std::memory_order_release);
    struct sigaction sa{};
    if (server) {
        sa.sa_handler = serveSignalHandler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = 0;
    } else {
        sa.sa_handler = SIG_DFL;
    }
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

int
runServer(const ServerOptions &opts)
{
    Server server(opts);
    server.start();
    // The signal handler needs the wake fd; expose it after
    // start() created the pipe.
    installSignalHandlers(&server);
    server.join();
    installSignalHandlers(nullptr);
    inform("serve: drained and stopped");
    return 0;
}

#else // !MLC_SERVE_HAVE_SOCKETS

void
Server::start()
{
    mlc_fatal("serve: sockets unsupported on this platform; the "
              "in-process handleLine entry points still work");
}

void
Server::acceptLoop()
{
}

void
Server::connectionLoop(int)
{
}

void
Server::stop()
{
    requestStop();
    stopped_.store(true, std::memory_order_release);
}

void
Server::join()
{
}

void
installSignalHandlers(Server *)
{
}

int
runServer(const ServerOptions &)
{
    mlc_fatal("serve: sockets unsupported on this platform");
}

#endif // MLC_SERVE_HAVE_SOCKETS

} // namespace serve
} // namespace mlc
