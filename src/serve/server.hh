/**
 * @file
 * The what-if query server: the simulator as a long-running
 * service.
 *
 * Every question this codebase can answer — "CPI / relative
 * execution time for config X on workload Y" via the timing,
 * one-pass or sampled engines — used to cost a process launch, a
 * trace materialization and a cold engine run. serve::Server keeps
 * the hot state resident instead and answers queries over a local
 * (unix-domain) socket:
 *
 *  - workloads are lazily materialized TraceStores (deferred mode,
 *    once-per-trace latch) shared read-only by every query;
 *  - one-pass ghost profiles stay resident in a ProfileCache, so
 *    the expensive pass is paid once per (workload, family) and
 *    every later query or sweep over that family is a closed-form
 *    lookup;
 *  - completed results are memoized in a multi-tenant ResultCache
 *    (per-workload tags, LRU within tag, capacity-bounded) and
 *    replayed byte-identically;
 *  - requests pipelined on one connection are handled as a batch:
 *    one-pass queries sharing their non-grid knobs collapse into a
 *    single profile+grid evaluation, and the sweep verb prices a
 *    whole (sizes x cycles) family in one engine call on the
 *    shared ThreadPool (jobs/shards fixed at startup, so results
 *    are bit-identical to any other jobs/shards setting and to
 *    single-client serial operation).
 *
 * Concurrency model: each connection gets a thread; engine
 * executions serialize on one mutex (the engines parallelize
 * *internally* across the pool — two concurrent grid builds would
 * fight over the same cores and the pool's batch state), while
 * memoized hits bypass it entirely. Graceful shutdown (SIGINT /
 * SIGTERM / the shutdown verb) drains in-flight batches, rejects
 * new work with a structured "shutting_down" error, and exits 0.
 */

#ifndef MLC_SERVE_SERVER_HH
#define MLC_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/store.hh"
#include "expt/design_space.hh"
#include "expt/workload_suite.hh"
#include "hier/hierarchy_config.hh"
#include "sample/scheduler.hh"
#include "serve/profile_cache.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace serve {

struct MetricsSnapshot;

/** Startup configuration for a Server. */
struct ServerOptions
{
    /** Unix-domain socket path; empty disables the listener (the
     *  in-process handleLine/handleBatch entry points still work —
     *  that is what most tests use). */
    std::string socketPath;
    /** Engine worker threads (0 = defaultJobs()). */
    std::size_t jobs = 0;
    /** One-pass set-partition shards (ProfileOptions::shards). */
    std::size_t shards = 1;
    /** Result-memo capacity in entries. */
    std::size_t memoCapacity = 4096;
    /** Resident (workload x family) ghost-profile slots. */
    std::size_t profileCapacity = 8;
    /** Extra file-backed workloads: path to an .mlct/.mlcz/.din
     *  trace; the tag is the file stem. A `<path>.warm.json`
     *  sidecar written by `trace_tools warm` supplies the warm-up
     *  split without touching the trace bytes. */
    std::vector<std::string> traceFiles;
    /** Sampled-engine defaults (seed comes per-request). */
    sample::SampledOptions sampled;
    /**
     * Checkpoint-farm root directory (empty = no persistence).
     * With a farm attached, sampled sweeps load live-points from
     * disk instead of functional warming when a matching entry
     * exists, and tee new entries when one does not — so the first
     * sampled request per (workload, schedule, family) pays the
     * warm, and every later one (including after a restart)
     * replays. Farms are built offline with `trace_tools ckpt
     * build` or implicitly by the tee.
     */
    std::string checkpointDir;
    /** Per-tenant memo admission quota: max resident ResultCache
     *  entries per workload tag (0 = unlimited; see
     *  ResultCache::setTagQuota). */
    std::size_t memoTagQuota = 0;
    /**
     * Per-tenant engine admission quota: max uncached engine
     * evaluations one workload may be granted within a single
     * pipelined batch (0 = unlimited). Requests beyond the quota
     * get a structured `quota_exceeded` error instead of queueing
     * engine work — admission control, so one tenant's pipelined
     * burst cannot monopolize the engine mutex. Memo hits and
     * admin verbs are never charged.
     */
    std::size_t tenantAdmitQuota = 0;
};

/** Monotonic counters reported by the stats verb. */
struct ServerCounters
{
    std::uint64_t requests = 0;
    std::uint64_t queries = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t errors = 0;
    std::uint64_t rejectedDraining = 0;
    std::uint64_t rejectedQuota = 0; //!< quota_exceeded errors
    std::uint64_t batchedQueries = 0; //!< answered via a grouped call
    std::uint64_t engineRuns = 0;
    std::uint64_t connectionsAccepted = 0;
    /** @{ @name Checkpoint-farm traffic (sampled sweeps) */
    std::uint64_t ckptLoads = 0;     //!< sweeps served from a farm
    std::uint64_t ckptBuilds = 0;    //!< farm entries published
    std::uint64_t ckptFallbacks = 0; //!< misses that re-warmed
    /** @} */
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + start the accept loop. Fatal on socket
     *  errors. Requires a non-empty socketPath. */
    void start();

    /** Begin draining: reject new query/sweep/warm work with a
     *  structured error. Idempotent; does not tear sockets down
     *  (stop() does). Called by the shutdown verb and the signal
     *  path. */
    void requestStop();

    /** Full graceful shutdown: requestStop(), wake the accept
     *  loop, half-close live connections so their threads flush
     *  in-flight responses and exit, join everything, remove the
     *  socket file. Safe to call more than once. */
    void stop();

    /** Block until stop() has completed (the signal path or a
     *  shutdown request triggers it asynchronously). */
    void join();

    bool draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    /** @{ @name In-process request entry (tests, tooling)
     * Exactly the connection handler's path minus the socket:
     * parse, batch, dispatch, serialize. */
    std::string handleLine(const std::string &line);
    std::vector<std::string>
    handleBatch(const std::vector<std::string> &lines);
    /** @} */

    ServerCounters counters() const;
    /** Counters, caches, workloads and checkpoint entries at one
     *  instant: what the stats and metrics verbs both render. */
    MetricsSnapshot snapshot() const;
    const ServerOptions &options() const { return opts_; }
    /** Write end of the accept loop's self-pipe (-1 before
     *  start()). The signal handler writes one byte here so
     *  requestStop() is actually noticed by the blocked poll. */
    int wakeFd() const { return wakePipe_[1]; }

  private:
    struct Workload
    {
        std::string tag;
        expt::TraceStore store;
        Workload(std::string t, expt::TraceStore s)
            : tag(std::move(t)), store(std::move(s))
        {
        }
    };

    /** Requests grouped for one engine invocation. */
    struct QueryGroup
    {
        std::string engine;
        std::string workload;
        std::string batchKey;
        std::vector<std::size_t> members; //!< indices into batch
    };

    void registerBuiltinWorkloads();
    void registerTraceFile(const std::string &path);
    Workload *findWorkload(const std::string &tag);
    /** Checkpoint farm entries held for @p wl's traces; needs
     *  ckptStore_. */
    std::uint64_t checkpointEntries(const Workload &wl) const;

    /** Base machine with the request's L1/assoc knobs applied. */
    static hier::HierarchyParams baseFor(const Request &req);

    /** Price every (size x cycle) cell for one workload with the
     *  requested engine — the single choke point every verb's
     *  evaluation funnels through (one engines::buildGrid call per
     *  group, one-pass profiles served from the ProfileCache). Cell
     *  values are independent of which other cells share the call,
     *  which is what makes batching and the sweep verb
     *  bit-identical to one-at-a-time queries. Holds engineMu_ for
     *  the duration. */
    expt::DesignSpaceGrid
    evaluateCells(const Request &req,
                  const std::vector<std::uint64_t> &sizes,
                  const std::vector<std::uint32_t> &cycles,
                  Workload &wl);

    /** Full memo identity of @p req, folding the server's sampled
     *  schedule knobs in for sampled requests (see
     *  sample::SampledOptions::key()). */
    MemoKey memoKeyFor(const Request &req) const;

    std::string handleStats(const Request &req);
    std::string handleMetrics(const Request &req);
    std::string handleWarm(const Request &req);

    /** The accept loop (own thread once start() ran). */
    void acceptLoop();
    /** One connection's read-batch-respond loop. */
    void connectionLoop(int fd);

    ServerOptions opts_;
    std::size_t jobs_;

    std::vector<std::unique_ptr<Workload>> workloads_;
    ResultCache memo_;
    ProfileCache profiles_;
    /** Non-null when opts_.checkpointDir is set. Const-thread-safe;
     *  sampled evaluateCells threads farm policies through it. */
    std::unique_ptr<ckpt::CheckpointStore> ckptStore_;

    /** Serializes engine executions (see file comment). */
    std::mutex engineMu_;

    mutable std::mutex countersMu_;
    ServerCounters counters_;

    std::atomic<bool> draining_{false};
    std::atomic<bool> stopped_{false};

    /** @{ @name Listener state (valid after start()) */
    int listenFd_ = -1;
    int wakePipe_[2] = {-1, -1};
    std::thread acceptThread_;
    std::mutex connMu_;
    std::vector<int> connFds_;
    std::vector<std::thread> connThreads_;
    std::mutex stopMu_; //!< makes stop() idempotent across threads
    /** @} */
};

/**
 * Install SIGINT/SIGTERM handlers that gracefully stop @p server
 * (self-pipe wakeup; the handler itself only flips a flag and
 * writes one byte). Pass nullptr to uninstall. One server at a
 * time.
 */
void installSignalHandlers(Server *server);

/** mlc_serve's main body: start, serve until a signal or a
 *  shutdown request, return the process exit code (0 on graceful
 *  shutdown). */
int runServer(const ServerOptions &opts);

} // namespace serve
} // namespace mlc

#endif // MLC_SERVE_SERVER_HH
