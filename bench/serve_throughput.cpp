/**
 * @file
 * Throughput, latency and correctness gates for the what-if query
 * server (src/serve/) — the top-line serving benchmark.
 *
 * One in-process server on a unix-domain socket, driven through
 * the same loadgen the mlc_client example uses. Phases:
 *
 *  1. warm: materialize the grid workload's traces (the warm verb);
 *  2. cold vs memo: one never-asked config (cold: pays a profile
 *     pass), then the same config repeatedly (memo hits). Gate:
 *     memoized p99 at least --min-ratio (50x) faster than the cold
 *     query — the entire point of keeping state resident;
 *  3. identity: C concurrent clients replay seeded Zipf streams
 *     against the cold server, then one client replays the same
 *     streams serially; every response must be byte-identical
 *     (volatile cached/compute_us fields stripped). Always
 *     enforced — this is the determinism contract;
 *  4. throughput: the concurrent phase's queries/sec, p50/p99 and
 *     client-observed cache hit ratio, reported as the JSON
 *     record;
 *  5. kill/reconnect: a client writes queries and vanishes without
 *     reading; a fresh connection then re-asks known configs and
 *     must still see bit-identical results (resident state
 *     survives churn);
 *  6. graceful shutdown via the protocol verb; the server must
 *     drain and join cleanly.
 *
 * The latency gate reports "skipped_hw_threads" (not fail) on hosts
 * with too few hardware threads and "disabled" at --min-ratio=0; the
 * identity gates always gate the exit code.
 *
 *   $ ./serve_throughput [--clients=N] [--requests=N] [--seed=N]
 *                        [--min-ratio=X] [--jobs=N]
 *
 * MLC_QUICK scales the workload suite like every other bench.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "engines/engines.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "util/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#define MLC_BENCH_HAVE_SOCKETS 1
#include <unistd.h>
#else
#define MLC_BENCH_HAVE_SOCKETS 0
#endif

using namespace mlc;

#if MLC_BENCH_HAVE_SOCKETS

namespace {

double
usSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - t0)
                   .count()) /
           1e3;
}

/** Send one line, block for the reply, return microseconds. */
double
roundTrip(serve::LineClient &client, const std::string &line,
          std::string &resp)
{
    const auto t0 = std::chrono::steady_clock::now();
    if (!client.sendLine(line) || !client.recvLine(resp))
        mlc_fatal("serve_throughput: server hung up mid-query");
    return usSince(t0);
}

/** Extract "id":"..." from a response line (every stream query
 *  carries a unique client-side id). */
std::string
responseId(const std::string &resp)
{
    const std::size_t at = resp.find("\"id\":\"");
    if (at == std::string::npos)
        return "";
    const std::size_t begin = at + 6;
    const std::size_t end = resp.find('"', begin);
    return resp.substr(begin, end - begin);
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** Replay @p lines closed-loop on one fresh connection, recording
 *  id -> stripped response and every round-trip latency. */
void
replayStream(const std::string &socket,
             const std::vector<std::string> &lines,
             std::map<std::string, std::string> &out,
             std::vector<double> &latencies,
             std::uint64_t &cached, std::uint64_t &errors)
{
    serve::LineClient client(socket);
    std::string resp;
    for (const std::string &line : lines) {
        latencies.push_back(roundTrip(client, line, resp));
        if (resp.find("\"ok\":true") == std::string::npos)
            ++errors;
        if (resp.find("\"cached\":true") != std::string::npos)
            ++cached;
        out[responseId(resp)] = serve::stripVolatile(resp);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t clients = 4;
    std::size_t requests = 150;
    std::uint64_t seed = 1;
    double min_ratio = 50.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--clients=", 0) == 0)
            clients = std::strtoull(arg.c_str() + 10, nullptr, 0);
        else if (arg.rfind("--requests=", 0) == 0)
            requests = std::strtoull(arg.c_str() + 11, nullptr, 0);
        else if (arg.rfind("--seed=", 0) == 0)
            seed = std::strtoull(arg.c_str() + 7, nullptr, 0);
        else if (arg.rfind("--min-ratio=", 0) == 0)
            min_ratio = bench::gateFloor(arg);
    }
    const std::size_t jobs = engines::parseArgs(argc, argv).jobs;

    const std::string socket = "/tmp/mlc_serve_bench." +
                               std::to_string(getpid()) + ".sock";
    serve::ServerOptions sopts;
    sopts.socketPath = socket;
    sopts.jobs = jobs;
    serve::Server server(sopts);
    server.start();

    // --- Phase 1: warm the workload ------------------------------
    std::cerr << "serve_throughput: warming grid traces...\n";
    std::string resp;
    {
        serve::LineClient warm(socket);
        roundTrip(warm, "{\"op\":\"warm\",\"workload\":\"grid\"}",
                  resp);
        if (resp.find("\"ok\":true") == std::string::npos)
            mlc_fatal("warm verb failed: ", resp);
    }

    // --- Phase 2: cold query vs memoized hits --------------------
    // A config outside the Zipf streams' universe is not needed —
    // cold just means "never asked yet on this server".
    const std::string cold_query =
        "{\"op\":\"query\",\"engine\":\"onepass\","
        "\"workload\":\"grid\",\"l2_size\":2097152,"
        "\"l2_cycles\":7,\"id\":\"cold\"}";
    std::cerr << "  cold query (profile pass)...\n";
    serve::LineClient probe(socket);
    const double cold_us = roundTrip(probe, cold_query, resp);
    const std::string cold_result = serve::stripVolatile(resp);
    if (resp.find("\"ok\":true") == std::string::npos)
        mlc_fatal("cold query failed: ", resp);

    const std::size_t hot_n = 200;
    std::vector<double> hot_lat;
    hot_lat.reserve(hot_n);
    bool hot_identical = true;
    for (std::size_t i = 0; i < hot_n; ++i) {
        hot_lat.push_back(roundTrip(probe, cold_query, resp));
        hot_identical = hot_identical &&
                        serve::stripVolatile(resp) == cold_result;
    }
    std::sort(hot_lat.begin(), hot_lat.end());
    const double hot_p50 = percentile(hot_lat, 0.50);
    const double hot_p99 = percentile(hot_lat, 0.99);
    const double ratio = hot_p99 > 0.0 ? cold_us / hot_p99 : 0.0;

    // --- Phase 3: concurrent clients vs serial replay ------------
    serve::LoadGenOptions lopts;
    lopts.socketPath = socket;
    lopts.clients = clients;
    lopts.requests = requests;
    lopts.seed = seed;
    std::vector<std::vector<std::string>> streams;
    for (std::size_t c = 0; c < clients; ++c)
        streams.push_back(serve::queryStream(lopts, c, requests));

    std::cerr << "  concurrent phase (" << clients << " clients x "
              << requests << " requests)...\n";
    std::map<std::string, std::string> concurrent_results;
    std::vector<double> load_lat;
    std::uint64_t load_cached = 0, load_errors = 0;
    const auto load_t0 = std::chrono::steady_clock::now();
    {
        std::mutex mu;
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients; ++c)
            threads.emplace_back([&, c] {
                std::map<std::string, std::string> mine;
                std::vector<double> lat;
                std::uint64_t cached = 0, errors = 0;
                replayStream(socket, streams[c], mine, lat,
                             cached, errors);
                std::lock_guard<std::mutex> lk(mu);
                concurrent_results.insert(mine.begin(),
                                          mine.end());
                load_lat.insert(load_lat.end(), lat.begin(),
                                lat.end());
                load_cached += cached;
                load_errors += errors;
            });
        for (std::thread &t : threads)
            t.join();
    }
    const double load_sec = usSince(load_t0) / 1e6;
    const std::uint64_t load_total =
        static_cast<std::uint64_t>(clients) * requests;

    std::cerr << "  serial replay (identity check)...\n";
    std::map<std::string, std::string> serial_results;
    std::vector<double> serial_lat;
    std::uint64_t serial_cached = 0, serial_errors = 0;
    for (std::size_t c = 0; c < clients; ++c)
        replayStream(socket, streams[c], serial_results,
                     serial_lat, serial_cached, serial_errors);

    bool identity = concurrent_results.size() == load_total &&
                    serial_results.size() == load_total;
    if (identity)
        for (const auto &[id, body] : serial_results) {
            const auto it = concurrent_results.find(id);
            if (it == concurrent_results.end() ||
                it->second != body) {
                std::cerr << "  MISMATCH (identity): id " << id
                          << "\n    concurrent: "
                          << (it == concurrent_results.end()
                                  ? "<missing>"
                                  : it->second)
                          << "\n    serial:     " << body << "\n";
                identity = false;
                break;
            }
        }

    // --- Phase 4: kill/reconnect churn ---------------------------
    std::cerr << "  kill/reconnect phase...\n";
    for (int round = 0; round < 3; ++round) {
        serve::LineClient doomed(socket);
        for (std::size_t i = 0; i < 8 && i < streams[0].size();
             ++i)
            doomed.sendLine(streams[0][i]);
        // Destructor closes the socket with every response unread:
        // the server's write fails mid-reply and must shrug.
    }
    bool reconnect_identity = true;
    {
        std::map<std::string, std::string> again;
        std::vector<double> lat;
        std::uint64_t cached = 0, errors = 0;
        replayStream(socket, streams[0], again, lat, cached,
                     errors);
        reconnect_identity = errors == 0;
        for (const auto &[id, body] : again) {
            const auto it = serial_results.find(id);
            if (it == serial_results.end() || it->second != body) {
                std::cerr << "  MISMATCH (reconnect): id " << id
                          << "\n";
                reconnect_identity = false;
                break;
            }
        }
    }

    // --- Phase 5: graceful shutdown ------------------------------
    roundTrip(probe, "{\"op\":\"shutdown\",\"id\":\"bye\"}", resp);
    const bool drained =
        resp.find("\"draining\":true") != std::string::npos;
    server.join();

    std::sort(load_lat.begin(), load_lat.end());
    const double qps =
        load_sec > 0.0
            ? static_cast<double>(load_total) / load_sec
            : 0.0;
    const double hit_ratio =
        load_total > 0
            ? static_cast<double>(load_cached) /
                  static_cast<double>(load_total)
            : 0.0;
    const bench::GateStatus latency_gate =
        bench::gateStatus(min_ratio, 2);
    const bool available = load_errors == 0 && serial_errors == 0;

    std::cout << "{\"clients\":" << clients
              << ",\"requests_per_client\":" << requests
              << ",\"seed\":" << seed << ",\"jobs\":" << jobs
              << ",\"queries_per_sec\":" << qps
              << ",\"p50_us\":" << percentile(load_lat, 0.50)
              << ",\"p99_us\":" << percentile(load_lat, 0.99)
              << ",\"cache_hit_ratio\":" << hit_ratio
              << ",\"cold_us\":" << cold_us
              << ",\"memo_p50_us\":" << hot_p50
              << ",\"memo_p99_us\":" << hot_p99
              << ",\"cold_over_memo_p99\":" << ratio
              << ",\"min_ratio\":" << min_ratio
              << ",\"latency_gate\":\"" << latency_gate.name()
              << "\",\"identity\":"
              << (identity ? "true" : "false")
              << ",\"memo_identical\":"
              << (hot_identical ? "true" : "false")
              << ",\"reconnect_identity\":"
              << (reconnect_identity ? "true" : "false")
              << ",\"available\":" << (available ? "true" : "false")
              << ",\"drained\":" << (drained ? "true" : "false")
              << ",\"hw_threads\":" << latency_gate.hwThreads
              << ",\"max_rss_kb\":" << bench::maxRssJson() << ","
              << bench::provenanceJson() << "}\n";

    if (!identity)
        mlc_fatal("concurrent results diverge from the serial "
                  "replay");
    if (!hot_identical)
        mlc_fatal("memoized responses diverge from the cold "
                  "result");
    if (!reconnect_identity)
        mlc_fatal("post-churn queries diverge: resident state was "
                  "corrupted by the kill/reconnect phase");
    if (!available)
        mlc_fatal("queries failed during the load phases");
    if (!drained)
        mlc_fatal("shutdown verb did not report draining");
    if (latency_gate.enforced() && ratio < min_ratio)
        mlc_fatal("memoized-hit p99 only ", ratio,
                  "x faster than the cold query (gate ", min_ratio,
                  "x)");
    std::cerr << "  ok: " << qps << " q/s, memo p99 "
              << hot_p99 << " us, cold/memo " << ratio
              << "x, latency gate " << latency_gate.reason() << "\n";
    return 0;
}

#else // !MLC_BENCH_HAVE_SOCKETS

int
main()
{
    std::cout << "{\"serve_throughput\":\"skipped\","
                 "\"reason\":\"no unix sockets on this "
                 "platform\"}\n";
    return 0;
}

#endif // MLC_BENCH_HAVE_SOCKETS
