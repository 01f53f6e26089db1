/** @file
 * Tests for the what-if query server: the in-process request path
 * (parse/batch/memo/engine) and the socket end-to-end loop.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/json.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "trace/binary.hh"
#include "trace/interleave.hh"
#include "trace/source.hh"

#if defined(__unix__) || defined(__APPLE__)
#define MLC_TEST_HAVE_SOCKETS 1
#include <unistd.h>
#else
#define MLC_TEST_HAVE_SOCKETS 0
#endif

namespace mlc {
namespace serve {
namespace {

/** Engine runs in tests replay heavily shortened traces. */
void
quickEnv()
{
    ASSERT_EQ(setenv("MLC_QUICK", "32", 1), 0);
}

Json
parseResponse(const std::string &line)
{
    Json doc;
    std::string error;
    EXPECT_TRUE(Json::parse(line, doc, error))
        << line << ": " << error;
    return doc;
}

double
relExecOf(const std::string &response)
{
    const Json doc = parseResponse(response);
    const Json *v = doc.find("rel_exec_time");
    EXPECT_NE(v, nullptr) << response;
    return v ? v->asNumber() : -1.0;
}

TEST(Server, PingStatsAndErrorsNeedNoEngine)
{
    Server server(ServerOptions{});
    EXPECT_EQ(server.handleLine("{\"op\":\"ping\",\"id\":\"p\"}"),
              "{\"id\":\"p\",\"ok\":true,\"cached\":false,"
              "\"compute_us\":0}");

    const std::string stats =
        server.handleLine("{\"op\":\"stats\"}");
    const Json doc = parseResponse(stats);
    ASSERT_NE(doc.find("stats"), nullptr);
    const Json *wls = doc.find("stats")->find("workloads");
    ASSERT_NE(wls, nullptr);
    // Builtins registered, nothing materialized at startup.
    ASSERT_EQ(wls->asArray().size(), 2u);
    EXPECT_EQ(wls->asArray()[0].find("tag")->asString(), "grid");
    EXPECT_EQ(wls->asArray()[0].find("resident")->asU64(), 0u);

    const std::string bad = server.handleLine("{\"op\":\"nope\"}");
    EXPECT_NE(bad.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(bad.find("bad_request"), std::string::npos);
    const std::string junk = server.handleLine("not json");
    EXPECT_NE(junk.find("bad_json"), std::string::npos);
}

TEST(Server, RejectsWhatTheEnginesWouldPanicOn)
{
    Server server(ServerOptions{});
    const auto expectBad = [&](const std::string &line,
                               const char *needle) {
        const std::string resp = server.handleLine(line);
        EXPECT_NE(resp.find("\"ok\":false"), std::string::npos)
            << resp;
        EXPECT_NE(resp.find(needle), std::string::npos) << resp;
    };
    expectBad("{\"op\":\"query\",\"l2_size\":3000,"
              "\"l2_cycles\":1}",
              "powers of two");
    expectBad("{\"op\":\"query\",\"l2_size\":4096,"
              "\"l2_cycles\":1,\"l2_assoc\":3}",
              "power of two");
    expectBad("{\"op\":\"query\",\"l2_size\":64,\"l2_cycles\":1,"
              "\"l2_assoc\":4}",
              "below one set");
    expectBad("{\"op\":\"query\",\"l2_size\":4096,"
              "\"l2_cycles\":1,\"l1_total\":96}",
              "l1_total");
    expectBad("{\"op\":\"query\",\"engine\":\"sampled\","
              "\"l2_size\":4096,\"l2_cycles\":1,\"l2_assoc\":2}",
              "not supported");
    expectBad("{\"op\":\"query\",\"workload\":\"nope\","
              "\"l2_size\":4096,\"l2_cycles\":1}",
              "unknown workload");
    expectBad("{\"op\":\"sweep\",\"sizes\":[4096,5000],"
              "\"cycles\":[1,2]}",
              "powers of two");
    // A validation error must not poison later valid requests.
    EXPECT_NE(server.handleLine("{\"op\":\"ping\"}")
                  .find("\"ok\":true"),
              std::string::npos);
}

TEST(Server, MemoReplaysByteIdentically)
{
    quickEnv();
    Server server(ServerOptions{});
    const std::string q =
        "{\"op\":\"query\",\"l2_size\":262144,\"l2_cycles\":3,"
        "\"id\":\"q\"}";
    const std::string cold = server.handleLine(q);
    EXPECT_NE(cold.find("\"cached\":false"), std::string::npos);
    const std::string hot = server.handleLine(q);
    EXPECT_NE(hot.find("\"cached\":true"), std::string::npos);
    EXPECT_EQ(stripVolatile(cold), stripVolatile(hot));
    const ServerCounters c = server.counters();
    EXPECT_EQ(c.queries, 2u);
    EXPECT_EQ(c.engineRuns, 1u) << "second ask must not compute";
}

TEST(Server, SweepQueryAndBatchAgreeCellForCell)
{
    quickEnv();
    Server server(ServerOptions{});
    // One sweep, then the same cells as individual queries and as
    // a pipelined batch: all three views of a cell must agree
    // bitwise (the determinism contract batching relies on).
    const std::string sweep = server.handleLine(
        "{\"op\":\"sweep\",\"sizes\":[4096,16384],"
        "\"cycles\":[2,5],\"id\":\"s\"}");
    const Json doc = parseResponse(sweep);
    ASSERT_NE(doc.find("grid"), nullptr) << sweep;
    const auto &grid = doc.find("grid")->asArray();
    ASSERT_EQ(grid.size(), 2u);

    const std::vector<std::string> queries = {
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":2}",
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":5}",
        "{\"op\":\"query\",\"l2_size\":16384,\"l2_cycles\":2}",
        "{\"op\":\"query\",\"l2_size\":16384,\"l2_cycles\":5}",
    };
    std::vector<std::string> individual;
    for (const std::string &q : queries)
        individual.push_back(server.handleLine(q));
    for (std::size_t s = 0; s < 2; ++s)
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_EQ(grid[s].asArray()[c].asNumber(),
                      relExecOf(individual[s * 2 + c]))
                << "cell " << s << "," << c;

    // Fresh server: the same four queries pipelined in one batch
    // (one engine call) must reproduce the individual answers.
    Server batched(ServerOptions{});
    const std::vector<std::string> responses =
        batched.handleBatch(queries);
    ASSERT_EQ(responses.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(stripVolatile(responses[i]),
                  stripVolatile(individual[i]));
    const ServerCounters c = batched.counters();
    EXPECT_EQ(c.engineRuns, 1u)
        << "compatible queries must collapse into one run";
    EXPECT_EQ(c.batchedQueries, 4u);
}

TEST(Server, BatchKeepsIncompatibleQueriesApart)
{
    quickEnv();
    Server server(ServerOptions{});
    // Different l2_assoc => different machine => separate engine
    // calls; responses still come back in request order.
    const std::vector<std::string> responses = server.handleBatch({
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":2,"
        "\"id\":\"a\"}",
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":2,"
        "\"l2_assoc\":2,\"id\":\"b\"}",
        "{\"op\":\"ping\",\"id\":\"c\"}",
    });
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_NE(responses[0].find("\"id\":\"a\""),
              std::string::npos);
    EXPECT_NE(responses[1].find("\"id\":\"b\""),
              std::string::npos);
    EXPECT_NE(responses[2].find("\"id\":\"c\""),
              std::string::npos);
    EXPECT_EQ(server.counters().engineRuns, 2u);
    EXPECT_EQ(server.counters().batchedQueries, 0u);
    EXPECT_NE(relExecOf(responses[0]), relExecOf(responses[1]))
        << "associativity must change the answer";
}

TEST(Server, ThreeLevelQueriesUseTheCascadeEngine)
{
    quickEnv();
    Server server(ServerOptions{});
    const std::string l3 =
        ",\"l3_size\":2097152,\"l3_cycles\":6,\"l3_assoc\":4";

    // Depth-3 onepass queries sharing their l3 knobs collapse
    // into one cascade pass, like depth-2 ones do.
    const std::vector<std::string> queries = {
        "{\"op\":\"query\",\"l2_size\":65536,\"l2_cycles\":2" +
            l3 + "}",
        "{\"op\":\"query\",\"l2_size\":262144,\"l2_cycles\":5" +
            l3 + "}",
    };
    const std::vector<std::string> batch =
        server.handleBatch(queries);
    ASSERT_EQ(batch.size(), 2u);
    for (const std::string &r : batch) {
        EXPECT_GT(relExecOf(r), 0.0) << r;
        EXPECT_NE(r.find("\"cached\":false"), std::string::npos);
    }
    EXPECT_EQ(server.counters().engineRuns, 1u)
        << "compatible depth-3 queries must share one cascade run";

    // Replays are memo hits; a sweep over the same pivots is a
    // profile-cache hit (no new pass) and must agree cell for
    // cell with the queries.
    EXPECT_NE(server.handleLine(queries[0])
                  .find("\"cached\":true"),
              std::string::npos);
    const std::string sweep = server.handleLine(
        "{\"op\":\"sweep\",\"sizes\":[65536,262144],"
        "\"cycles\":[2,5]" + l3 + "}");
    const Json doc = parseResponse(sweep);
    ASSERT_NE(doc.find("grid"), nullptr) << sweep;
    const auto &grid = doc.find("grid")->asArray();
    EXPECT_EQ(grid[0].asArray()[0].asNumber(),
              relExecOf(batch[0]));
    EXPECT_EQ(grid[1].asArray()[1].asNumber(),
              relExecOf(batch[1]));

    // The cascade traffic lands in its own profile-cache bucket.
    const Json stats =
        parseResponse(server.handleLine("{\"op\":\"stats\"}"));
    const Json *kinds =
        stats.find("stats")->find("profiles")->find("kinds");
    ASSERT_NE(kinds, nullptr);
    const Json *cascade = kinds->find("cascade");
    ASSERT_NE(cascade, nullptr);
    EXPECT_EQ(cascade->find("misses")->asU64(), 1u);
    EXPECT_GE(cascade->find("hits")->asU64(), 1u);
    EXPECT_EQ(cascade->find("entries")->asU64(), 1u);

    // A depth-2 query must neither alias the depth-3 memo nor its
    // profile bucket.
    const std::string flat = server.handleLine(
        "{\"op\":\"query\",\"l2_size\":65536,\"l2_cycles\":2}");
    EXPECT_NE(flat.find("\"cached\":false"), std::string::npos);
    EXPECT_NE(relExecOf(flat), relExecOf(batch[0]))
        << "the L3 must change the modelled time";
}

TEST(Server, ThreeLevelTimingAndValidation)
{
    quickEnv();
    Server server(ServerOptions{});
    const std::string l3 =
        ",\"l3_size\":1048576,\"l3_cycles\":5,\"l3_assoc\":2";
    const std::string timing = server.handleLine(
        "{\"op\":\"query\",\"engine\":\"timing\","
        "\"l2_size\":65536,\"l2_cycles\":3" + l3 + "}");
    const double rel = relExecOf(timing);
    EXPECT_GT(rel, 0.0);
    EXPECT_LT(rel, 10.0);

    const auto expectBad = [&](const std::string &line,
                               const char *needle) {
        const std::string resp = server.handleLine(line);
        EXPECT_NE(resp.find("\"ok\":false"), std::string::npos)
            << resp;
        EXPECT_NE(resp.find(needle), std::string::npos) << resp;
    };
    expectBad("{\"op\":\"query\",\"engine\":\"sampled\","
              "\"l2_size\":4096,\"l2_cycles\":1" + l3 + "}",
              "not supported");
    expectBad("{\"op\":\"query\",\"l2_size\":4096,"
              "\"l2_cycles\":1,\"l3_size\":3000,"
              "\"l3_cycles\":5}",
              "l3 sizes must be powers of two");
    expectBad("{\"op\":\"query\",\"l2_size\":4096,"
              "\"l2_cycles\":1,\"l3_size\":65536}",
              "l3_cycles");
}

TEST(Server, TimingEngineAnswersQueries)
{
    quickEnv();
    Server server(ServerOptions{});
    const std::string resp = server.handleLine(
        "{\"op\":\"query\",\"engine\":\"timing\","
        "\"l2_size\":262144,\"l2_cycles\":3}");
    const double rel = relExecOf(resp);
    EXPECT_GT(rel, 0.0);
    EXPECT_LT(rel, 10.0);
    // Engine kind is part of the memo identity: the onepass twin
    // computes its own answer instead of aliasing the timing one.
    const std::string onepass = server.handleLine(
        "{\"op\":\"query\",\"engine\":\"onepass\","
        "\"l2_size\":262144,\"l2_cycles\":3}");
    EXPECT_NE(onepass.find("\"cached\":false"),
              std::string::npos);
    EXPECT_EQ(server.counters().engineRuns, 2u);
}

TEST(Server, TraceFileShorterThanItsWarmupIsCountedWhole)
{
    // Without a sidecar a trace file gets a 50,000-reference warm-up
    // guess (at least 1000 however MLC_QUICK scales it). A shorter
    // file never crosses it: the one-pass engines count all of it,
    // as at warm-up 0, and answer both depths.
    const std::string path = std::string(::testing::TempDir()) +
                             "mlc_serve_short.mlct";
    {
        auto gen = trace::makeMultiprogrammedWorkload(2, 4000, 5);
        const std::vector<trace::MemRef> refs =
            trace::collect(*gen, 900);
        std::ofstream out(path, std::ios::binary);
        trace::BinaryWriter writer(out);
        writer.putSpan({refs.data(), refs.size()});
        writer.finish();
    }
    ServerOptions opts;
    opts.traceFiles = {path};
    Server server(opts);
    const std::string q =
        "{\"op\":\"query\",\"workload\":\"mlc_serve_short\","
        "\"l2_size\":65536,\"l2_cycles\":2";
    EXPECT_GT(relExecOf(server.handleLine(q + "}")), 0.0);
    EXPECT_GT(relExecOf(server.handleLine(
                  q + ",\"l3_size\":2097152,\"l3_cycles\":6}")),
              0.0);
    std::filesystem::remove(path);
}

TEST(ServerDeath, MissingTraceFileFailsAtStartup)
{
    // Registration opens the file, so a bad path ends the process
    // while the server is constructed: before a socket is bound and
    // before any client could connect.
    const std::string path = std::string(::testing::TempDir()) +
                             "mlc_serve_missing.mlct";
    std::filesystem::remove(path);
    ServerOptions opts;
    opts.traceFiles = {path};
    EXPECT_EXIT({ Server server(opts); }, testing::ExitedWithCode(1),
                "mlc_serve_missing.mlct: cannot open trace file");
}

TEST(Server, WarmMaterializesAndStatsSeesIt)
{
    quickEnv();
    Server server(ServerOptions{});
    const std::string warm = server.handleLine(
        "{\"op\":\"warm\",\"workload\":\"grid\"}");
    const Json doc = parseResponse(warm);
    ASSERT_NE(doc.find("resident"), nullptr) << warm;
    EXPECT_EQ(doc.find("resident")->asU64(), 4u);
    EXPECT_EQ(doc.find("traces")->asU64(), 4u);

    const Json stats = parseResponse(
        server.handleLine("{\"op\":\"stats\"}"));
    const auto &wls =
        stats.find("stats")->find("workloads")->asArray();
    EXPECT_EQ(wls[0].find("resident")->asU64(), 4u);
    EXPECT_EQ(wls[1].find("resident")->asU64(), 0u)
        << "warming grid must not touch paper";

    const std::string bad = server.handleLine(
        "{\"op\":\"warm\",\"workload\":\"nope\"}");
    EXPECT_NE(bad.find("unknown workload"), std::string::npos);
}

TEST(Server, DrainingRejectsWorkButAnswersAdminVerbs)
{
    Server server(ServerOptions{});
    const std::string bye =
        server.handleLine("{\"op\":\"shutdown\",\"id\":\"z\"}");
    EXPECT_NE(bye.find("\"draining\":true"), std::string::npos);
    EXPECT_TRUE(server.draining());

    const std::string q = server.handleLine(
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":1}");
    EXPECT_NE(q.find("shutting_down"), std::string::npos);
    const std::string sweep = server.handleLine(
        "{\"op\":\"sweep\",\"sizes\":[4096,8192],"
        "\"cycles\":[1,2]}");
    EXPECT_NE(sweep.find("shutting_down"), std::string::npos);
    EXPECT_NE(server.handleLine("{\"op\":\"warm\"}")
                  .find("shutting_down"),
              std::string::npos);
    // Liveness and observability stay up while draining.
    EXPECT_NE(server.handleLine("{\"op\":\"ping\"}")
                  .find("\"ok\":true"),
              std::string::npos);
    EXPECT_NE(server.handleLine("{\"op\":\"stats\"}")
                  .find("\"draining\":true"),
              std::string::npos);
    EXPECT_EQ(server.counters().rejectedDraining, 3u);
}

TEST(Server, TenantQuotaBoundsEngineAdmissionsPerBatch)
{
    quickEnv();
    ServerOptions opts;
    opts.tenantAdmitQuota = 1;
    Server server(opts);
    // Two incompatible one-pass queries (different l2_assoc =>
    // different machine => separate engine groups): the second
    // admission exceeds the quota and gets a structured error
    // instead of queueing engine work.
    const std::vector<std::string> responses = server.handleBatch({
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":2,"
        "\"id\":\"a\"}",
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":2,"
        "\"l2_assoc\":2,\"id\":\"b\"}",
    });
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_NE(responses[0].find("\"ok\":true"), std::string::npos)
        << responses[0];
    EXPECT_NE(responses[1].find("quota_exceeded"),
              std::string::npos)
        << responses[1];
    EXPECT_NE(responses[1].find("'grid'"), std::string::npos)
        << "error must name the offending workload";
    EXPECT_EQ(server.counters().rejectedQuota, 1u);
    EXPECT_EQ(server.counters().engineRuns, 1u);

    // The quota is per batch, not a lifetime ban: the refused cell
    // sails through on its own.
    const std::string retry = server.handleLine(
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":2,"
        "\"l2_assoc\":2,\"id\":\"b\"}");
    EXPECT_NE(retry.find("\"ok\":true"), std::string::npos)
        << retry;
}

TEST(Server, QuotaSparesGroupJoinersAndMemoHits)
{
    quickEnv();
    ServerOptions opts;
    opts.tenantAdmitQuota = 1;
    Server server(opts);
    // Compatible one-pass queries share one admission: the group
    // creator pays, joiners piggyback on its engine call.
    const std::vector<std::string> grouped = server.handleBatch({
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":2,"
        "\"id\":\"a\"}",
        "{\"op\":\"query\",\"l2_size\":16384,\"l2_cycles\":2,"
        "\"id\":\"b\"}",
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":5,"
        "\"id\":\"c\"}",
    });
    for (const std::string &r : grouped)
        EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
    EXPECT_EQ(server.counters().engineRuns, 1u);
    EXPECT_EQ(server.counters().rejectedQuota, 0u);

    // Memo hits are free: a replayed query leaves the whole quota
    // for fresh work in the same batch.
    const std::vector<std::string> second = server.handleBatch({
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":2,"
        "\"id\":\"hit\"}",
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":2,"
        "\"l2_assoc\":2,\"id\":\"fresh\"}",
    });
    ASSERT_EQ(second.size(), 2u);
    EXPECT_NE(second[0].find("\"cached\":true"), std::string::npos)
        << second[0];
    EXPECT_NE(second[1].find("\"ok\":true"), std::string::npos)
        << second[1];
    EXPECT_EQ(server.counters().rejectedQuota, 0u);
}

TEST(Server, StatsExposeQuotaKnobsAndMemoSelfEviction)
{
    quickEnv();
    ServerOptions opts;
    opts.tenantAdmitQuota = 2;
    opts.memoTagQuota = 1;
    Server server(opts);
    // Two distinct queries under a one-entry memo quota: the
    // second insertion recycles the tag's own first entry.
    server.handleLine(
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":2}");
    server.handleLine(
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":5}");
    const Json doc = parseResponse(
        server.handleLine("{\"op\":\"stats\"}"));
    const Json *stats = doc.find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->find("tenant_admit_quota")->asU64(), 2u);
    EXPECT_EQ(stats->find("counters")
                  ->find("rejected_quota")
                  ->asU64(),
              0u);
    const Json *memo = stats->find("memo");
    ASSERT_NE(memo, nullptr);
    EXPECT_EQ(memo->find("tag_quota")->asU64(), 1u);
    EXPECT_EQ(memo->find("quota_evictions")->asU64(), 1u);
    EXPECT_EQ(memo->find("entries")->asU64(), 1u);
}

TEST(Server, CheckpointFarmServesSampledQueriesAcrossRestarts)
{
    quickEnv();
    const std::string dir = std::string(::testing::TempDir()) +
                            "mlc_serve_ckpt_farm";
    std::filesystem::remove_all(dir);
    ServerOptions opts;
    opts.checkpointDir = dir;
    Server first(opts);
    const std::string q =
        "{\"op\":\"query\",\"engine\":\"sampled\","
        "\"l2_size\":262144,\"l2_cycles\":3,\"id\":\"s\"}";
    const std::string cold = first.handleLine(q);
    EXPECT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;
    const ServerCounters c1 = first.counters();
    EXPECT_GT(c1.ckptBuilds, 0u)
        << "first sampled ask must tee live-point files";
    EXPECT_EQ(c1.ckptLoads, 0u);

    // A restart (modeled by a second server over the same farm
    // directory) answers the identical query from disk — same
    // bytes, warming loaded instead of recomputed.
    Server second(opts);
    const std::string warm = second.handleLine(q);
    EXPECT_EQ(stripVolatile(warm), stripVolatile(cold));
    const ServerCounters c2 = second.counters();
    EXPECT_GT(c2.ckptLoads, 0u) << "reload must hit the farm";
    EXPECT_EQ(c2.ckptBuilds, 0u);
    EXPECT_EQ(c2.engineRuns, 1u);

    const Json stats = parseResponse(
        second.handleLine("{\"op\":\"stats\"}"));
    const Json *ck = stats.find("stats")->find("checkpoints");
    ASSERT_NE(ck, nullptr) << "farm-backed server must report it";
    EXPECT_EQ(ck->find("dir")->asString(), dir);
    EXPECT_GT(ck->find("entries")->asU64(), 0u);
}

#if MLC_TEST_HAVE_SOCKETS

std::string
testSocketPath(const char *name)
{
    return "/tmp/mlc_serve_test_" + std::string(name) + "." +
           std::to_string(getpid()) + ".sock";
}

TEST(Server, SocketEndToEndSurvivesChurn)
{
    quickEnv();
    ServerOptions opts;
    opts.socketPath = testSocketPath("e2e");
    Server server(opts);
    server.start();

    const std::string q =
        "{\"op\":\"query\",\"l2_size\":65536,\"l2_cycles\":4,"
        "\"id\":\"q\"}";
    std::string baseline;
    {
        LineClient client(opts.socketPath);
        std::string resp;
        ASSERT_TRUE(client.sendLine("{\"op\":\"ping\"}"));
        ASSERT_TRUE(client.recvLine(resp));
        EXPECT_NE(resp.find("\"ok\":true"), std::string::npos);
        ASSERT_TRUE(client.sendLine(q));
        ASSERT_TRUE(client.recvLine(resp));
        baseline = stripVolatile(resp);
        // Vanish with a request in flight (destructor closes the
        // socket without reading the response).
        ASSERT_TRUE(client.sendLine(q));
    }
    {
        // The server must shrug off the dead client and serve a
        // fresh connection the identical bytes.
        LineClient client(opts.socketPath);
        std::string resp;
        ASSERT_TRUE(client.sendLine(q));
        ASSERT_TRUE(client.recvLine(resp));
        EXPECT_EQ(stripVolatile(resp), baseline);
        EXPECT_NE(resp.find("\"cached\":true"), std::string::npos);

        ASSERT_TRUE(client.sendLine("{\"op\":\"shutdown\"}"));
        ASSERT_TRUE(client.recvLine(resp));
        EXPECT_NE(resp.find("\"draining\":true"),
                  std::string::npos);
    }
    server.join();
    // Graceful teardown removed the socket file.
    EXPECT_NE(access(opts.socketPath.c_str(), F_OK), 0);
}

TEST(Server, ConcurrentClientsMatchSerialReplay)
{
    quickEnv();
    ServerOptions opts;
    opts.socketPath = testSocketPath("conc");
    Server server(opts);
    server.start();

    LoadGenOptions lopts;
    lopts.socketPath = opts.socketPath;
    lopts.clients = 3;
    lopts.requests = 8;
    lopts.seed = 42;
    std::vector<std::vector<std::string>> streams;
    for (std::size_t c = 0; c < lopts.clients; ++c)
        streams.push_back(
            queryStream(lopts, c, lopts.requests));

    const auto replay =
        [&](const std::vector<std::string> &lines,
            std::map<std::string, std::string> &out) {
            LineClient client(opts.socketPath);
            std::string resp;
            for (const std::string &line : lines) {
                ASSERT_TRUE(client.sendLine(line));
                ASSERT_TRUE(client.recvLine(resp));
                const Json doc = parseResponse(resp);
                ASSERT_NE(doc.find("id"), nullptr);
                out[doc.find("id")->asString()] =
                    stripVolatile(resp);
            }
        };

    std::map<std::string, std::string> concurrent;
    {
        std::mutex mu;
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < lopts.clients; ++c)
            threads.emplace_back([&, c] {
                std::map<std::string, std::string> mine;
                replay(streams[c], mine);
                std::lock_guard<std::mutex> lk(mu);
                concurrent.insert(mine.begin(), mine.end());
            });
        for (std::thread &t : threads)
            t.join();
    }
    std::map<std::string, std::string> serial;
    for (const auto &stream : streams)
        replay(stream, serial);

    ASSERT_EQ(concurrent.size(),
              lopts.clients * lopts.requests);
    EXPECT_EQ(concurrent, serial)
        << "racing clients must not change any answer";
    server.stop();
}

TEST(Server, StopDrainsWithoutAShutdownVerb)
{
    // stop() directly (the signal path's effect) with a live,
    // idle connection: the half-close must let the connection
    // thread exit instead of deadlocking the join.
    ServerOptions opts;
    opts.socketPath = testSocketPath("stop");
    Server server(opts);
    server.start();
    LineClient client(opts.socketPath);
    std::string resp;
    ASSERT_TRUE(client.sendLine("{\"op\":\"ping\"}"));
    ASSERT_TRUE(client.recvLine(resp));
    server.stop();
    EXPECT_TRUE(server.draining());
    // The half-closed connection reads EOF.
    EXPECT_FALSE(client.recvLine(resp));
}

#endif // MLC_TEST_HAVE_SOCKETS

} // namespace
} // namespace serve
} // namespace mlc
