/** @file Tests for request parsing and response framing. */

#include <gtest/gtest.h>

#include "serve/loadgen.hh"
#include "serve/protocol.hh"

namespace mlc {
namespace serve {
namespace {

TEST(Protocol, QueryDefaultsAndKnobs)
{
    const ParsedRequest p = parseRequest(
        "{\"op\":\"query\",\"l2_size\":262144,\"l2_cycles\":3}");
    ASSERT_TRUE(p.ok) << p.errorMessage;
    EXPECT_EQ(p.request.op, Op::Query);
    EXPECT_EQ(p.request.engine, "onepass");
    EXPECT_EQ(p.request.workload, "grid");
    EXPECT_EQ(p.request.l2Size, 262144u);
    EXPECT_EQ(p.request.l2Cycles, 3u);
    EXPECT_EQ(p.request.l2Assoc, 0u);
    EXPECT_EQ(p.request.seed, 1u);

    const ParsedRequest q = parseRequest(
        "{\"op\":\"query\",\"engine\":\"sampled\","
        "\"workload\":\"paper\",\"l2_size\":65536,"
        "\"l2_cycles\":5,\"l2_assoc\":2,\"l1_total\":8192,"
        "\"seed\":9,\"id\":\"abc\"}");
    ASSERT_TRUE(q.ok) << q.errorMessage;
    EXPECT_EQ(q.request.engine, "sampled");
    EXPECT_EQ(q.request.l2Assoc, 2u);
    EXPECT_EQ(q.request.l1Total, 8192u);
    EXPECT_EQ(q.request.seed, 9u);
    EXPECT_EQ(q.request.id, "abc");
}

TEST(Protocol, MrcEngineIsNotServed)
{
    // mrc is a real engine name, but the server keeps no resident
    // sampled profiles to serve it from.
    const ParsedRequest p = parseRequest(
        "{\"op\":\"query\",\"engine\":\"mrc\",\"id\":\"m\","
        "\"l2_size\":4096,\"l2_cycles\":1}");
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.errorCode, "bad_request");
    EXPECT_EQ(p.request.id, "m");
    EXPECT_NE(p.errorMessage.find("mrc"), std::string::npos)
        << p.errorMessage;
}

TEST(Protocol, NumericIdsBecomeStrings)
{
    const ParsedRequest p = parseRequest("{\"op\":\"ping\",\"id\":7}");
    ASSERT_TRUE(p.ok);
    EXPECT_EQ(p.request.id, "7");
}

TEST(Protocol, RejectionsKeepTheId)
{
    // Even a rejected request's error response must be correlatable.
    const ParsedRequest p =
        parseRequest("{\"id\":\"x\",\"engine\":\"onepass\"}");
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.errorCode, "bad_request");
    EXPECT_EQ(p.request.id, "x");

    EXPECT_EQ(parseRequest("{not json").errorCode, "bad_json");
    EXPECT_EQ(parseRequest("{\"op\":\"frobnicate\"}").errorCode,
              "bad_request");
    EXPECT_EQ(parseRequest(
                  "{\"op\":\"query\",\"engine\":\"magic\","
                  "\"l2_size\":4096,\"l2_cycles\":1}")
                  .errorCode,
              "bad_request");
    // query without its grid point.
    EXPECT_FALSE(parseRequest("{\"op\":\"query\"}").ok);
    // Negative / fractional knobs.
    EXPECT_FALSE(parseRequest("{\"op\":\"query\",\"l2_size\":-4,"
                              "\"l2_cycles\":1}")
                     .ok);
    EXPECT_FALSE(parseRequest("{\"op\":\"query\",\"l2_size\":4.5,"
                              "\"l2_cycles\":1}")
                     .ok);
}

TEST(Protocol, SweepAxesMustBeStrictlyAscending)
{
    ASSERT_TRUE(parseRequest("{\"op\":\"sweep\","
                             "\"sizes\":[4096,8192],"
                             "\"cycles\":[1,2]}")
                    .ok);
    EXPECT_FALSE(parseRequest("{\"op\":\"sweep\","
                              "\"sizes\":[8192,4096],"
                              "\"cycles\":[1,2]}")
                     .ok);
    EXPECT_FALSE(parseRequest("{\"op\":\"sweep\","
                              "\"sizes\":[4096,4096],"
                              "\"cycles\":[1,2]}")
                     .ok);
    EXPECT_FALSE(
        parseRequest("{\"op\":\"sweep\",\"sizes\":[4096]}").ok);
}

TEST(Protocol, BatchKeyGroupsCompatibleQueries)
{
    const auto parse = [](const std::string &line) {
        const ParsedRequest p = parseRequest(line);
        EXPECT_TRUE(p.ok) << p.errorMessage;
        return p.request;
    };
    const Request a = parse(
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":1}");
    const Request b = parse(
        "{\"op\":\"query\",\"l2_size\":65536,\"l2_cycles\":9}");
    // Different grid points, same non-grid knobs: may batch.
    EXPECT_EQ(a.batchKey(), b.batchKey());
    EXPECT_NE(a.detailKey(), b.detailKey());

    const Request c = parse(
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":1,"
        "\"l2_assoc\":2}");
    EXPECT_NE(a.batchKey(), c.batchKey());

    // The sampled seed shapes the schedule, so it splits batches —
    // but only for the sampled engine.
    const Request d1 = parse(
        "{\"op\":\"query\",\"engine\":\"sampled\","
        "\"l2_size\":4096,\"l2_cycles\":1,\"seed\":1}");
    const Request d2 = parse(
        "{\"op\":\"query\",\"engine\":\"sampled\","
        "\"l2_size\":4096,\"l2_cycles\":1,\"seed\":2}");
    EXPECT_NE(d1.batchKey(), d2.batchKey());
    const Request e1 = parse(
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":1,"
        "\"seed\":1}");
    const Request e2 = parse(
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":1,"
        "\"seed\":2}");
    EXPECT_EQ(e1.batchKey(), e2.batchKey());
}

TEST(Protocol, ThreeLevelKnobsParseAndSplitBatches)
{
    const ParsedRequest p = parseRequest(
        "{\"op\":\"query\",\"l2_size\":65536,\"l2_cycles\":2,"
        "\"l3_size\":2097152,\"l3_cycles\":6,\"l3_assoc\":4}");
    ASSERT_TRUE(p.ok) << p.errorMessage;
    EXPECT_EQ(p.request.l3Size, 2097152u);
    EXPECT_EQ(p.request.l3Cycles, 6u);
    EXPECT_EQ(p.request.l3Assoc, 4u);

    // l3_cycles is mandatory alongside l3_size, and l3 knobs are
    // meaningless without it.
    EXPECT_FALSE(parseRequest("{\"op\":\"query\",\"l2_size\":4096,"
                              "\"l2_cycles\":1,\"l3_size\":65536}")
                     .ok);
    EXPECT_FALSE(parseRequest("{\"op\":\"query\",\"l2_size\":4096,"
                              "\"l2_cycles\":1,\"l3_cycles\":6}")
                     .ok);

    // Depth-3 queries must never share an engine call — or a memo
    // or profile identity — with depth-2 ones, and the l3 cycle
    // time prices cells, so it splits batches too.
    const ParsedRequest d2 = parseRequest(
        "{\"op\":\"query\",\"l2_size\":65536,\"l2_cycles\":2}");
    const ParsedRequest p2 = parseRequest(
        "{\"op\":\"query\",\"l2_size\":65536,\"l2_cycles\":2,"
        "\"l3_size\":2097152,\"l3_cycles\":8,\"l3_assoc\":4}");
    ASSERT_TRUE(d2.ok && p2.ok);
    EXPECT_NE(p.request.batchKey(), d2.request.batchKey());
    EXPECT_NE(p.request.batchKey(), p2.request.batchKey());
    EXPECT_NE(p.request.detailKey(), d2.request.detailKey());

    // Same l3 knobs: still groupable across grid points.
    const ParsedRequest p3 = parseRequest(
        "{\"op\":\"query\",\"l2_size\":262144,\"l2_cycles\":5,"
        "\"l3_size\":2097152,\"l3_cycles\":6,\"l3_assoc\":4}");
    ASSERT_TRUE(p3.ok);
    EXPECT_EQ(p.request.batchKey(), p3.request.batchKey());
}

TEST(Protocol, DetailKeySeparatesQueryFromSweep)
{
    const ParsedRequest q = parseRequest(
        "{\"op\":\"query\",\"l2_size\":4096,\"l2_cycles\":1}");
    const ParsedRequest s = parseRequest(
        "{\"op\":\"sweep\",\"sizes\":[4096],\"cycles\":[1]}");
    ASSERT_TRUE(q.ok && s.ok);
    // A 1x1 sweep and the equivalent query produce differently
    // shaped payloads, so their memo identities must differ.
    EXPECT_NE(q.request.detailKey(), s.request.detailKey());
}

TEST(Protocol, ResponseFraming)
{
    EXPECT_EQ(okResponse("q1", "\"rel_exec_time\":0.97", false, 42),
              "{\"id\":\"q1\",\"ok\":true,\"rel_exec_time\":0.97,"
              "\"cached\":false,\"compute_us\":42}");
    EXPECT_EQ(okResponse("", "", false, 0),
              "{\"ok\":true,\"cached\":false,\"compute_us\":0}");
    EXPECT_EQ(errorResponse("q2", "bad_request", "nope"),
              "{\"id\":\"q2\",\"ok\":false,\"error\":{\"code\":"
              "\"bad_request\",\"message\":\"nope\"}}");
}

TEST(Protocol, StripVolatileNormalizesCacheState)
{
    // The same payload served cold and from the memo differs only
    // in the volatile tail; stripped forms must be byte-identical.
    const std::string cold =
        okResponse("a", "\"rel_exec_time\":0.97", false, 1234);
    const std::string hot =
        okResponse("a", "\"rel_exec_time\":0.97", true, 0);
    EXPECT_NE(cold, hot);
    EXPECT_EQ(stripVolatile(cold), stripVolatile(hot));
    EXPECT_EQ(stripVolatile(cold),
              "{\"id\":\"a\",\"ok\":true,\"rel_exec_time\":0.97}");
    // Error responses carry no volatile tail and pass through.
    const std::string err = errorResponse("b", "bad_request", "x");
    EXPECT_EQ(stripVolatile(err), err);
}

} // namespace
} // namespace serve
} // namespace mlc
