/** @file
 * Tests for TraceStore's deferred mode: once-per-trace
 * materialization under concurrency. The racing tests are the
 * TSan targets for the query server's lazy-loading path.
 */

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "expt/workload_suite.hh"

namespace mlc {
namespace expt {
namespace {

std::vector<TraceSpec>
tinySpecs(std::size_t n)
{
    std::vector<TraceSpec> specs;
    for (std::size_t i = 0; i < n; ++i) {
        TraceSpec spec;
        spec.name = "tiny" + std::to_string(i);
        spec.variant = i;
        spec.warmupRefs = 200;
        spec.measureRefs = 800;
        specs.push_back(spec);
    }
    return specs;
}

TEST(TraceStoreLazy, NothingResidentUntilFirstUse)
{
    const TraceStore store = TraceStore::deferred(tinySpecs(3));
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.residentCount(), 0u);
    EXPECT_FALSE(store.resident(1));

    const trace::RefSpan span = store.span(1);
    EXPECT_GT(span.size, 0u);
    EXPECT_TRUE(store.resident(1));
    EXPECT_FALSE(store.resident(0)) << "span(1) must not load 0";
    EXPECT_EQ(store.residentCount(), 1u);
}

TEST(TraceStoreLazy, MatchesTheEagerStoreExactly)
{
    const auto specs = tinySpecs(2);
    const TraceStore eager = TraceStore::materialize(specs);
    const TraceStore lazy = TraceStore::deferred(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const trace::RefSpan a = eager.span(i);
        const trace::RefSpan b = lazy.span(i);
        ASSERT_EQ(a.size, b.size);
        for (std::size_t j = 0; j < a.size; ++j)
            ASSERT_EQ(a[j], b[j]) << "trace " << i << " ref " << j;
    }
    EXPECT_EQ(lazy.residentCount(), specs.size());
}

TEST(TraceStoreLazy, RacingReadersMaterializeExactlyOnce)
{
    // Many threads hammer the same traces; the injected
    // materializer counts invocations per spec. Every reader must
    // see the identical resident stream and each spec must be
    // generated exactly once — this is the test TSan watches for
    // the server's first-query races.
    const auto specs = tinySpecs(4);
    std::vector<std::atomic<int>> calls(specs.size());
    const TraceStore store = TraceStore::deferred(
        specs, [&calls](const TraceSpec &spec) {
            ++calls[spec.variant];
            return materialize(spec);
        });

    constexpr std::size_t kThreads = 8;
    std::vector<const trace::MemRef *> first(kThreads * 4,
                                             nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            // Different threads start on different traces so every
            // latch sees genuine contention.
            for (std::size_t k = 0; k < 4; ++k) {
                const std::size_t i = (t + k) % 4;
                const trace::RefSpan span = store.span(i);
                first[t * 4 + i] = &span[0];
            }
        });
    for (std::thread &t : threads)
        t.join();

    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(calls[i].load(), 1)
            << "trace " << i << " materialized more than once";
    EXPECT_EQ(store.residentCount(), 4u);
    // Resident storage never moved: every reader got the same
    // address for the same trace.
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t t = 1; t < kThreads; ++t)
            EXPECT_EQ(first[t * 4 + i], first[i]);
}

TEST(TraceStoreLazy, AFailedMaterializationIsRethrownToEveryReader)
{
    // The materializer of trace 1 throws. Every reader, on every
    // read, gets that same error: the store neither retries nor
    // hangs (a latch that relied on call_once re-arming after a
    // throw spins forever under ThreadSanitizer).
    const auto specs = tinySpecs(2);
    std::atomic<int> calls{0};
    const TraceStore store = TraceStore::deferred(
        specs, [&calls](const TraceSpec &spec) {
            ++calls;
            if (spec.variant == 1)
                throw std::runtime_error("trace 1 unreadable");
            return materialize(spec);
        });

    constexpr std::size_t kThreads = 4;
    std::vector<const std::exception *> seen(kThreads * 2, nullptr);
    std::vector<std::string> what(kThreads * 2);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t read = 0; read < 2; ++read) {
                try {
                    store.span(1);
                } catch (const std::runtime_error &e) {
                    seen[t * 2 + read] = &e;
                    what[t * 2 + read] = e.what();
                }
            }
        });
    for (std::thread &t : threads)
        t.join();

    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(what[i], "trace 1 unreadable") << "read " << i;
        EXPECT_EQ(seen[i], seen[0]) << "read " << i;
    }
    EXPECT_EQ(calls.load(), 1);
    EXPECT_FALSE(store.resident(1));
    EXPECT_GT(store.span(0).size, 0u) << "trace 0 loads regardless";
    EXPECT_EQ(store.residentCount(), 1u);
}

TEST(TraceStoreLazy, EnsureAllIsIdempotentAndParallelSafe)
{
    const auto specs = tinySpecs(3);
    std::atomic<int> calls{0};
    const TraceStore store = TraceStore::deferred(
        specs, [&calls](const TraceSpec &spec) {
            ++calls;
            return materialize(spec);
        });
    store.span(0); // one already resident
    store.ensureAll(4);
    EXPECT_EQ(store.residentCount(), 3u);
    EXPECT_EQ(calls.load(), 3);
    store.ensureAll(4); // second warm-up touches nothing
    EXPECT_EQ(calls.load(), 3);
    // traces() (whole-suite access) is now a plain read.
    EXPECT_EQ(store.traces().size(), 3u);
}

TEST(TraceStoreLazy, TracesAccessorMaterializesEverything)
{
    const TraceStore store = TraceStore::deferred(tinySpecs(2));
    EXPECT_EQ(store.residentCount(), 0u);
    const auto &all = store.traces();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_GT(all[0].size(), 0u);
    EXPECT_EQ(store.residentCount(), 2u);
}

} // namespace
} // namespace expt
} // namespace mlc
