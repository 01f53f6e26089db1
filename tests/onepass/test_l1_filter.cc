/**
 * @file
 * The one-pass engine's L1 event stream is the timing simulator's
 * L1 traffic: onepass::L1Filter's event log, warm boundary included,
 * must equal what a HierarchySimulator with no downstream level
 * sends to main memory under runFunctional(), on every golden L1
 * variant (write policies, sub-blocking, a unified L1 and every
 * replacement policy).
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hier/hierarchy.hh"
#include "onepass/l1_filter.hh"
#include "onepass/sharded.hh"
#include "trace/interleave.hh"

namespace mlc {
namespace onepass {
namespace {

/** The boundary ops packed the way FilteredEventLog packs events. */
std::vector<std::uint64_t>
packed(const std::vector<hier::BoundaryOp> &ops)
{
    FilteredEventLog log;
    for (const hier::BoundaryOp &op : ops) {
        if (op.kind == hier::BoundaryOp::Kind::Read)
            log.onRead(op.addr, op.countRead);
        else
            log.onWrite(op.addr);
    }
    return log.events;
}

void
expectSameStream(const std::string &variant,
                 const hier::HierarchyParams &params)
{
    auto gen = trace::makeMultiprogrammedWorkload(4, 6000, 0);
    const std::vector<trace::MemRef> refs =
        trace::collect(*gen, 200'000);
    const trace::RefSpan all{refs.data(), refs.size()};
    const std::size_t warm = refs.size() / 4;

    FilteredEventLog log;
    L1Filter filter(params);
    for (std::size_t i = 0; i < all.size; ++i) {
        if (i == warm) {
            filter.resetCounts();
            log.warmEvents = log.events.size();
        }
        filter.step(all[i], log);
    }

    // The same L1s with main memory right below them: everything
    // leaving L1 crosses the recorded boundary.
    hier::HierarchyParams l1_only = params;
    l1_only.levels.clear();
    l1_only.busWidthWords.resize(1);
    hier::HierarchySimulator sim(l1_only);
    std::vector<hier::BoundaryOp> ops;
    sim.setBoundaryRecorder(&ops);
    sim.runFunctional(all.first(warm));
    const std::size_t sim_warm = ops.size();
    sim.runFunctional(all.dropFirst(warm));

    EXPECT_EQ(log.warmEvents, sim_warm) << variant;
    EXPECT_GT(log.warmEvents, 0u) << variant;
    EXPECT_LT(log.warmEvents, log.events.size()) << variant;
    EXPECT_TRUE(log.events == packed(ops))
        << variant << ": " << log.events.size() << " events vs "
        << ops.size() << " boundary ops";
}

TEST(L1Filter, EventLogEqualsSimulatorBoundaryTraffic)
{
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    expectSameStream("write-back", base);

    hier::HierarchyParams wt = base;
    wt.l1i.writePolicy = cache::WritePolicy::WriteThrough;
    wt.l1d.writePolicy = cache::WritePolicy::WriteThrough;
    expectSameStream("write-through", wt);

    hier::HierarchyParams wtna = base;
    wtna.l1d.writePolicy = cache::WritePolicy::WriteThrough;
    wtna.l1d.allocPolicy = cache::AllocPolicy::NoWriteAllocate;
    expectSameStream("write-through no-allocate", wtna);

    hier::HierarchyParams sub = base;
    sub.l1i.fetchBytes = 4;
    sub.l1d.fetchBytes = 4;
    expectSameStream("sub-blocked", sub);

    hier::HierarchyParams unified = base;
    unified.splitL1 = false;
    unified.l1d.geometry.sizeBytes = 4096;
    expectSameStream("unified", unified);

    for (const cache::ReplPolicy policy :
         {cache::ReplPolicy::LRU, cache::ReplPolicy::FIFO,
          cache::ReplPolicy::Random}) {
        hier::HierarchyParams p = base;
        p.l1i.geometry.assoc = 2;
        p.l1d.geometry.assoc = 2;
        p.l1i.replPolicy = policy;
        p.l1d.replPolicy = policy;
        expectSameStream("2-way policy " +
                             std::to_string(static_cast<int>(policy)),
                         p);
    }
}

} // namespace
} // namespace onepass
} // namespace mlc
