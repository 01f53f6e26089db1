/** @file Parameterized sweep: the hierarchy's accounting
 *  invariants must hold under every policy combination, not just
 *  the paper's base configuration. */

#include <gtest/gtest.h>

#include "hier/hierarchy.hh"
#include "trace/interleave.hh"
#include "trace/source.hh"

namespace mlc {
namespace hier {
namespace {

struct PolicyCase
{
    cache::WritePolicy l1Write;
    cache::AllocPolicy l1Alloc;
    cache::DownstreamWriteMissPolicy l2VictimMiss;
    cache::ReplPolicy l2Repl;
    std::uint32_t l2Assoc;
    std::uint32_t l1FetchBytes; //!< 0 = block; 4/8 = sectors
};

std::string
caseName(const testing::TestParamInfo<PolicyCase> &param_info)
{
    const PolicyCase &c = param_info.param;
    std::string name;
    name += c.l1Write == cache::WritePolicy::WriteBack ? "wb" : "wt";
    name += c.l1Alloc == cache::AllocPolicy::WriteAllocate ? "Wa"
                                                           : "Nwa";
    name += c.l2VictimMiss ==
                    cache::DownstreamWriteMissPolicy::Around
                ? "Ar"
                : "Al";
    name += cache::replPolicyName(c.l2Repl)[0] == 'l'   ? "Lru"
            : cache::replPolicyName(c.l2Repl)[0] == 'f' ? "Fifo"
                                                        : "Rand";
    name += "A";
    name += std::to_string(c.l2Assoc);
    name += "F";
    name += std::to_string(c.l1FetchBytes);
    return name;
}

const std::vector<trace::MemRef> &
sweepWorkload()
{
    static const std::vector<trace::MemRef> refs = [] {
        auto src = trace::makeMultiprogrammedWorkload(3, 4000, 77);
        return trace::collect(*src, 150000);
    }();
    return refs;
}

class PolicySweep : public testing::TestWithParam<PolicyCase>
{
};

TEST_P(PolicySweep, InvariantsHold)
{
    const PolicyCase &c = GetParam();
    HierarchyParams p =
        HierarchyParams::baseMachine().withL2(64 << 10, 3,
                                              c.l2Assoc);
    p.l1d.writePolicy = c.l1Write;
    p.l1d.allocPolicy = c.l1Alloc;
    p.l1i.fetchBytes = c.l1FetchBytes;
    p.l1d.fetchBytes = c.l1FetchBytes;
    p.levels[0].downstreamWriteMiss = c.l2VictimMiss;
    p.levels[0].replPolicy = c.l2Repl;
    p.measureSolo = true;

    HierarchySimulator sim(p);
    trace::VectorSource src(sweepWorkload());
    sim.warmUp(src, 50000);
    sim.run(src);
    const SimResults r = sim.results();

    // Reference accounting.
    EXPECT_EQ(r.references, sweepWorkload().size() - 50000);
    EXPECT_EQ(r.references, r.cpuReads + r.cpuWrites);

    // Miss-ratio identities (Section 2/3 definitions).
    EXPECT_EQ(r.levels[1].readRequests, r.levels[0].readMisses);
    EXPECT_NEAR(r.levels[1].globalMissRatio,
                r.levels[1].localMissRatio *
                    r.levels[0].globalMissRatio,
                1e-12);
    EXPECT_GE(r.levels[1].localMissRatio, 0.0);
    EXPECT_LE(r.levels[1].localMissRatio, 1.0);
    EXPECT_GE(r.levels[1].soloMissRatio, 0.0);

    // Time only moves forward and is fully attributed.
    EXPECT_GE(r.totalCycles, r.idealCycles);
    EXPECT_NEAR(r.breakdown.total(),
                static_cast<double>(r.totalCycles), 1.5);

    // Memory reads cover every L2 demand miss.
    EXPECT_GE(sim.memoryReads(), r.levels[1].readMisses);

    // Determinism.
    HierarchySimulator sim2(p);
    trace::VectorSource src2(sweepWorkload());
    sim2.warmUp(src2, 50000);
    sim2.run(src2);
    EXPECT_EQ(sim2.results().totalCycles, r.totalCycles);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicySweep,
    testing::Values(
        // The paper's base flavour across replacement/assoc.
        PolicyCase{cache::WritePolicy::WriteBack,
                   cache::AllocPolicy::WriteAllocate,
                   cache::DownstreamWriteMissPolicy::Around,
                   cache::ReplPolicy::LRU, 1, 0},
        PolicyCase{cache::WritePolicy::WriteBack,
                   cache::AllocPolicy::WriteAllocate,
                   cache::DownstreamWriteMissPolicy::Around,
                   cache::ReplPolicy::LRU, 4, 0},
        PolicyCase{cache::WritePolicy::WriteBack,
                   cache::AllocPolicy::WriteAllocate,
                   cache::DownstreamWriteMissPolicy::Around,
                   cache::ReplPolicy::FIFO, 2, 0},
        PolicyCase{cache::WritePolicy::WriteBack,
                   cache::AllocPolicy::WriteAllocate,
                   cache::DownstreamWriteMissPolicy::Around,
                   cache::ReplPolicy::Random, 8, 0},
        // Victim-allocate L2.
        PolicyCase{cache::WritePolicy::WriteBack,
                   cache::AllocPolicy::WriteAllocate,
                   cache::DownstreamWriteMissPolicy::Allocate,
                   cache::ReplPolicy::LRU, 1, 0},
        PolicyCase{cache::WritePolicy::WriteBack,
                   cache::AllocPolicy::WriteAllocate,
                   cache::DownstreamWriteMissPolicy::Allocate,
                   cache::ReplPolicy::LRU, 4, 0},
        // Write-through / no-allocate first levels.
        PolicyCase{cache::WritePolicy::WriteThrough,
                   cache::AllocPolicy::NoWriteAllocate,
                   cache::DownstreamWriteMissPolicy::Around,
                   cache::ReplPolicy::LRU, 1, 0},
        PolicyCase{cache::WritePolicy::WriteThrough,
                   cache::AllocPolicy::NoWriteAllocate,
                   cache::DownstreamWriteMissPolicy::Allocate,
                   cache::ReplPolicy::LRU, 2, 0},
        PolicyCase{cache::WritePolicy::WriteBack,
                   cache::AllocPolicy::NoWriteAllocate,
                   cache::DownstreamWriteMissPolicy::Around,
                   cache::ReplPolicy::LRU, 1, 0},
        // Sector L1s.
        PolicyCase{cache::WritePolicy::WriteBack,
                   cache::AllocPolicy::WriteAllocate,
                   cache::DownstreamWriteMissPolicy::Around,
                   cache::ReplPolicy::LRU, 1, 4},
        PolicyCase{cache::WritePolicy::WriteBack,
                   cache::AllocPolicy::WriteAllocate,
                   cache::DownstreamWriteMissPolicy::Allocate,
                   cache::ReplPolicy::LRU, 2, 8},
        PolicyCase{cache::WritePolicy::WriteThrough,
                   cache::AllocPolicy::NoWriteAllocate,
                   cache::DownstreamWriteMissPolicy::Around,
                   cache::ReplPolicy::LRU, 1, 8}),
    caseName);

} // namespace
} // namespace hier
} // namespace mlc
