#include "hier/sim_stats.hh"

namespace mlc {
namespace hier {

SimStats::SimStats(const HierarchySimulator &sim,
                   const std::string &name)
    : sim_(sim), root_(name)
{
    addCpuStats();
    addLevelStats();
    addWriteBufferStats();
}

void
SimStats::addCpuStats()
{
    auto *cpu = groups_
                    .emplace_back(std::make_unique<stats::Group>(
                        "cpu", &root_))
                    .get();
    auto add = [&](const char *stat_name, const char *desc,
                   auto fn) {
        formulas_.push_back(std::make_unique<stats::Formula>(
            cpu, stat_name, desc, std::move(fn)));
    };
    const HierarchySimulator &sim = sim_;
    add("instructions", "instructions executed",
        [&sim] { return double(sim.results().instructions); });
    add("reads", "loads + instruction fetches",
        [&sim] { return double(sim.results().cpuReads); });
    add("writes", "stores",
        [&sim] { return double(sim.results().cpuWrites); });
    add("cycles", "total CPU cycles",
        [&sim] { return double(sim.results().totalCycles); });
    add("cpi", "cycles per instruction",
        [&sim] { return sim.results().cpi; });
    add("relExecTime", "execution time vs all-hits ideal",
        [&sim] { return sim.results().relativeExecTime; });
    add("meanL1MissPenalty", "CPU cycles per L1 read miss",
        [&sim] { return sim.results().meanL1MissPenaltyCycles; });
    add("stallCyclesMemory", "read stall cycles reaching memory",
        [&sim] { return sim.results().breakdown.readStallMemory; });
    add("stallCyclesCache",
        "read stall cycles serviced by caches",
        [&sim] {
            return sim.results().breakdown.readStallCacheHit;
        });
    add("memoryReads", "main memory block reads",
        [&sim] { return double(sim.memoryReads()); });
    add("memoryWrites", "main memory block writes",
        [&sim] { return double(sim.memoryWrites()); });
}

void
SimStats::addLevelStats()
{
    // Combined L1 plus one group per downstream level; indexes into
    // SimResults::levels are fixed by construction.
    const std::size_t level_count = sim_.levelCount() + 1;
    for (std::size_t i = 0; i < level_count; ++i) {
        std::string group_name = "l";
        group_name += std::to_string(i + 1);
        auto *group = groups_
                          .emplace_back(
                              std::make_unique<stats::Group>(
                                  group_name, &root_))
                          .get();
        const HierarchySimulator &sim = sim_;
        auto add = [&](const char *stat_name, const char *desc,
                       auto fn) {
            formulas_.push_back(std::make_unique<stats::Formula>(
                group, stat_name, desc, std::move(fn)));
        };
        add("readRequests", "read requests reaching this level",
            [&sim, i] {
                return double(sim.results().levels[i].readRequests);
            });
        add("readMisses", "read misses at this level", [&sim, i] {
            return double(sim.results().levels[i].readMisses);
        });
        add("localMissRatio", "misses / incoming reads", [&sim, i] {
            return sim.results().levels[i].localMissRatio;
        });
        add("globalMissRatio", "misses / CPU reads", [&sim, i] {
            return sim.results().levels[i].globalMissRatio;
        });
        add("soloMissRatio",
            "miss ratio if this were the only cache (-1 when not "
            "measured)",
            [&sim, i] {
                return sim.results().levels[i].soloMissRatio;
            });
        add("writebacks", "dirty victims pushed downstream",
            [&sim, i] {
                return double(sim.results().levels[i].writebacks);
            });
    }
}

void
SimStats::addWriteBufferStats()
{
    for (std::size_t i = 0; i <= sim_.levelCount(); ++i) {
        const std::string group_name =
            "wbuf" + std::to_string(i + 1);
        auto *group = groups_
                          .emplace_back(
                              std::make_unique<stats::Group>(
                                  group_name, &root_))
                          .get();
        const HierarchySimulator &sim = sim_;
        auto add = [&](const char *stat_name, const char *desc,
                       auto fn) {
            formulas_.push_back(std::make_unique<stats::Formula>(
                group, stat_name, desc, std::move(fn)));
        };
        add("writesQueued", "block writes queued", [&sim, i] {
            return double(sim.writeBuffer(i).writesQueued());
        });
        add("writesCoalesced", "writes merged into pending entries",
            [&sim, i] {
                return double(sim.writeBuffer(i).writesCoalesced());
            });
        add("fullStalls", "requester stalls on a full buffer",
            [&sim, i] {
                return double(sim.writeBuffer(i).fullStalls());
            });
        add("readMatches",
            "demand reads that waited for a buffered write",
            [&sim, i] {
                return double(sim.writeBuffer(i).readMatches());
            });
    }
}

void
SimStats::dump(std::ostream &os) const
{
    root_.dumpAll(os);
    sim_.missPenaltyHistogram().dump(os, root_.name() + ".cpu");
}

} // namespace hier
} // namespace mlc
