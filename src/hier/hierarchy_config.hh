/**
 * @file
 * Whole-system configuration: CPU, split L1, the downstream cache
 * levels, inter-level buses, write buffers and main memory. The
 * static baseMachine() factory reproduces the paper's Section 2
 * system exactly.
 */

#ifndef MLC_HIER_HIERARCHY_CONFIG_HH
#define MLC_HIER_HIERARCHY_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_config.hh"
#include "mem/main_memory.hh"

namespace mlc {
namespace hier {

/** Full hierarchy description. */
struct HierarchyParams
{
    /** CPU clock period; the paper's base machine runs at 10 ns. */
    double cpuCycleNs = 10.0;

    /** Split first level? If false, l1d serves all references. */
    bool splitL1 = true;
    cache::CacheParams l1i;
    cache::CacheParams l1d;

    /** Downstream cache levels (L2, L3, ...), unified. May be
     *  empty for a single-level system. */
    std::vector<cache::CacheParams> levels;

    /**
     * Width in words of the bus feeding each downstream level;
     * entry i is the bus between level i+1 and level i+2, and the
     * last entry is the backplane to main memory. Must have
     * levels.size() + 1 entries. Each bus cycles at the rate of the
     * device below it (the paper: CPU-L2 bus and backplane both
     * cycle at the L2 rate).
     */
    std::vector<std::uint32_t> busWidthWords;

    mem::MainMemoryParams memory;

    /**
     * Backplane (memory-bus) cycle time in ns. The paper's base
     * machine sets it equal to the L2 cycle time (30 ns), but the
     * Section 4 sweeps hold "the main memory access portion of the
     * second-level cache miss penalty" constant while the L2 cycle
     * time varies, so it is an independent parameter here. 0 means
     * "track the deepest cache level's cycle time".
     */
    double backplaneCycleNs = 0.0;

    /** Entries per inter-level write buffer (paper: 4). */
    std::size_t writeBufferDepth = 4;

    /** Also run solo co-simulations of each downstream level
     *  (Section 3's solo miss ratio). Costs one functional cache
     *  per level. */
    bool measureSolo = false;

    /** Validate and finalize every nested config; fatal() on
     *  inconsistency. */
    void finalize();

    /** A finalize()d copy. */
    HierarchyParams
    finalized() const
    {
        HierarchyParams p = *this;
        p.finalize();
        return p;
    }

    /** The paper's base machine: 10 ns CPU, split 2K+2K
     *  direct-mapped L1 (16 B blocks, write-back), 512 KB
     *  direct-mapped L2 (32 B blocks, 3 CPU-cycle cycle time),
     *  4-word buses, 4-entry write buffers, 180/100/120 ns DRAM. */
    static HierarchyParams baseMachine();

    /** Convenience: scale the L2 to @p size_bytes and @p cpu_cycles
     *  per L2 cycle (the design-space axes of Figures 4-1..4-4). */
    HierarchyParams withL2(std::uint64_t size_bytes,
                           std::uint32_t cpu_cycles,
                           std::uint32_t assoc = 1) const;

    /** Convenience: resize the split L1 (total bytes across I+D,
     *  split evenly, as the paper's "4KB L1" means 2K+2K). */
    HierarchyParams withL1Total(std::uint64_t total_bytes) const;

    /** One-line description for reports. */
    std::string summary() const;
};

/**
 * @{ @name Seed rule
 *
 * Seeds of the Random-replacement streams of a hierarchy's caches:
 * the L1s, downstream level i, and level i's solo copy. Every
 * engine that replays one of them seeds it from here, so a Random
 * cache picks the same victims in each.
 */
constexpr std::uint64_t kL1iSeed = 0x1234abcdULL;
constexpr std::uint64_t kL1dSeed = kL1iSeed + 1;
constexpr std::uint64_t levelSeed(std::size_t i) { return kL1iSeed + 2 + i; }
constexpr std::uint64_t soloSeed(std::size_t i) { return kL1iSeed + 100 + i; }
/** @} */

} // namespace hier
} // namespace mlc

#endif // MLC_HIER_HIERARCHY_CONFIG_HH
