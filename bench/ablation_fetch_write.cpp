/**
 * @file
 * Ablations of the design choices DESIGN.md calls out:
 *
 *  1. Fetch size at the L1 (sector 4B/8B, whole 16B block, wide
 *     32B fetch, next-block prefetch) — the paper's "fetch size"
 *     organizational parameter.
 *  2. Write-buffer depth (1..8) and L1 write policy — validating
 *     the paper's footnote: "The write effects are small because
 *     we are using write-back caches with a large amount of write
 *     buffering. The writes are mostly hidden between the read
 *     requests."
 */

#include <iostream>

#include "bench_common.hh"
#include "engines/engines.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/units.hh"

using namespace mlc;

namespace {

expt::SuiteResults
run(const hier::HierarchyParams &p, const expt::TraceStore &store,
    std::size_t jobs)
{
    return expt::runSuite(p, store, jobs);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t jobs = engines::parseArgs(argc, argv).jobs;
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    bench::printHeader("Ablations",
                       "fetch size and write buffering", base);

    const auto store =
        bench::materializeAll(expt::gridSuite(), jobs);

    // --- 1. L1 fetch size. ---
    std::cout << "\n--- L1 fetch-size ablation (16B L1 blocks) ---\n";
    Table f;
    f.addColumn("organization", Align::Left);
    f.addColumn("L1 local miss");
    f.addColumn("rel exec time");
    f.addColumn("CPI");

    struct FetchCase
    {
        const char *name;
        std::uint32_t fetchBytes;
        bool prefetch;
    };
    const FetchCase cases[] = {
        {"4B sectors", 4, false},
        {"8B sectors", 8, false},
        {"16B whole block", 16, false},
        {"32B wide fetch", 32, false},
        {"16B + next-block prefetch", 16, true},
    };
    for (const auto &fc : cases) {
        hier::HierarchyParams p = base;
        for (cache::CacheParams *c : {&p.l1i, &p.l1d}) {
            c->fetchBytes = fc.fetchBytes;
            c->prefetchNextBlock = fc.prefetch;
        }
        std::cerr << "  " << fc.name << "...\n";
        const expt::SuiteResults r = run(p, store, jobs);
        f.newRow()
            .cell(std::string(fc.name))
            .cell(r.l1LocalMiss, 4)
            .cell(r.relExecTime, 3)
            .cell(r.cpi, 3);
    }
    f.print(std::cout);
    std::cout << "shape check: sectors raise the L1 miss ratio "
                 "(one miss per sector) but shrink each transfer; "
                 "wide fetch and prefetch trade the opposite "
                 "way.\n";

    // --- 2. Write buffering. ---
    std::cout << "\n--- write-buffer depth x L1 write policy ---\n";
    Table w;
    w.addColumn("L1 policy", Align::Left);
    w.addColumn("wbuf depth");
    w.addColumn("rel exec time");
    w.addColumn("wbuf full stalls/1k instr");

    for (const bool through : {false, true}) {
        for (std::size_t depth : {1u, 2u, 4u, 8u}) {
            hier::HierarchyParams p = base;
            p.writeBufferDepth = depth;
            if (through) {
                p.l1d.writePolicy =
                    cache::WritePolicy::WriteThrough;
                p.l1d.allocPolicy =
                    cache::AllocPolicy::NoWriteAllocate;
            }
            std::cerr << "  "
                      << (through ? "write-through" : "write-back")
                      << " depth " << depth << "...\n";
            // Count stalls per instruction across the suite:
            // per-trace slots, reduced in trace order.
            std::vector<hier::SimResults> per(store.size());
            parallelFor(jobs, store.size(), [&](std::size_t t) {
                per[t] = expt::runOnTrace(
                    p, store.traces()[t],
                    expt::scaledWarmup(store.specs()[t]));
            });
            double rel = 0.0, stalls_per_k = 0.0;
            for (const hier::SimResults &r : per) {
                rel += r.relativeExecTime;
                stalls_per_k +=
                    1000.0 *
                    static_cast<double>(r.writeBufferFullStalls) /
                    static_cast<double>(r.instructions);
            }
            const double n = static_cast<double>(store.size());
            w.newRow()
                .cell(std::string(through ? "write-through"
                                          : "write-back"))
                .cell(std::uint64_t{depth})
                .cell(rel / n, 4)
                .cell(stalls_per_k / n, 2);
        }
    }
    w.print(std::cout);
    std::cout << "shape check (paper footnote 2): with write-back "
                 "L1s and 4-entry buffers, write effects are "
                 "small — deepening the buffer past 4 changes "
                 "relative execution time marginally; "
                 "write-through raises traffic and depends far "
                 "more on buffering.\n";
    return 0;
}
