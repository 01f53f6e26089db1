#include "onepass/validate.hh"

#include "expt/runner.hh"
#include "onepass/pipeline.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace onepass {

bool
CrossCheckReport::allMatch() const
{
    return mismatchCount() == 0;
}

std::size_t
CrossCheckReport::mismatchCount() const
{
    std::size_t n = 0;
    for (const CrossCheckRow &row : rows)
        if (!row.match())
            ++n;
    return n;
}

void
CrossCheckReport::print(std::ostream &os) const
{
    if (allMatch()) {
        os << "cross-check: all " << rows.size()
           << " (trace, config) pairs match exactly\n";
        return;
    }
    for (const CrossCheckRow &row : rows) {
        if (row.match())
            continue;
        os << "MISMATCH " << row.traceName << " "
           << row.spec.toString() << ": onepass "
           << row.onepassMisses << "/" << row.onepassReads
           << " vs timing " << row.timingMisses << "/"
           << row.timingReads;
        if (row.onepassSolo >= 0.0 || row.timingSolo >= 0.0)
            os << ", solo " << row.onepassSolo << " vs "
               << row.timingSolo;
        if (!row.l1Match)
            os << " (L1 counts differ)";
        if (!row.pivotMatch)
            os << " (pivot counts differ)";
        os << "\n";
    }
    os << "cross-check: " << mismatchCount() << " of "
       << rows.size() << " pairs mismatch\n";
}

namespace {

/** Reshape @p level to @p spec (fetch == block, so finalize() never
 *  sees a stale sub-block/fetch-group ratio). */
void
reshape(cache::CacheParams &level, const GhostCacheSpec &spec)
{
    level.geometry.sizeBytes = spec.sizeBytes;
    level.geometry.assoc = spec.assoc;
    level.geometry.blockBytes = spec.blockBytes;
    level.fetchBytes = spec.blockBytes;
}

/** crossCheck at either depth: every (trace, pivot, member) row,
 *  the member at levels[0] or, behind a pivot, at levels[1]. */
CrossCheckReport
crossCheckFamily(const hier::HierarchyParams &base,
                 const CascadeFamilySpec &family,
                 const expt::TraceStore &store, std::size_t jobs,
                 bool solo)
{
    const std::vector<TraceProfile> profiles = profileStore(
        base, family, store, jobs, solo, false, ExactSinks{});

    const bool cascade = !family.pivots.empty();
    const std::size_t level = cascade ? 2 : 1; // member's SimResults
    const std::size_t n_pivots = cascade ? family.pivots.size() : 1;
    const std::size_t n_configs = family.l3.configs.size();
    const std::size_t n_rows =
        store.size() * n_pivots * n_configs;
    CrossCheckReport report;
    report.rows.resize(n_rows);

    parallelFor(jobs, n_rows, [&](std::size_t i) {
        const std::size_t t = i / (n_pivots * n_configs);
        const std::size_t p = (i / n_configs) % n_pivots;
        const std::size_t c = i % n_configs;
        const GhostCacheSpec &spec = family.l3.configs[c];

        hier::HierarchyParams params = base;
        if (cascade)
            reshape(params.levels[0], family.pivots[p]);
        reshape(params.levels[level - 1], spec);
        params.measureSolo = solo;

        const hier::SimResults r = expt::runOnTrace(
            params, store.traces()[t],
            expt::scaledWarmup(store.specs()[t]));

        const TraceProfile &prof = profiles[p * store.size() + t];
        const ConfigProfile &cp = prof.configs[c];
        CrossCheckRow row;
        row.traceName = store.specs()[t].name;
        row.spec = spec;
        row.onepassReads = cp.filtered.reads;
        row.onepassMisses = cp.filtered.readMisses;
        row.timingReads = r.levels[level].readRequests;
        row.timingMisses = r.levels[level].readMisses;
        row.l1Match =
            r.levels[0].readRequests == prof.l1ReadRequests &&
            r.levels[0].readMisses == prof.l1ReadMisses;
        if (cascade) {
            const PivotLink &link = prof.pivotChain[0];
            row.pivotMatch =
                r.levels[1].readRequests == link.counts.reads &&
                r.levels[1].readMisses == link.counts.readMisses &&
                (!solo || r.levels[1].soloMissRatio ==
                              link.solo.localMissRatio());
        }
        if (solo) {
            // Identical integer divisions on both sides, so the
            // doubles compare bitwise-equal when the counts agree.
            row.onepassSolo = cp.solo.localMissRatio();
            row.timingSolo = r.levels[level].soloMissRatio;
        }
        report.rows[i] = row;
    });
    return report;
}

} // namespace

CrossCheckReport
crossCheck(const hier::HierarchyParams &base,
           const FamilySpec &family, const expt::TraceStore &store,
           std::size_t jobs, bool solo)
{
    return crossCheckFamily(base, {{}, family}, store, jobs, solo);
}

CrossCheckReport
crossCheckCascade(const hier::HierarchyParams &base,
                  const CascadeFamilySpec &family,
                  const expt::TraceStore &store, std::size_t jobs,
                  bool solo)
{
    return crossCheckFamily(base, family, store, jobs, solo);
}

} // namespace onepass
} // namespace mlc
