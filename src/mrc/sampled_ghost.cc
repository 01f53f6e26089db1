#include "mrc/sampled_ghost.hh"

#include <algorithm>
#include <cmath>

#include "trace/sampler.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace mlc {
namespace mrc {

namespace {

/** Check the live-line budget every this many forest events; a
 *  power of two so the check is a mask, and small enough that the
 *  live set overshoots the budget by at most a few thousand lines
 *  between checks. */
constexpr std::uint64_t kShrinkCheckMask = 4096 - 1;

/** Odd (hence bijective mod any power of two) scatter constant for
 *  the kept-set permutation: 2^64 / golden ratio, the usual
 *  Fibonacci-hashing multiplier. */
constexpr std::uint64_t kSetScatter = 0x9E3779B97F4A7C15ull;

/** The kept-set bijection: real set index -> permuted index within
 *  [0, fullSets). A set is sampled iff this lands below miniSets,
 *  and the value is its mini-array slot. The affine map is a
 *  bijection mod 2^L (odd multiplier), so exactly miniSets sets
 *  are kept, each with a unique slot — and by the three-distance
 *  theorem the kept sets of a golden-ratio progression are spread
 *  with near-equal gaps, i.e. the sample is *stratified* across
 *  the index space rather than aligned ("keep every 2^j-th set"
 *  correlates with page-aligned code and segment-aligned heaps) or
 *  clumped (a pseudo-random permutation Poisson-clumps and
 *  measurably raises cross-set variance). The per-member additive
 *  @p salt rotates the progression so different family members
 *  keep differently-phased subsets: their per-member errors are
 *  decorrelated and partially cancel in family-mean quantities.
 */
inline std::uint64_t
scatterSet(std::uint64_t set, std::uint64_t set_mask,
           std::uint64_t salt)
{
    return (set * kSetScatter + salt) & set_mask;
}

} // namespace

SampledGhostForest::Member
SampledGhostForest::makeMember(const onepass::GhostCacheSpec &spec,
                               const SamplerConfig &sampler)
{
    const double rate = sampler.rate;
    const std::uint64_t min_sets = sampler.minSets;
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(spec.assoc) * spec.blockBytes;
    if (!isPowerOfTwo(spec.sizeBytes) ||
        !isPowerOfTwo(spec.blockBytes) ||
        !isPowerOfTwo(spec.assoc) || way_bytes > spec.sizeBytes)
        mlc_panic("sampled ghost cache ", spec.toString(),
                  ": size, associativity and block size must be "
                  "powers of two with at least one set");
    const std::uint64_t full_sets = spec.sizeBytes / way_bytes;

    // Snap the member to the power-of-two fraction nearest the
    // requested rate: miniSets = fullSets >> j keeps the kept-set
    // predicate a bit mask and the weight an exact power of two.
    // The minSets floor keeps small members exact (their set count
    // is tiny anyway) and bounds cross-set variance on the rest.
    unsigned j = 0;
    if (rate < 1.0)
        j = static_cast<unsigned>(
            std::llround(-std::log2(rate)));
    const std::uint64_t floor_sets =
        std::max<std::uint64_t>(min_sets, 1);
    unsigned j_cap = 0;
    while ((full_sets >> (j_cap + 1)) >= floor_sets)
        ++j_cap;
    j = std::min(j, j_cap);

    Member m{full_sets,
             full_sets >> j,
             j,
             static_cast<double>(std::uint64_t{1} << j),
             j == 0,
             full_sets - 1,
             // The per-member phase, optionally re-drawn by the
             // caller's saltSeed (scattered first so small seeds
             // flip high hash-input bits too); seed 0 reproduces
             // the canonical subsets bit for bit.
             trace::hashBlock(
                 spec.sizeBytes ^
                 (static_cast<std::uint64_t>(spec.assoc) << 40) ^
                 (static_cast<std::uint64_t>(spec.blockBytes) << 20) ^
                 (sampler.saltSeed * kSetScatter)),
             onepass::GhostTagArray(full_sets >> j, spec.assoc)};
    return m;
}

SampledGhostForest::SampledGhostForest(
    std::vector<onepass::GhostCacheSpec> specs,
    onepass::GhostPolicies policies, const SamplerConfig &sampler)
    : specs_(std::move(specs)), policies_(policies),
      budget_(sampler.budget)
{
    if (specs_.empty())
        mlc_panic("SampledGhostForest needs at least one config");
    if (!(sampler.rate > 0.0) || sampler.rate > 1.0)
        mlc_panic("sampling rate ", sampler.rate,
                  " outside (0, 1]; use 1.0 for exact");
    members_.reserve(specs_.size());
    counts_.resize(specs_.size());
    for (const onepass::GhostCacheSpec &spec : specs_)
        members_.push_back(makeMember(spec, sampler));
    for (const onepass::BlockGroup &g : onepass::blockGroups(specs_))
        groups_.push_back({exactLog2(g.blockBytes), g.members});
}

void
SampledGhostForest::touch(std::uint64_t block, std::size_t m,
                          bool install, Count count)
{
    Member &mem = members_[m];
    std::uint64_t set;
    if (mem.natural) {
        set = block & mem.setMask;
    } else {
        // Keep iff the scattered set index lands in the mini
        // range; the sampled set then replays exactly the stream
        // the full cache's set (block & setMask) sees.
        const std::uint64_t t =
            scatterSet(block & mem.setMask, mem.setMask,
                       mem.salt);
        if (t >= mem.miniSets)
            return;
        set = t;
    }
    const bool hit = install
                         ? mem.array.touchOrInstallAt(set, block)
                         : mem.array.touchOnlyAt(set, block);
    if (count == Count::None)
        return;
    WeightedCounts &c = counts_[m];
    if (count == Count::Read) {
        c.reads += mem.weight;
        if (!hit)
            c.readMisses += mem.weight;
    } else {
        c.extraAccesses += mem.weight;
        if (!hit)
            c.extraMisses += mem.weight;
    }
}

void
SampledGhostForest::read(Addr addr, bool counted)
{
    for (const Group &g : groups_) {
        const std::uint64_t block = addr >> g.blockShift;
        for (std::size_t m : g.members)
            touch(block, m, /*install=*/true,
                  counted ? Count::Read : Count::Extra);
    }
    maybeShrink();
}

void
SampledGhostForest::write(Addr addr)
{
    // Tags only, no counters — GhostTagForest::write does not
    // enter the extra counts either, and the p=1.0 bit-identity
    // contract holds per counter.
    const bool allocate =
        policies_.downstreamWriteMiss ==
        cache::DownstreamWriteMissPolicy::Allocate;
    for (const Group &g : groups_) {
        const std::uint64_t block = addr >> g.blockShift;
        for (std::size_t m : g.members)
            touch(block, m, allocate, Count::None);
    }
    maybeShrink();
}

void
SampledGhostForest::soloAccess(const trace::MemRef &ref)
{
    const bool store_allocates =
        policies_.alloc == cache::AllocPolicy::WriteAllocate;
    for (const Group &g : groups_) {
        const std::uint64_t block = ref.addr >> g.blockShift;
        for (std::size_t m : g.members) {
            if (ref.isRead())
                touch(block, m, /*install=*/true, Count::Read);
            else
                touch(block, m, store_allocates, Count::Extra);
        }
    }
    maybeShrink();
}

void
SampledGhostForest::resetCounts()
{
    for (WeightedCounts &c : counts_)
        c = WeightedCounts{};
}

onepass::GhostCounts
SampledGhostForest::counts(std::size_t config) const
{
    if (config >= counts_.size())
        mlc_panic("SampledGhostForest::counts index ", config,
                  " out of range (", counts_.size(), " configs)");
    const WeightedCounts &w = counts_[config];
    onepass::GhostCounts c;
    c.reads = static_cast<std::uint64_t>(std::llround(w.reads));
    c.readMisses =
        static_cast<std::uint64_t>(std::llround(w.readMisses));
    c.extraAccesses =
        static_cast<std::uint64_t>(std::llround(w.extraAccesses));
    c.extraMisses =
        static_cast<std::uint64_t>(std::llround(w.extraMisses));
    return c;
}

double
SampledGhostForest::effectiveRate(std::size_t config) const
{
    if (config >= members_.size())
        mlc_panic("SampledGhostForest::effectiveRate index ", config,
                  " out of range (", members_.size(), " configs)");
    const Member &m = members_[config];
    return static_cast<double>(m.miniSets) /
           static_cast<double>(m.fullSets);
}

std::uint64_t
SampledGhostForest::liveLines() const
{
    std::uint64_t n = 0;
    for (const Member &m : members_)
        n += m.array.validCount();
    return n;
}

void
SampledGhostForest::shrinkMember(Member &mem) const
{
    mem.ratioLog2 += 1;
    mem.miniSets = mem.fullSets >> mem.ratioLog2;
    mem.weight = static_cast<double>(std::uint64_t{1}
                                     << mem.ratioLog2);
    mem.natural = false;

    // Rebuild in ascending-stamp order: re-inserting LRU-first into
    // a fresh array reproduces the surviving lines' relative
    // recency. Halving narrows the kept-set predicate (t < mini/2
    // implies t < mini), so surviving lines are a subset of the old
    // array — nothing is ever back-filled.
    const std::vector<onepass::GhostLine> lines =
        mem.array.validLines();
    onepass::GhostTagArray next(mem.miniSets, mem.array.ways());
    for (const onepass::GhostLine &line : lines) {
        const std::uint64_t t =
            scatterSet(line.tag & mem.setMask, mem.setMask,
                       mem.salt);
        if (t < mem.miniSets)
            next.touchOrInstallAt(t, line.tag);
    }
    mem.array = std::move(next);
}

void
SampledGhostForest::maybeShrink()
{
    ++events_;
    if (budget_ == 0 || (events_ & kShrinkCheckMask) != 0)
        return;
    while (liveLines() > budget_) {
        bool can_shrink = false;
        for (const Member &m : members_)
            if (m.miniSets > 1)
                can_shrink = true;
        if (!can_shrink)
            break; // every member is down to one set already
        for (Member &m : members_)
            if (m.miniSets > 1)
                shrinkMember(m);
        ++generation_;
    }
}

} // namespace mrc
} // namespace mlc
