#include "onepass/ghost_tags.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"
#include "util/units.hh"

namespace mlc {
namespace onepass {

namespace {

/** Sets of @p spec; panics unless its geometry is all powers of two
 *  with at least one set. */
std::uint64_t
setsOf(const GhostCacheSpec &spec)
{
    if (!isPowerOfTwo(spec.sizeBytes) ||
        !isPowerOfTwo(spec.blockBytes) || !isPowerOfTwo(spec.assoc))
        mlc_panic("ghost cache ", spec.toString(),
                  ": size, associativity and block size must all "
                  "be powers of two");
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(spec.assoc) * spec.blockBytes;
    if (way_bytes > spec.sizeBytes)
        mlc_panic("ghost cache ", spec.toString(),
                  ": fewer than one set");
    return spec.sizeBytes / way_bytes;
}

/** One access into @p c: reads/readMisses when @p counted, else
 *  extraAccesses/extraMisses. */
void
tally(GhostCounts &c, bool counted, bool hit)
{
    if (counted) {
        ++c.reads;
        if (!hit)
            ++c.readMisses;
    } else {
        ++c.extraAccesses;
        if (!hit)
            ++c.extraMisses;
    }
}

} // namespace

std::string
GhostCacheSpec::toString() const
{
    std::ostringstream os;
    os << formatSize(sizeBytes) << "/" << assoc << "-way/"
       << blockBytes << "B";
    return os.str();
}

double
GhostCounts::localMissRatio() const
{
    return reads == 0 ? 0.0
                      : static_cast<double>(readMisses) /
                            static_cast<double>(reads);
}

double
GhostCounts::globalMissRatio(std::uint64_t cpu_reads) const
{
    return cpu_reads == 0 ? 0.0
                          : static_cast<double>(readMisses) /
                                static_cast<double>(cpu_reads);
}

std::vector<BlockGroup>
blockGroups(const std::vector<GhostCacheSpec> &configs)
{
    std::vector<BlockGroup> groups;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        BlockGroup *g = nullptr;
        for (BlockGroup &cand : groups)
            if (cand.blockBytes == configs[i].blockBytes)
                g = &cand;
        if (!g) {
            groups.push_back({configs[i].blockBytes, {}});
            g = &groups.back();
        }
        g->members.push_back(i);
    }
    return groups;
}

GhostTagArray::GhostTagArray(std::uint64_t sets, std::uint32_t ways)
    : ways_(ways)
{
    if (sets == 0 || ways == 0)
        mlc_panic("ghost array: ", sets, " sets x ", ways,
                  " ways has no lines");
    tags_.resize(sets * ways_, 0);
    stamps_.resize(sets * ways_, 0);
}

bool
GhostTagArray::touchOrInstallAt(std::uint64_t set, std::uint64_t tag)
{
    std::uint64_t *tags = tags_.data() + set * ways_;
    std::uint64_t *stamps = stamps_.data() + set * ways_;
    const std::uint64_t hit = ghostHitScan(tags, stamps, ways_, tag);
    if (hit != 0) {
        stamps[hit - 1] = ++stamp_;
        return true;
    }
    // Strict < keeps the lowest-index minimum, and stamp 0
    // (invalid) always loses to any valid stamp — the same victim
    // TagArray::chooseVictim picks.
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < ways_; ++w)
        victim = stamps[w] < stamps[victim] ? w : victim;
    tags[victim] = tag;
    stamps[victim] = ++stamp_;
    return false;
}

bool
GhostTagArray::touchOnlyAt(std::uint64_t set, std::uint64_t tag)
{
    std::uint64_t *tags = tags_.data() + set * ways_;
    std::uint64_t *stamps = stamps_.data() + set * ways_;
    const std::uint64_t hit = ghostHitScan(tags, stamps, ways_, tag);
    if (hit == 0)
        return false;
    stamps[hit - 1] = ++stamp_;
    return true;
}

std::uint64_t
GhostTagArray::validCount() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t s : stamps_)
        if (s != 0)
            ++n;
    return n;
}

std::vector<GhostLine>
GhostTagArray::validLines() const
{
    std::vector<GhostLine> lines;
    lines.reserve(validCount());
    for (std::size_t i = 0; i < stamps_.size(); ++i)
        if (stamps_[i] != 0)
            lines.push_back({i / ways_, tags_[i], stamps_[i]});
    std::sort(lines.begin(), lines.end(),
              [](const GhostLine &a, const GhostLine &b) {
                  return a.stamp < b.stamp;
              });
    return lines;
}

GhostPolicies
GhostPolicies::fromLevel(const cache::CacheParams &level,
                         std::uint32_t max_assoc)
{
    if (level.isSubBlocked())
        mlc_panic("one-pass engine: level '", level.name,
                  "' uses sub-blocking, which ghost tag arrays "
                  "cannot model exactly; use the timing engine");
    if (level.prefetchNextBlock)
        mlc_panic("one-pass engine: level '", level.name,
                  "' prefetches, which ghost tag arrays cannot "
                  "model exactly; use the timing engine");
    if (level.fetchBytes != 0 &&
        level.fetchBytes != level.geometry.blockBytes)
        mlc_panic("one-pass engine: level '", level.name,
                  "' fetch size ", level.fetchBytes,
                  " differs from its block size ",
                  level.geometry.blockBytes,
                  "; multi-block fetch groups are not modelled");
    if (max_assoc > 1 && level.replPolicy != cache::ReplPolicy::LRU)
        mlc_panic("one-pass engine: level '", level.name, "' uses ",
                  cache::replPolicyName(level.replPolicy),
                  " replacement; only LRU (or direct-mapped, where "
                  "the policy is moot) is exact in one pass");

    GhostPolicies p;
    p.alloc = level.allocPolicy;
    p.downstreamWriteMiss = level.downstreamWriteMiss;
    return p;
}

GhostTagForest::GhostTagForest(std::vector<GhostCacheSpec> specs,
                               GhostPolicies policies,
                               std::size_t shard, std::size_t shards)
    : specs_(std::move(specs)), policies_(policies), shard_(shard)
{
    if (specs_.empty())
        mlc_panic("GhostTagForest needs at least one config");
    if (shard >= shards)
        mlc_panic("GhostTagForest: no slice ", shard, " of ", shards);
    members_.reserve(specs_.size());
    counts_.resize(specs_.size());
    for (const GhostCacheSpec &spec : specs_) {
        const std::uint64_t sets = setsOf(spec);
        const std::uint64_t slices =
            std::min<std::uint64_t>(shards, sets);
        // A member split fewer ways than this slice's index owns no
        // set here: it keeps one row it never touches.
        members_.push_back(
            {GhostTagArray(shard < slices ? divCeil(sets, slices) : 1,
                           spec.assoc),
             sets - 1, FixedDivisor(slices)});
    }
    for (const BlockGroup &g : blockGroups(specs_)) {
        Group group{exactLog2(g.blockBytes), {}};
        for (const std::size_t m : g.members)
            if (shard < members_[m].slices.divisor())
                group.members.push_back(m);
        if (!group.members.empty())
            groups_.push_back(std::move(group));
    }
}

template <typename Fn>
void
GhostTagForest::forOwners(Addr addr, Fn &&fn)
{
    for (const Group &g : groups_) {
        const std::uint64_t block = addr >> g.blockShift;
        for (const std::size_t m : g.members) {
            Member &mem = members_[m];
            const std::uint64_t set = block & mem.setMask;
            const std::uint64_t row = mem.slices.div(set);
            if (set - row * mem.slices.divisor() == shard_)
                fn(mem.array, row, block, counts_[m]);
        }
    }
}

void
GhostTagForest::read(Addr addr, bool counted)
{
    forOwners(addr, [counted](GhostTagArray &a, std::uint64_t row,
                              std::uint64_t block, GhostCounts &c) {
        tally(c, counted, a.touchOrInstallAt(row, block));
    });
}

void
GhostTagForest::fill(Addr addr)
{
    read(addr, false);
}

void
GhostTagForest::write(Addr addr)
{
    const bool allocate =
        policies_.downstreamWriteMiss ==
        cache::DownstreamWriteMissPolicy::Allocate;
    forOwners(addr, [allocate](GhostTagArray &a, std::uint64_t row,
                               std::uint64_t block, GhostCounts &) {
        allocate ? a.touchOrInstallAt(row, block)
                 : a.touchOnlyAt(row, block);
    });
}

void
GhostTagForest::soloAccess(const trace::MemRef &ref)
{
    // A store hit touches the line either way; a miss allocates
    // only under write-allocate (a no-write-allocate miss forwards
    // downstream and leaves the tags alone) — cache::Cache::access.
    const bool is_read = ref.isRead();
    const bool install =
        is_read || policies_.alloc == cache::AllocPolicy::WriteAllocate;
    forOwners(ref.addr, [is_read, install](GhostTagArray &a,
                                           std::uint64_t row,
                                           std::uint64_t block,
                                           GhostCounts &c) {
        tally(c, is_read, install ? a.touchOrInstallAt(row, block)
                                  : a.touchOnlyAt(row, block));
    });
}

void
GhostTagForest::resetCounts()
{
    for (GhostCounts &c : counts_)
        c = GhostCounts{};
}

const GhostCounts &
GhostTagForest::counts(std::size_t config) const
{
    if (config >= counts_.size())
        mlc_panic("GhostTagForest::counts index ", config,
                  " out of range (", counts_.size(), " configs)");
    return counts_[config];
}

} // namespace onepass
} // namespace mlc
