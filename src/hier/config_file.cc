#include "hier/config_file.hh"

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "util/logging.hh"
#include "util/str.hh"
#include "util/units.hh"

namespace mlc {
namespace hier {

namespace {

/** Parsed key/value pairs with consumption tracking. */
class KeyValues
{
  public:
    void
    add(const std::string &key, const std::string &value,
        std::uint64_t line)
    {
        if (pairs_.count(key))
            mlc_fatal("config line ", line, ": duplicate key '",
                      key, "'");
        pairs_[key] = value;
    }

    bool
    has(const std::string &key) const
    {
        return pairs_.count(key) != 0;
    }

    /** Fetch and mark consumed; empty optional semantics via has(). */
    std::string
    take(const std::string &key)
    {
        consumed_.insert(pairs_.find(key)->first);
        return pairs_.at(key);
    }

    /** Any key never consumed is a typo: report and die. */
    void
    checkAllConsumed() const
    {
        for (const auto &[key, value] : pairs_) {
            if (!consumed_.count(key))
                mlc_fatal("config: unknown key '", key, "'");
        }
    }

    /** True if any key starts with the given prefix. */
    bool
    hasPrefix(const std::string &prefix) const
    {
        auto it = pairs_.lower_bound(prefix);
        return it != pairs_.end() && startsWith(it->first, prefix);
    }

  private:
    std::map<std::string, std::string> pairs_;
    std::set<std::string> consumed_;
};

std::uint64_t
takeSize(KeyValues &kv, const std::string &key, std::uint64_t dflt)
{
    if (!kv.has(key))
        return dflt;
    return parseSizeOrFatal(kv.take(key), key);
}

double
takeDuration(KeyValues &kv, const std::string &key, double dflt)
{
    if (!kv.has(key))
        return dflt;
    return parseDurationOrFatal(kv.take(key), key);
}

std::uint64_t
takeUnsigned(KeyValues &kv, const std::string &key,
             std::uint64_t dflt)
{
    if (!kv.has(key))
        return dflt;
    const std::string text = kv.take(key);
    unsigned long long v = 0;
    if (!parseUnsigned(text, v))
        mlc_fatal("config: bad integer for ", key, ": '", text, "'");
    return v;
}

bool
takeBool(KeyValues &kv, const std::string &key, bool dflt)
{
    if (!kv.has(key))
        return dflt;
    const std::string text = toLower(kv.take(key));
    if (text == "true" || text == "1" || text == "yes")
        return true;
    if (text == "false" || text == "0" || text == "no")
        return false;
    mlc_fatal("config: bad boolean for ", key, ": '", text, "'");
}

void
applyCacheKeys(KeyValues &kv, const std::string &prefix,
               cache::CacheParams &c)
{
    c.geometry.sizeBytes =
        takeSize(kv, prefix + ".size", c.geometry.sizeBytes);
    c.geometry.blockBytes = static_cast<std::uint32_t>(
        takeSize(kv, prefix + ".block", c.geometry.blockBytes));
    c.geometry.assoc = static_cast<std::uint32_t>(
        takeUnsigned(kv, prefix + ".assoc", c.geometry.assoc));
    c.fetchBytes = static_cast<std::uint32_t>(
        takeSize(kv, prefix + ".fetch", c.fetchBytes));
    c.cycleNs = takeDuration(kv, prefix + ".cycle", c.cycleNs);
    c.readCycles = static_cast<std::uint32_t>(
        takeUnsigned(kv, prefix + ".read_cycles", c.readCycles));
    c.writeCycles = static_cast<std::uint32_t>(
        takeUnsigned(kv, prefix + ".write_cycles", c.writeCycles));
    c.prefetchNextBlock =
        takeBool(kv, prefix + ".prefetch", c.prefetchNextBlock);

    if (kv.has(prefix + ".write_policy")) {
        const std::string p =
            toLower(kv.take(prefix + ".write_policy"));
        if (p == "write-back" || p == "writeback" || p == "wb")
            c.writePolicy = cache::WritePolicy::WriteBack;
        else if (p == "write-through" || p == "writethrough" ||
                 p == "wt")
            c.writePolicy = cache::WritePolicy::WriteThrough;
        else
            mlc_fatal("config: bad write policy '", p, "'");
    }
    if (kv.has(prefix + ".alloc_policy")) {
        const std::string p =
            toLower(kv.take(prefix + ".alloc_policy"));
        if (p == "write-allocate" || p == "allocate" || p == "wa")
            c.allocPolicy = cache::AllocPolicy::WriteAllocate;
        else if (p == "no-write-allocate" || p == "no-allocate" ||
                 p == "nwa")
            c.allocPolicy = cache::AllocPolicy::NoWriteAllocate;
        else
            mlc_fatal("config: bad allocation policy '", p, "'");
    }
    if (kv.has(prefix + ".victim_miss")) {
        const std::string p =
            toLower(kv.take(prefix + ".victim_miss"));
        if (p == "around")
            c.downstreamWriteMiss =
                cache::DownstreamWriteMissPolicy::Around;
        else if (p == "allocate")
            c.downstreamWriteMiss =
                cache::DownstreamWriteMissPolicy::Allocate;
        else
            mlc_fatal("config: bad victim-miss policy '", p, "'");
    }
    if (kv.has(prefix + ".repl")) {
        const std::string p = toLower(kv.take(prefix + ".repl"));
        if (p == "lru")
            c.replPolicy = cache::ReplPolicy::LRU;
        else if (p == "fifo")
            c.replPolicy = cache::ReplPolicy::FIFO;
        else if (p == "random")
            c.replPolicy = cache::ReplPolicy::Random;
        else
            mlc_fatal("config: bad replacement policy '", p, "'");
    }
}

} // namespace

HierarchyParams
parseConfig(std::istream &is)
{
    KeyValues kv;
    std::string text;
    std::uint64_t line_no = 0;
    while (std::getline(is, text)) {
        ++line_no;
        const std::string stripped = trim(text);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        const auto eq = stripped.find('=');
        if (eq == std::string::npos)
            mlc_fatal("config line ", line_no,
                      ": expected key = value, got '", stripped,
                      "'");
        const std::string key =
            toLower(trim(stripped.substr(0, eq)));
        const std::string value = trim(stripped.substr(eq + 1));
        if (key.empty() || value.empty())
            mlc_fatal("config line ", line_no,
                      ": empty key or value");
        kv.add(key, value, line_no);
    }

    HierarchyParams p = HierarchyParams::baseMachine();

    p.cpuCycleNs = takeDuration(kv, "cpu.cycle", p.cpuCycleNs);
    p.splitL1 = takeBool(kv, "l1.split", p.splitL1);
    if (p.splitL1) {
        applyCacheKeys(kv, "l1i", p.l1i);
        applyCacheKeys(kv, "l1d", p.l1d);
    } else {
        p.l1d.name = "l1";
        applyCacheKeys(kv, "l1", p.l1d);
    }

    // Downstream levels: l2 is present in the base machine; deeper
    // levels are appended for each contiguous lN section found.
    applyCacheKeys(kv, "l2", p.levels[0]);
    for (int n = 3; kv.hasPrefix("l" + std::to_string(n) + ".");
         ++n) {
        cache::CacheParams deeper = p.levels.back();
        deeper.name = "l" + std::to_string(n);
        applyCacheKeys(kv, deeper.name, deeper);
        p.levels.push_back(deeper);
        p.busWidthWords.push_back(p.busWidthWords.back());
    }

    for (std::size_t i = 0; i < p.levels.size(); ++i) {
        const std::string key =
            "bus.l" + std::to_string(i + 2) + ".words";
        p.busWidthWords[i] = static_cast<std::uint32_t>(
            takeUnsigned(kv, key, p.busWidthWords[i]));
    }
    p.busWidthWords.back() = static_cast<std::uint32_t>(
        takeUnsigned(kv, "bus.memory.words",
                     p.busWidthWords.back()));

    p.backplaneCycleNs = takeDuration(kv, "bus.memory.cycle",
                                      p.backplaneCycleNs);
    p.memory.readNs =
        takeDuration(kv, "memory.read", p.memory.readNs);
    p.memory.writeNs =
        takeDuration(kv, "memory.write", p.memory.writeNs);
    p.memory.interOpGapNs =
        takeDuration(kv, "memory.gap", p.memory.interOpGapNs);

    p.writeBufferDepth = takeUnsigned(kv, "wbuffer.depth",
                                      p.writeBufferDepth);
    p.measureSolo = takeBool(kv, "measure.solo", p.measureSolo);

    kv.checkAllConsumed();
    p.finalize();
    return p;
}

HierarchyParams
parseConfigFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        mlc_fatal("cannot open config file '", path, "'");
    return parseConfig(is);
}

void
writeConfig(std::ostream &os, const HierarchyParams &params)
{
    os << "cpu.cycle = " << params.cpuCycleNs << "ns\n";
    os << "l1.split = " << (params.splitL1 ? "true" : "false")
       << "\n";

    auto emitCache = [&os](const std::string &prefix,
                           const cache::CacheParams &c) {
        os << prefix << ".size = " << c.geometry.sizeBytes << "\n"
           << prefix << ".block = " << c.geometry.blockBytes << "\n"
           << prefix << ".assoc = " << c.geometry.assoc << "\n"
           << prefix << ".cycle = " << c.cycleNs << "ns\n"
           << prefix << ".read_cycles = " << c.readCycles << "\n"
           << prefix << ".write_cycles = " << c.writeCycles << "\n"
           << prefix << ".write_policy = "
           << cache::writePolicyName(c.writePolicy) << "\n"
           << prefix << ".alloc_policy = "
           << cache::allocPolicyName(c.allocPolicy) << "\n"
           << prefix << ".repl = "
           << cache::replPolicyName(c.replPolicy) << "\n"
           << prefix << ".victim_miss = "
           << cache::downstreamWriteMissPolicyName(
                  c.downstreamWriteMiss)
           << "\n";
        if (c.fetchBytes != 0 &&
            c.fetchBytes != c.geometry.blockBytes)
            os << prefix << ".fetch = " << c.fetchBytes << "\n";
        if (c.prefetchNextBlock)
            os << prefix << ".prefetch = true\n";
    };

    if (params.splitL1) {
        emitCache("l1i", params.l1i);
        emitCache("l1d", params.l1d);
    } else {
        emitCache("l1", params.l1d);
    }
    for (std::size_t i = 0; i < params.levels.size(); ++i) {
        std::string name = "l";
        name += std::to_string(i + 2);
        emitCache(name, params.levels[i]);
    }

    for (std::size_t i = 0; i < params.levels.size(); ++i)
        os << "bus.l" << i + 2
           << ".words = " << params.busWidthWords[i] << "\n";
    os << "bus.memory.words = " << params.busWidthWords.back()
       << "\n";
    if (params.backplaneCycleNs > 0.0)
        os << "bus.memory.cycle = " << params.backplaneCycleNs
           << "ns\n";

    os << "memory.read = " << params.memory.readNs << "ns\n"
       << "memory.write = " << params.memory.writeNs << "ns\n"
       << "memory.gap = " << params.memory.interOpGapNs << "ns\n"
       << "wbuffer.depth = " << params.writeBufferDepth << "\n";
    if (params.measureSolo)
        os << "measure.solo = true\n";
}

} // namespace hier
} // namespace mlc
