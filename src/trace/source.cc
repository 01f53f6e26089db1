#include "trace/source.hh"

#include <algorithm>

namespace mlc {
namespace trace {

std::vector<MemRef>
collect(TraceSource &source, std::uint64_t limit)
{
    std::vector<MemRef> out;
    // The limit is a cap, not a size hint — callers pass
    // uint64_max to mean "everything", which must not be reserved.
    out.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(limit, 1u << 20)));
    MemRef ref;
    while (out.size() < limit && source.next(ref))
        out.push_back(ref);
    return out;
}

} // namespace trace
} // namespace mlc
