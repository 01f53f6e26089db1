/**
 * @file
 * The memory-reference record that flows through every trace source,
 * filter and simulator in the library.
 *
 * Following the paper, miss ratios are computed over *read* requests
 * (loads and instruction fetches) only; MemRef::isRead captures that
 * definition in one place.
 */

#ifndef MLC_TRACE_MEM_REF_HH
#define MLC_TRACE_MEM_REF_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mlc {

/** Byte address within the simulated physical address space. */
using Addr = std::uint64_t;

namespace trace {

/** The three reference types the CPU model issues. */
enum class RefType : std::uint8_t {
    IFetch = 0, //!< instruction fetch (a read)
    Load = 1,   //!< data read
    Store = 2,  //!< data write
};

/** Printable name ("ifetch", "load", "store"). */
const char *refTypeName(RefType type);

/** One memory reference. */
struct MemRef
{
    Addr addr = 0;
    RefType type = RefType::IFetch;
    /** Access size in bytes (the paper's machine is word = 4 B). */
    std::uint8_t size = 4;
    /** Originating process for multiprogramming traces. */
    std::uint16_t pid = 0;

    /** Reads are loads and instruction fetches (paper, Section 2). */
    bool isRead() const { return type != RefType::Store; }
    bool isWrite() const { return type == RefType::Store; }
    bool isInst() const { return type == RefType::IFetch; }
    bool isData() const { return type != RefType::IFetch; }

    bool
    operator==(const MemRef &o) const
    {
        return addr == o.addr && type == o.type && size == o.size &&
               pid == o.pid;
    }

    /** Debug representation, e.g. "load 0x1f00 (4B, pid 2)". */
    std::string toString() const;
};

/**
 * A non-owning view over a contiguous run of references — the
 * zero-copy replay currency. Materialized traces, mapped binary
 * files and batch buffers all hand out RefSpans so the simulators
 * iterate plain arrays with no virtual dispatch per reference.
 *
 * (Deliberately a minimal aggregate rather than std::span: the two
 * fields keep aggregate initialization from raw pointer + count
 * trivial at every call site.)
 */
struct RefSpan
{
    const MemRef *data = nullptr;
    std::size_t size = 0;

    RefSpan() = default;
    RefSpan(const MemRef *d, std::size_t n) : data(d), size(n) {}
    /** A whole materialized trace. */
    RefSpan(const std::vector<MemRef> &refs)
        : data(refs.data()), size(refs.size())
    {
    }

    const MemRef *begin() const { return data; }
    const MemRef *end() const { return data + size; }
    bool empty() const { return size == 0; }
    const MemRef &operator[](std::size_t i) const { return data[i]; }

    /** The first @p n references (clamped to the span). */
    RefSpan first(std::size_t n) const
    {
        return {data, n < size ? n : size};
    }
    /** Everything after the first @p n references (clamped). */
    RefSpan dropFirst(std::size_t n) const
    {
        return n < size ? RefSpan{data + n, size - n}
                        : RefSpan{data + size, 0};
    }
};

/** Convenience constructors used heavily in tests. */
inline MemRef
makeLoad(Addr addr, std::uint16_t pid = 0)
{
    return MemRef{addr, RefType::Load, 4, pid};
}

inline MemRef
makeStore(Addr addr, std::uint16_t pid = 0)
{
    return MemRef{addr, RefType::Store, 4, pid};
}

inline MemRef
makeIFetch(Addr addr, std::uint16_t pid = 0)
{
    return MemRef{addr, RefType::IFetch, 4, pid};
}

/** Per-type reference counts accumulated by observation. */
struct RefCounts
{
    std::uint64_t ifetches = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    std::uint64_t total() const { return ifetches + loads + stores; }

    void
    observe(const MemRef &ref)
    {
        switch (ref.type) {
          case RefType::IFetch:
            ++ifetches;
            break;
          case RefType::Load:
            ++loads;
            break;
          case RefType::Store:
            ++stores;
            break;
        }
    }
};

} // namespace trace
} // namespace mlc

#endif // MLC_TRACE_MEM_REF_HH
