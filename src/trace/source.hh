/**
 * @file
 * Trace source/sink interfaces, the in-memory sources, and the
 * opener that reads a trace file in the format its name names.
 *
 * A TraceSource produces MemRefs — one at a time through next(),
 * or many per call through nextBatch() for hot-path consumers; file
 * readers are finite, synthetic generators are unbounded. A
 * TraceSink consumes them (the file writers). The simulator
 * pulls from whatever source it is given, so workloads, files and
 * test vectors are interchangeable.
 */

#ifndef MLC_TRACE_SOURCE_HH
#define MLC_TRACE_SOURCE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/mem_ref.hh"

namespace mlc {
namespace trace {

/** Pull-style producer of memory references. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next reference.
     * @param ref receives the reference on success.
     * @return false when the source is exhausted.
     */
    virtual bool next(MemRef &ref) = 0;

    /**
     * Produce up to @p n references into @p out.
     *
     * The batch API is what keeps virtual dispatch off the replay
     * hot path: consumers pull a few hundred references per call
     * and iterate them as a plain array. The default implementation
     * is a scalar loop over next(), so every source supports
     * batching; contiguous sources (VectorSource, mapped binary
     * traces) override it with a single copy.
     *
     * @return the number of references produced; 0 means exhausted
     *         (a short count by itself does not — callers keep
     *         pulling until they see 0).
     */
    virtual std::size_t
    nextBatch(MemRef *out, std::size_t n)
    {
        std::size_t got = 0;
        while (got < n && next(out[got]))
            ++got;
        return got;
    }
};

/** Push-style consumer of memory references. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Consume one reference. */
    virtual void put(const MemRef &ref) = 0;
};

/** A source backed by an in-memory vector (tests, replay). */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(std::vector<MemRef> refs)
        : refs_(std::move(refs))
    {}

    bool
    next(MemRef &ref) override
    {
        if (pos_ >= refs_.size())
            return false;
        ref = refs_[pos_++];
        return true;
    }

    std::size_t
    nextBatch(MemRef *out, std::size_t n) override
    {
        const std::size_t got =
            std::min(n, refs_.size() - pos_);
        std::copy(refs_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  refs_.begin() +
                      static_cast<std::ptrdiff_t>(pos_ + got),
                  out);
        pos_ += got;
        return got;
    }

    /** Zero-copy view of the whole backing vector; consumers that
     *  can iterate an array should prefer this over next(). */
    RefSpan span() const { return {refs_.data(), refs_.size()}; }

    /** The not-yet-consumed tail as a zero-copy view. */
    RefSpan remaining() const
    {
        return {refs_.data() + pos_, refs_.size() - pos_};
    }

    /** Rewind to the beginning (replay for solo co-simulation). */
    void rewind() { pos_ = 0; }

  private:
    std::vector<MemRef> refs_;
    std::size_t pos_ = 0;
};

/**
 * A non-owning source over a RefSpan (adapts zero-copy views to
 * the pull interface where a TraceSource is still required). The
 * underlying storage must outlive the source.
 */
class SpanSource : public TraceSource
{
  public:
    explicit SpanSource(RefSpan span) : span_(span) {}

    bool
    next(MemRef &ref) override
    {
        if (pos_ >= span_.size)
            return false;
        ref = span_[pos_++];
        return true;
    }

    std::size_t
    nextBatch(MemRef *out, std::size_t n) override
    {
        const std::size_t got = std::min(n, span_.size - pos_);
        std::copy(span_.data + pos_, span_.data + pos_ + got, out);
        pos_ += got;
        return got;
    }

    /** The not-yet-consumed tail as a zero-copy view. */
    RefSpan remaining() const { return span_.dropFirst(pos_); }

    void rewind() { pos_ = 0; }

  private:
    RefSpan span_;
    std::size_t pos_ = 0;
};

/** Collect up to @p limit references into a vector. */
std::vector<MemRef> collect(TraceSource &source, std::uint64_t limit);

/**
 * The format a trace file's name names, the one rule every tool
 * follows: `.din` or `.din.txt` is Dinero ASCII (dinero.hh),
 * `.mlcz` compressed binary (compressed.hh), anything else MLCT
 * binary (binary.hh), the one format MappedBinaryTrace maps.
 */
enum class TraceFormat { Binary, Compressed, Dinero };
TraceFormat formatOf(std::string_view path);

/** True when @p path names an MLCT binary trace. */
inline bool
isMappable(std::string_view path)
{
    return formatOf(path) == TraceFormat::Binary;
}

/** Open @p path in the format its name names. A file that cannot
 *  be opened is fatal, as is a bad header (in each reader). */
std::unique_ptr<TraceSource> openTraceFile(const std::string &path);

/** The file name without directory or last extension
 *  ("/a/b/t0.mlct" -> "t0"): a file-backed trace's workload tag. */
std::string fileStem(const std::string &path);

} // namespace trace
} // namespace mlc

#endif // MLC_TRACE_SOURCE_HH
