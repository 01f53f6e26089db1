#include "trace/source.hh"

#include <algorithm>
#include <fstream>
#include <utility>

#include "trace/binary.hh"
#include "trace/compressed.hh"
#include "trace/dinero.hh"
#include "util/logging.hh"
#include "util/str.hh"

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

namespace {

/** A format's reader together with the file it reads. */
template <typename Reader>
struct FileSource : TraceSource
{
    explicit FileSource(std::ifstream f) : file(std::move(f)), reader(file)
    {}
    bool next(MemRef &ref) override { return reader.next(ref); }

    std::ifstream file;
    Reader reader;
};

} // namespace

TraceFormat
formatOf(std::string_view path)
{
    if (endsWith(path, ".din") || endsWith(path, ".din.txt"))
        return TraceFormat::Dinero;
    if (endsWith(path, ".mlcz"))
        return TraceFormat::Compressed;
    return TraceFormat::Binary;
}

std::unique_ptr<TraceSource>
openTraceFile(const std::string &path)
{
    const TraceFormat format = formatOf(path);
    std::ifstream file(path, format == TraceFormat::Dinero
                                 ? std::ios::in
                                 : std::ios::in | std::ios::binary);
    if (!file)
        mlc_fatal(path, ": cannot open trace file");
    switch (format) {
      case TraceFormat::Dinero:
        return std::make_unique<FileSource<DineroReader>>(
            std::move(file));
      case TraceFormat::Compressed:
        return std::make_unique<FileSource<CompressedReader>>(
            std::move(file));
      case TraceFormat::Binary:
        break;
    }
    return std::make_unique<FileSource<BinaryReader>>(std::move(file));
}

std::string
fileStem(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    std::string name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = name.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        name = name.substr(0, dot);
    return name;
}

} // namespace trace
} // namespace mlc
