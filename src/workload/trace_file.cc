#include "workload/trace_file.hh"

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "common/args.hh"
#include "common/logging.hh"
#include "obs/json.hh"

namespace sdpcm {

TraceFileWriter::TraceFileWriter(const std::string& path)
    : out_(path)
{
    if (!out_)
        SDPCM_FATAL("cannot open trace file for writing: ", path);
    out_ << "# sdpcm trace v1: R|W vaddr gap flip_density\n";
}

void
TraceFileWriter::write(const TraceRecord& record)
{
    out_ << (record.isWrite ? 'W' : 'R') << ' ' << record.vaddr << ' '
         << record.gap << ' ';
    json::writeNumber(out_, record.flipDensity);
    out_ << '\n';
}

std::uint64_t
TraceFileWriter::capture(TraceStream& source, std::uint64_t count)
{
    TraceRecord record;
    std::uint64_t written = 0;
    while (written < count && source.next(record)) {
        write(record);
        written += 1;
    }
    out_.flush();
    return written;
}

TraceFileStream::TraceFileStream(const std::string& path)
    : path_(path),
      in_(path)
{
    if (!in_)
        SDPCM_FATAL("cannot open trace file for reading: ", path);
}

bool
TraceFileStream::next(TraceRecord& record)
{
    for (std::string text; std::getline(in_, text);) {
        line_ += 1;
        std::istringstream fields(text);
        std::string kind, vaddr, gap, density, extra;
        if (!(fields >> kind) || kind[0] == '#')
            continue; // blank line or comment
        try {
            if ((kind != "R" && kind != "W") ||
                !(fields >> vaddr >> gap >> density) || fields >> extra)
                throw std::invalid_argument("want 'R|W vaddr gap "
                                            "flip_density'");
            const std::int64_t addr = ArgParser::parseInt(vaddr);
            const std::int64_t instrs = ArgParser::parseInt(gap);
            record.flipDensity = ArgParser::parseDouble(density);
            if (addr < 0)
                throw std::invalid_argument("vaddr must be >= 0");
            if (instrs < 0 || instrs > std::int64_t{UINT32_MAX})
                throw std::invalid_argument(
                    "gap must be in [0, 4294967295]");
            if (!(record.flipDensity >= 0.0 && record.flipDensity <= 1.0))
                throw std::invalid_argument(
                    "flip density must be in [0, 1]");
            record.isWrite = kind == "W";
            record.vaddr = static_cast<std::uint64_t>(addr);
            record.gap = static_cast<std::uint32_t>(instrs);
        } catch (const std::invalid_argument& e) {
            SDPCM_FATAL("bad trace record at ", path_, ":", line_, ": ",
                        e.what());
        }
        return true;
    }
    return false;
}

} // namespace sdpcm
