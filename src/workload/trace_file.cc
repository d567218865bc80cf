#include "workload/trace_file.hh"

#include "common/logging.hh"

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
         << record.gap << ' ' << record.flipDensity << '\n';
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
    : in_(path)
{
    if (!in_)
        SDPCM_FATAL("cannot open trace file for reading: ", path);
}

bool
TraceFileStream::next(TraceRecord& record)
{
    std::string token;
    while (in_ >> token) {
        if (token == "#") {
            std::string rest;
            std::getline(in_, rest);
            continue;
        }
        if (token != "R" && token != "W") {
            SDPCM_WARN("malformed trace token: ", token);
            return false;
        }
        record.isWrite = token == "W";
        if (!(in_ >> record.vaddr >> record.gap >> record.flipDensity)) {
            SDPCM_WARN("truncated trace record");
            return false;
        }
        return true;
    }
    return false;
}

} // namespace sdpcm
