/**
 * @file
 * Trace capture and replay.
 *
 * The paper captured PIN traces once and replayed them across schemes;
 * this pair of classes gives the same workflow: TraceFileWriter records
 * any TraceStream to a text file (one record per line: `R|W vaddr gap
 * flip_density`, densities in shortest round-trip form), and
 * TraceFileStream replays it. Replaying a capture reproduces the live
 * run exactly, and every scheme sees the *identical* reference stream
 * even across library versions.
 */

#ifndef SDPCM_WORKLOAD_TRACE_FILE_HH
#define SDPCM_WORKLOAD_TRACE_FILE_HH

#include <fstream>
#include <string>

#include "workload/trace.hh"

namespace sdpcm {

/** Write trace records to a text file. */
class TraceFileWriter
{
  public:
    explicit TraceFileWriter(const std::string& path);

    /** Append one record. */
    void write(const TraceRecord& record);

    /** Capture `count` records from a stream. @return records written */
    std::uint64_t capture(TraceStream& source, std::uint64_t count);

  private:
    std::ofstream out_;
};

/**
 * Replay a trace file as a TraceStream. Blank lines and lines starting
 * with '#' are skipped; any other line must be one whole record, read
 * with ArgParser's strict readers (vaddr >= 0, gap <= 2^32-1, density
 * in [0, 1]), or the replay is fatal, naming the file and line.
 */
class TraceFileStream : public TraceStream
{
  public:
    explicit TraceFileStream(const std::string& path);

    bool next(TraceRecord& record) override;

  private:
    std::string path_;
    std::ifstream in_;
    std::uint64_t line_ = 0; //!< lines read so far
};

} // namespace sdpcm

#endif // SDPCM_WORKLOAD_TRACE_FILE_HH
