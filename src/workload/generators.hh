/**
 * @file
 * Synthetic workload generators calibrated to Table 3.
 *
 * Each SPEC2006 program is modelled by a profile: main-memory RPKI/WPKI
 * (taken verbatim from Table 3), a virtual footprint, a hot-set locality
 * mix, a mean sequential run length, and a mean per-write bit-flip density
 * (the paper notes gemsFDTD "changes less bits per write"). STREAM is
 * generated structurally: the four kernels sweep their arrays, reading
 * source lines and writing destination lines.
 */

#ifndef SDPCM_WORKLOAD_GENERATORS_HH
#define SDPCM_WORKLOAD_GENERATORS_HH

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "workload/trace.hh"

namespace sdpcm {

/** Calibrated description of one benchmark's memory behaviour. */
struct WorkloadProfile
{
    std::string name;
    double rpki = 1.0;            //!< reads per 1000 instructions
    double wpki = 1.0;            //!< writes per 1000 instructions
    std::uint64_t footprintBytes = 32ULL << 20;
    double hotFraction = 0.3;     //!< accesses hitting the hot set
    double hotSetFraction = 0.1;  //!< hot set size / footprint
    double seqRunMean = 8.0;      //!< mean sequential run, in lines
    double flipDensity = 0.10;    //!< mean fraction of bits per write

    double
    apki() const
    {
        return rpki + wpki;
    }
};

/** The simulated applications of Table 3 (8 SPEC2006 + STREAM). */
const std::vector<WorkloadProfile>& table3Profiles();

/** Look up a profile by name (fatal if unknown). */
const WorkloadProfile& profileByName(const std::string& name);

/** Locality/rate-profiled generator for the SPEC-like workloads. */
class SyntheticTraceGenerator : public TraceStream
{
  public:
    SyntheticTraceGenerator(const WorkloadProfile& profile,
                            std::uint64_t seed);

    bool next(TraceRecord& record) override;

    const WorkloadProfile& profile() const { return profile_; }

  private:
    std::uint64_t pickRunStart();

    WorkloadProfile profile_;
    Rng rng_;
    std::uint64_t footprintLines_;
    std::uint64_t hotLines_;
    // Each record's fixed-probability draws.
    Rng::Chance hot_;          //!< a run starts in the hot set
    Rng::Geometric runLength_; //!< a run's lines beyond its first
    Rng::Chance write_;        //!< a reference is a write
    Rng::Geometric gap_;       //!< instructions before a reference
    // Current sequential run.
    std::uint64_t runLine_ = 0;
    std::uint64_t runRemaining_ = 0;
};

/**
 * Adversarial queue-stress generator ("qstress"): hammers a tiny hot set
 * of lines laid out as bit-line-adjacent page pairs (virtual pages v and
 * v+16, which land on the same bank in adjacent device rows under the
 * frame-interleaved mapping) with a write-heavy, almost gap-free mix.
 * Per-bank write queues stay full, so drains, coalesces, duplicate
 * entries from write cancellation, PreRead forwarding and buffer
 * refreshes all fire constantly — the maximum-race diet for the
 * integrity oracle. Not a Table 3 workload; use with `--verify-oracle`.
 */
class QueueStressGenerator : public TraceStream
{
  public:
    explicit QueueStressGenerator(std::uint64_t seed);

    bool next(TraceRecord& record) override;

  private:
    Rng rng_;
    std::uint64_t churn_ = 0; //!< sequential cold-line cursor
};

/**
 * Structural STREAM generator: copy, scale, add and triad sweep three
 * arrays; every 64B line of a source is read and of a destination written
 * once per pass (the caches filter everything else), with instruction
 * gaps matching the Table 3 rates.
 */
class StreamTraceGenerator : public TraceStream
{
  public:
    StreamTraceGenerator(std::uint64_t array_bytes, double apki,
                         std::uint64_t seed);

    bool next(TraceRecord& record) override;

  private:
    std::uint64_t arrayLines_;
    Rng rng_;
    Rng::Geometric gap_; //!< instructions before a reference
    unsigned kernel_ = 0;     //!< 0 copy, 1 scale, 2 add, 3 triad
    std::uint64_t index_ = 0; //!< line index within the pass
    unsigned step_ = 0;       //!< position within the kernel's R/W pattern
};

} // namespace sdpcm

#endif // SDPCM_WORKLOAD_GENERATORS_HH
