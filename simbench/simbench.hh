/**
 * @file
 * Shared pieces of the simulator benchmark harness: the cells a
 * workload runs, the simulated-statistics digest that gates output
 * correctness, and the probes that time the simulator's layers from
 * outside (a timing TraceStream decorator, a counting TraceSink, and
 * isolated PcmDevice / DinEncoder drivers).
 *
 * The harness reaches the simulator only through its public API; no
 * probe lives inside src/.
 */

#ifndef SDPCM_SIMBENCH_HH
#define SDPCM_SIMBENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/runner.hh"

namespace simbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Median of a non-empty sample. */
double median(std::vector<double> values);

/**
 * A fixed host workload shaped like the simulator's hot loop: an event
 * heap feeding random lookups, bit updates and neighbour reads in a
 * table of 64-byte lines about as large as a run's line table. Other
 * tenants of a shared host slow it and the simulator alike, so a pass
 * timed on each side of a repetition gauges the host's speed during
 * that repetition. It lives in the benchmark, so no change to the
 * simulator changes it.
 */
class HostGauge
{
  public:
    /** One pass's time on the host the figures are scaled to. */
    static constexpr double kNominalS = 0.1;

    HostGauge(); //!< builds the table; untimed

    /** Host seconds of one pass. */
    double seconds();

  private:
    std::unordered_map<std::uint64_t, std::array<std::uint64_t, 8>> lines_;
};

/**
 * Mean host seconds of one HostGauge pass on each of `threads` threads
 * run at once. The gauges live in a child process, so their tables never
 * count toward this process's peak RSS; the child has ended on return.
 */
double gaugeSeconds(unsigned threads);

/**
 * `work` per host second, scaled to the gauge's nominal host: the median
 * over repetitions i of work / run_s[i] * g_i / kNominalS, where g_i is
 * the mean of the gauge passes just before and just after repetition i
 * (gauge_s holds one more pass than run_s).
 */
double gaugedRate(double work, const std::vector<double>& run_s,
                  const std::vector<double>& gauge_s);

/** Simulated cores per run (Table 2). */
inline constexpr unsigned kCores = 8;

/** One (scheme, Table 3 profile) simulation at a fixed run length. */
struct Cell
{
    sdpcm::SchemeConfig scheme;
    std::string profile;
    std::uint64_t refsPerCore = 0;

    /** Stable key of the cell's recorded digests. */
    std::string id() const;
};

/** Observers a run turns on; all of them observe and never perturb. */
struct Observers
{
    bool spans = false;
    bool telemetry = false; //!< telemetry frames plus one monitor rule
    bool ledger = false;    //!< WD ledger plus per-line counters
    bool profiler = false;  //!< sampled host-time profiler

    static Observers all() { return {true, true, true, true}; }
};

/** The SystemConfig runOne() would build for this cell. */
sdpcm::SystemConfig systemConfig(const Cell& cell, std::uint64_t seed,
                                 const Observers& observers,
                                 bool verify_oracle);

/** The same knobs as a RunnerConfig, for runMatrix(). */
sdpcm::RunnerConfig runnerConfig(std::uint64_t refs_per_core,
                                 std::uint64_t seed, unsigned jobs);

/**
 * FNV-1a digest of every simulated statistic of a run: all snapshot
 * keys except the host-time families (prof.*, host.*) and the families
 * only an observer emits (span.*, telemetry.*, mon.*, wd.*, wear.*,
 * oracle.*, epoch.*). A run with observers on must therefore digest
 * exactly like the same run with them off.
 */
std::uint64_t simDigest(const sdpcm::RunMetrics& metrics);

/** True when every core of the run replayed its whole trace. */
bool coresFinished(const sdpcm::RunMetrics& metrics);

/** Resident set size of this process now, and its peak, in bytes. */
std::uint64_t currentRssBytes();
std::uint64_t peakRssBytes();

/** Host cost of one steady_clock interval around no work, in ns. */
double emptyIntervalNs();

/** Calls, records and host ns summed over decorated trace streams. */
struct StreamTally
{
    std::uint64_t calls = 0;
    std::uint64_t records = 0;
    std::uint64_t ns = 0;
};

/** The workload with every core's TraceStream wrapped in a timer. */
sdpcm::WorkloadSpec timedWorkload(const sdpcm::WorkloadSpec& base,
                                  StreamTally& tally);

/** TraceSink that counts the controller's bank operations by name. */
class CountingSink final : public sdpcm::TraceSink
{
  public:
    void threadName(unsigned, const std::string&) override {}
    void begin(unsigned tid, const char* name, const char* cat,
               sdpcm::Tick ts,
               std::initializer_list<sdpcm::TraceArg> args) override;
    void end(unsigned, sdpcm::Tick,
             std::initializer_list<sdpcm::TraceArg>) override {}
    void instant(unsigned, const char*, const char*, sdpcm::Tick,
                 std::initializer_list<sdpcm::TraceArg>) override {}
    void counter(const char*, sdpcm::Tick,
                 std::initializer_list<sdpcm::TraceArg>) override {}

    /** "bank" duration events by operation name. */
    std::map<std::string, std::uint64_t> bankOps() const;

  private:
    // Emitters pass string literals, so the hot path counts by pointer
    // and the names are merged only when read.
    std::unordered_map<const char*, std::uint64_t> bankOps_;
};

/** Mean host ns per isolated device call on the cell's traffic. */
struct DeviceProbe
{
    double readNs = 0.0;   //!< readLine
    double writeNs = 0.0;  //!< planWriteInto + applyNextRound* + finishWrite
    double verifyNs = 0.0; //!< verifyLineInto on the bit-line neighbour
};

/**
 * Replay core 0's trace of the cell against a stand-alone PcmDevice
 * configured as System would, timing each call; median of `reps`
 * replays on fresh devices.
 */
DeviceProbe probeDevice(const Cell& cell, std::uint64_t seed,
                        unsigned reps);

/**
 * Mean host ns of DinEncoder::encode at the flip density of the cell's
 * writes; median of `reps` batches.
 */
double probeDinEncode(const Cell& cell, std::uint64_t seed, unsigned reps);

} // namespace simbench

#endif // SDPCM_SIMBENCH_HH
