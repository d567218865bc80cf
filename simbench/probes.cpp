#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <barrier>
#include <cstring>
#include <fstream>
#include <queue>
#include <thread>
#include <unistd.h>

#include "simbench.hh"
#include "workload/generators.hh"

using namespace sdpcm;

namespace simbench {

namespace {

/** Host-time and observer-only snapshot families (see simDigest). */
constexpr const char* kUndigestedPrefixes[] = {
    "prof.", "host.", "span.", "telemetry.", "mon.",
    "wd.",   "wear.", "oracle.", "epoch.",
};

/** The monitor rule observed runs evaluate; it never fires. */
constexpr const char* kMonitorRule =
    "p99r:p99(ctrl.readLatency)<=1000000000";
constexpr Tick kTelemetryInterval = 100000;

/** Probe results are stored here so the probed calls stay observable. */
volatile std::uint64_t g_probeSink = 0;

bool
undigested(const std::string& key)
{
    for (const char* prefix : kUndigestedPrefixes) {
        if (key.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

void
fnv1a(std::uint64_t& h, const void* data, std::size_t n)
{
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
}

/** Decorator timing every next() of one core's stream. */
class TimedStream final : public TraceStream
{
  public:
    TimedStream(std::unique_ptr<TraceStream> inner, StreamTally& tally)
        : inner_(std::move(inner)), tally_(tally)
    {}

    bool
    next(TraceRecord& record) override
    {
        const Clock::time_point t0 = Clock::now();
        const bool ok = inner_->next(record);
        const Clock::time_point t1 = Clock::now();
        tally_.ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        tally_.calls += 1;
        tally_.records += ok ? 1 : 0;
        return ok;
    }

  private:
    std::unique_ptr<TraceStream> inner_;
    StreamTally& tally_;
};

/** Core 0's first `n` references of the cell's workload. */
std::vector<TraceRecord>
cellTraffic(const Cell& cell, std::uint64_t seed, std::size_t n)
{
    const WorkloadSpec spec = workloadFromProfile(cell.profile);
    const std::unique_ptr<TraceStream> stream = spec.makeStream(0, seed);
    std::vector<TraceRecord> records;
    records.reserve(n);
    TraceRecord r;
    while (records.size() < n && stream->next(r))
        records.push_back(r);
    return records;
}

/** Flip round(density * 512) random cells, as the controller does. */
LineData
mutate(const LineData& base, double density, Rng& rng)
{
    LineData out = base;
    const auto flips = static_cast<unsigned>(density * kLineBits + 0.5);
    for (unsigned i = 0; i < flips; ++i)
        out.flipBit(static_cast<unsigned>(rng.below(kLineBits)));
    return out;
}

double
nsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

} // namespace

double
median(std::vector<double> values)
{
    SDPCM_ASSERT(!values.empty(), "median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

constexpr std::uint64_t kGaugeLines = 150000;
constexpr unsigned kGaugeEvents = 64;
constexpr unsigned kGaugeSteps = 200000;
/** Line keys are spread out as the simulator's line addresses are. */
constexpr std::uint64_t kGaugeStride = 3;

} // namespace

HostGauge::HostGauge()
{
    Rng rng(0x6a09e667f3bcc908ULL);
    lines_.reserve(kGaugeLines);
    for (std::uint64_t i = 0; i < kGaugeLines; ++i) {
        std::array<std::uint64_t, 8> line;
        for (std::uint64_t& word : line)
            word = rng.next64();
        lines_.emplace(i * kGaugeStride, line);
    }
}

double
HostGauge::seconds()
{
    using Event = std::pair<std::uint64_t, std::uint64_t>; // (tick, key)
    Rng rng(0xbb67ae8584caa73bULL);
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
    for (unsigned i = 0; i < kGaugeEvents; ++i)
        heap.push({rng.below(1000), rng.below(kGaugeLines) * kGaugeStride});
    std::uint64_t sum = 0;
    const Clock::time_point t0 = Clock::now();
    for (unsigned step = 0; step < kGaugeSteps; ++step) {
        const Event e = heap.top();
        heap.pop();
        std::array<std::uint64_t, 8>& line = lines_.at(e.second);
        const std::uint64_t mask = rng.next64();
        unsigned flips = 0;
        for (std::uint64_t& word : line) {
            flips += static_cast<unsigned>(__builtin_popcountll(word & mask));
            word ^= mask & 0x0101010101010101ULL;
        }
        for (const std::uint64_t neighbour :
             {e.second - kGaugeStride, e.second + kGaugeStride}) {
            const auto it = lines_.find(neighbour);
            if (it != lines_.end() && (flips & 1))
                sum += it->second[flips & 7];
        }
        heap.push({e.first + 1 + (flips & 63),
                   rng.below(kGaugeLines) * kGaugeStride});
    }
    const double elapsed = secondsBetween(t0, Clock::now());
    g_probeSink = sum;
    return elapsed;
}

double
gaugeSeconds(unsigned threads)
{
    // A lone gauge shares the caller's CPU, and so its neighbours' load.
    const int caller_cpu = sched_getcpu();
    int fds[2];
    if (pipe(fds) != 0)
        SDPCM_FATAL("gauge: pipe failed");
    const pid_t pid = fork();
    if (pid < 0)
        SDPCM_FATAL("gauge: fork failed");
    if (pid == 0) {
        // Child: build every table, then time the passes together.
        close(fds[0]);
        if (threads == 1 && caller_cpu >= 0) {
            cpu_set_t cpus;
            CPU_ZERO(&cpus);
            CPU_SET(caller_cpu, &cpus);
            sched_setaffinity(0, sizeof cpus, &cpus);
        }
        std::vector<double> pass_s(threads);
        std::barrier built(static_cast<std::ptrdiff_t>(threads));
        std::vector<std::thread> workers;
        for (unsigned i = 0; i < threads; ++i) {
            workers.emplace_back([&, i] {
                HostGauge gauge;
                built.arrive_and_wait();
                pass_s[i] = gauge.seconds();
            });
        }
        for (std::thread& t : workers)
            t.join();
        double mean = 0.0;
        for (const double s : pass_s)
            mean += s / static_cast<double>(threads);
        const bool sent = write(fds[1], &mean, sizeof mean) == sizeof mean;
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double mean = 0.0;
    const bool got = read(fds[0], &mean, sizeof mean) == sizeof mean;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        SDPCM_FATAL("gauge: child process failed");
    return mean;
}

double
gaugedRate(double work, const std::vector<double>& run_s,
           const std::vector<double>& gauge_s)
{
    SDPCM_ASSERT(gauge_s.size() == run_s.size() + 1,
                 "one gauge pass on each side of every repetition");
    std::vector<double> rates;
    for (std::size_t i = 0; i < run_s.size(); ++i) {
        const double gauge = 0.5 * (gauge_s[i] + gauge_s[i + 1]);
        rates.push_back(work / run_s[i] * gauge / HostGauge::kNominalS);
    }
    return median(rates);
}

std::string
Cell::id() const
{
    return scheme.name + "/" + profile + "@" + std::to_string(refsPerCore);
}

SystemConfig
systemConfig(const Cell& cell, std::uint64_t seed,
             const Observers& observers, bool verify_oracle)
{
    SystemConfig sc;
    sc.scheme = cell.scheme;
    sc.cores = kCores;
    sc.refsPerCore = cell.refsPerCore;
    sc.seed = seed;
    sc.spans = observers.spans;
    if (observers.telemetry) {
        sc.telemetry.intervalTicks = kTelemetryInterval;
        sc.telemetry.monitorRules = kMonitorRule;
    }
    sc.wdLedger = observers.ledger;
    sc.lineCounters = observers.ledger;
    sc.profile = observers.profiler;
    sc.verifyOracle = verify_oracle;
    return sc;
}

RunnerConfig
runnerConfig(std::uint64_t refs_per_core, std::uint64_t seed, unsigned jobs)
{
    RunnerConfig cfg;
    cfg.refsPerCore = refs_per_core;
    cfg.seed = seed;
    cfg.cores = kCores;
    cfg.jobs = jobs;
    return cfg;
}

std::uint64_t
simDigest(const RunMetrics& metrics)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const StatSnapshot snapshot = metrics.toSnapshot();
    for (const auto& [key, value] : snapshot.values()) {
        if (undigested(key))
            continue;
        fnv1a(h, key.data(), key.size() + 1); // the NUL separates keys
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        fnv1a(h, &bits, sizeof bits);
    }
    return h;
}

bool
coresFinished(const RunMetrics& metrics)
{
    // A core that never finished keeps finishTick = 0, so its CPI is 0.
    if (metrics.coreCpi.size() != kCores)
        return false;
    return std::all_of(metrics.coreCpi.begin(), metrics.coreCpi.end(),
                       [](double cpi) { return cpi > 0.0; });
}

std::uint64_t
currentRssBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size_pages = 0;
    std::uint64_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t
peakRssBytes()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024; // KiB
}

double
emptyIntervalNs()
{
    constexpr int kSamples = 200000;
    double total = 0.0;
    for (int i = 0; i < kSamples; ++i) {
        const Clock::time_point t0 = Clock::now();
        const Clock::time_point t1 = Clock::now();
        total += nsBetween(t0, t1);
    }
    return total / kSamples;
}

WorkloadSpec
timedWorkload(const WorkloadSpec& base, StreamTally& tally)
{
    WorkloadSpec spec;
    spec.name = base.name;
    spec.makeStream = [make = base.makeStream, &tally](unsigned core,
                                                       std::uint64_t seed) {
        return std::make_unique<TimedStream>(make(core, seed), tally);
    };
    return spec;
}

void
CountingSink::begin(unsigned, const char* name, const char* cat, Tick,
                    std::initializer_list<TraceArg>)
{
    // Span-phase events ("span") nest around the bank op; count ops only.
    if (std::strcmp(cat, "bank") == 0)
        bankOps_[name] += 1;
}

std::map<std::string, std::uint64_t>
CountingSink::bankOps() const
{
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, n] : bankOps_)
        out[name] += n;
    return out;
}

DeviceProbe
probeDevice(const Cell& cell, std::uint64_t seed, unsigned reps)
{
    constexpr std::size_t kRecords = 20000;
    const std::vector<TraceRecord> traffic =
        cellTraffic(cell, seed, kRecords);

    // The device System would build for this scheme (sim/system.cc).
    DeviceConfig dc;
    dc.rates = System::ratesFor(cell.scheme, ThermalConfig{});
    dc.ecpEntries = cell.scheme.ecpEntries;
    dc.dinEnabled = !cell.scheme.fnwEncoding;
    dc.fnwEnabled = cell.scheme.fnwEncoding;
    dc.seed = seed;
    const double empty_ns = emptyIntervalNs();

    std::vector<double> read_ns, write_ns, verify_ns;
    for (unsigned rep = 0; rep < reps; ++rep) {
        PcmDevice dev(dc);
        const AddressMap& map = dev.addressMap();
        const std::uint64_t capacity = map.geometry().capacityBytes();
        Rng rng(seed);
        PcmDevice::WritePlan plan;
        PcmDevice::RoundOutcome outcome;
        std::vector<unsigned> diffs;
        double reads = 0.0, writes = 0.0, verifies = 0.0;
        std::uint64_t n_reads = 0, n_writes = 0, n_verifies = 0;
        std::uint64_t sink = 0;
        for (const TraceRecord& rec : traffic) {
            const LineAddr la = map.decode(rec.vaddr % capacity);
            if (!rec.isWrite) {
                const Clock::time_point t0 = Clock::now();
                const LineData data = dev.readLine(la);
                const Clock::time_point t1 = Clock::now();
                sink ^= data.words[0];
                reads += nsBetween(t0, t1) - empty_ns;
                n_reads += 1;
                continue;
            }
            // VnC verifies the bit-line neighbour against its pre-read.
            const std::optional<LineAddr> upper = map.upperNeighbor(la);
            const LineData pre = upper ? dev.peekLine(*upper) : LineData{};
            const LineData next =
                mutate(dev.peekLine(la), rec.flipDensity, rng);
            const Clock::time_point t0 = Clock::now();
            dev.planWriteInto(plan, la, next);
            while (dev.applyNextRound(plan, outcome)) {
            }
            dev.finishWrite(plan);
            const Clock::time_point t1 = Clock::now();
            writes += nsBetween(t0, t1) - empty_ns;
            n_writes += 1;
            if (!upper)
                continue;
            const Clock::time_point t2 = Clock::now();
            dev.verifyLineInto(*upper, pre, diffs);
            const Clock::time_point t3 = Clock::now();
            sink ^= diffs.size();
            verifies += nsBetween(t2, t3) - empty_ns;
            n_verifies += 1;
        }
        g_probeSink = sink;
        read_ns.push_back(n_reads ? reads / n_reads : 0.0);
        write_ns.push_back(n_writes ? writes / n_writes : 0.0);
        verify_ns.push_back(n_verifies ? verifies / n_verifies : 0.0);
    }
    return {median(read_ns), median(write_ns), median(verify_ns)};
}

double
probeDinEncode(const Cell& cell, std::uint64_t seed, unsigned reps)
{
    constexpr std::size_t kRecords = 20000;
    constexpr std::size_t kLines = 4096;
    double density_sum = 0.0;
    std::size_t n_writes = 0;
    for (const TraceRecord& rec : cellTraffic(cell, seed, kRecords)) {
        if (rec.isWrite) {
            density_sum += rec.flipDensity;
            n_writes += 1;
        }
    }
    const double density = n_writes ? density_sum / n_writes : 0.0;

    Rng rng(seed);
    std::vector<LineData> old_physical(kLines), new_logical(kLines);
    for (std::size_t i = 0; i < kLines; ++i) {
        old_physical[i] = LineData::randomFromKey(seed * kLines + i);
        new_logical[i] = mutate(old_physical[i], density, rng);
    }
    const DinEncoder din{DinConfig{}};
    std::vector<double> per_encode_ns;
    std::uint64_t sink = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < kLines; ++i)
            sink ^= din.encode(new_logical[i], old_physical[i]).flags;
        const Clock::time_point t1 = Clock::now();
        per_encode_ns.push_back(nsBetween(t0, t1) / kLines);
    }
    g_probeSink = sink;
    return median(per_encode_ns);
}

} // namespace simbench
