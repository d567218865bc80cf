#include "workload/generators.hh"

#include "common/logging.hh"

namespace sdpcm {

namespace {

constexpr std::uint64_t kLineBytes = 64;
constexpr std::uint64_t kMB = 1ULL << 20;

/** Success probability of the geometric instruction gap whose mean,
 *  1000 / apki, matches `apki` accesses per 1000 instructions. */
double
gapProbability(double apki)
{
    return 1.0 / (1000.0 / apki + 1.0);
}

} // namespace

const std::vector<WorkloadProfile>&
table3Profiles()
{
    // RPKI/WPKI verbatim from Table 3; footprints, locality and
    // flip-density calibrated to the behaviours the paper calls out
    // (gemsFDTD changes few bits per write; mcf is pointer-chasing and
    // write-heavy; STREAM is fully sequential).
    static const std::vector<WorkloadProfile> profiles = {
        {"bwaves",   17.45,  0.47, 48 * kMB, 0.30, 0.10, 8.0,  0.10},
        {"gemsFDTD",  9.62,  6.67, 48 * kMB, 0.40, 0.10, 8.0,  0.035},
        {"lbm",      14.59,  7.29, 48 * kMB, 0.20, 0.10, 16.0, 0.12},
        {"leslie3d",  2.39,  0.04, 24 * kMB, 0.40, 0.10, 8.0,  0.10},
        {"mcf",      22.38, 20.47, 64 * kMB, 0.60, 0.05, 2.0,  0.15},
        {"wrf",       0.14,  0.02, 16 * kMB, 0.50, 0.10, 4.0,  0.10},
        {"xalan",     0.13,  0.13, 16 * kMB, 0.50, 0.10, 2.0,  0.12},
        {"zeusmp",    4.11,  3.36, 32 * kMB, 0.30, 0.10, 8.0,  0.10},
        {"stream",    2.32,  2.32, 24 * kMB, 0.00, 0.10, 64.0, 0.30},
    };
    return profiles;
}

const WorkloadProfile&
profileByName(const std::string& name)
{
    for (const auto& p : table3Profiles()) {
        if (p.name == name)
            return p;
    }
    SDPCM_FATAL("unknown workload profile: ", name);
}

SyntheticTraceGenerator::SyntheticTraceGenerator(
    const WorkloadProfile& profile, std::uint64_t seed)
    : profile_(profile),
      rng_(seed),
      hot_(profile.hotFraction),
      runLength_(1.0 / profile.seqRunMean),
      write_(profile.wpki / profile.apki()),
      gap_(gapProbability(profile.apki()))
{
    SDPCM_ASSERT(profile.apki() > 0.0, "profile with zero access rate");
    footprintLines_ = profile.footprintBytes / kLineBytes;
    hotLines_ = static_cast<std::uint64_t>(
        static_cast<double>(footprintLines_) * profile.hotSetFraction);
    if (hotLines_ == 0)
        hotLines_ = 1;
}

std::uint64_t
SyntheticTraceGenerator::pickRunStart()
{
    if (hot_(rng_))
        return rng_.below(hotLines_);
    return rng_.below(footprintLines_);
}

bool
SyntheticTraceGenerator::next(TraceRecord& record)
{
    if (runRemaining_ == 0) {
        runLine_ = pickRunStart();
        runRemaining_ = 1 + runLength_(rng_);
    } else {
        runLine_ = (runLine_ + 1) % footprintLines_;
    }
    runRemaining_ -= 1;

    record.vaddr = runLine_ * kLineBytes;
    record.isWrite = write_(rng_);
    record.gap = static_cast<std::uint32_t>(gap_(rng_));
    record.flipDensity = record.isWrite
        ? profile_.flipDensity * (0.5 + rng_.uniform())
        : 0.0;
    return true;
}

QueueStressGenerator::QueueStressGenerator(std::uint64_t seed)
    : rng_(seed)
{}

bool
QueueStressGenerator::next(TraceRecord& record)
{
    // 8 page pairs: pages 0..7 plus 16..23. With frames interleaved
    // across 16 banks and a near-linear first-touch allocation, page v
    // and page v+16 occupy adjacent rows of one bank, so queued writes
    // to one half are the other half's VnC adjacents — every PreRead
    // capture, forward and refresh path races against pending writes.
    constexpr std::uint64_t kPageBytes = 4096;
    constexpr std::uint64_t kPairs = 8;
    constexpr std::uint64_t kHotLinesPerPage = 4;

    // The hot set alone fits inside the write queues: every write would
    // coalesce and nothing would ever be serviced. A churn stream of
    // sequential cold writes (distinct lines, never reused soon) keeps
    // the queues at their drain watermark so the hot writes are forced
    // through the full PreRead / verify / cancel machinery while new
    // hot writes keep landing on them.
    if (rng_.chance(0.3)) {
        constexpr std::uint64_t kChurnBasePage = 64;
        constexpr std::uint64_t kChurnPages = 512;
        constexpr std::uint64_t kLinesPerPage = kPageBytes / kLineBytes;
        const std::uint64_t line = churn_ % kLinesPerPage;
        const std::uint64_t page =
            kChurnBasePage + (churn_ / kLinesPerPage) % kChurnPages;
        churn_ += 1;
        record.vaddr = page * kPageBytes + line * kLineBytes;
        record.isWrite = true;
        record.gap = 0;
        record.flipDensity = 0.15 + 0.15 * rng_.uniform();
        return true;
    }

    const std::uint64_t pair = rng_.below(kPairs);
    const std::uint64_t page = pair + (rng_.below(2) ? 16 : 0);
    const std::uint64_t line = rng_.below(kHotLinesPerPage);
    record.vaddr = page * kPageBytes + line * kLineBytes;
    record.isWrite = rng_.chance(0.7);
    // Near-zero gaps keep the queues saturated; dense flips maximise
    // RESET pulses and thus disturbance pressure.
    record.gap = static_cast<std::uint32_t>(rng_.below(3));
    record.flipDensity = record.isWrite ? 0.15 + 0.15 * rng_.uniform()
                                        : 0.0;
    return true;
}

StreamTraceGenerator::StreamTraceGenerator(std::uint64_t array_bytes,
                                           double apki, std::uint64_t seed)
    : arrayLines_(array_bytes / kLineBytes),
      rng_(seed),
      gap_(gapProbability(apki))
{
    SDPCM_ASSERT(arrayLines_ > 0, "empty STREAM array");
    SDPCM_ASSERT(apki > 0.0, "STREAM with zero access rate");
}

bool
StreamTraceGenerator::next(TraceRecord& record)
{
    // Arrays a, b, c laid out back to back in the virtual address space.
    const std::uint64_t a = 0;
    const std::uint64_t b = arrayLines_;
    const std::uint64_t c = 2 * arrayLines_;

    // Per-line access patterns (source reads then destination write):
    //   copy:  read a,        write c
    //   scale: read c,        write b
    //   add:   read a, b,     write c
    //   triad: read b, c,     write a
    static const struct
    {
        unsigned count;
        // Offsets index {a, b, c}; the last entry is the write target.
        unsigned ops[3];
    } kernels[4] = {
        {2, {0, 2, 0}},
        {2, {2, 1, 0}},
        {3, {0, 1, 2}},
        {3, {1, 2, 0}},
    };

    const auto& k = kernels[kernel_];
    const std::uint64_t bases[3] = {a, b, c};
    const std::uint64_t line = bases[k.ops[step_]] + index_;

    record.vaddr = line * kLineBytes;
    record.isWrite = (step_ + 1 == k.count);
    record.gap = static_cast<std::uint32_t>(gap_(rng_));
    // STREAM stores freshly computed doubles; with mostly-similar
    // magnitudes the mantissa tails dominate the changed bits.
    record.flipDensity = record.isWrite ? 0.15 + 0.1 * rng_.uniform()
                                        : 0.0;

    step_ += 1;
    if (step_ == k.count) {
        step_ = 0;
        index_ += 1;
        if (index_ == arrayLines_) {
            index_ = 0;
            kernel_ = (kernel_ + 1) % 4;
        }
    }
    return true;
}

} // namespace sdpcm
