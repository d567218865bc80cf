/**
 * @file
 * End-to-end integration tests: full systems running the Table 3
 * workloads under each scheme, checking completion, determinism, the
 * paper's qualitative orderings and the event queue itself.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "event_adapters.hh"
#include "sim/event_queue.hh"
#include "sim/runner.hh"

namespace sdpcm {
namespace {

RunnerConfig
quickConfig()
{
    RunnerConfig cfg;
    cfg.refsPerCore = 2500;
    cfg.cores = 8;
    cfg.seed = 5;
    return cfg;
}

TEST(EventQueue, OrdersByTickThenSeq)
{
    EventQueue q;
    std::vector<int> order;
    CallbackTarget first([&] { order.push_back(2); });
    CallbackTarget early([&] { order.push_back(1); });
    CallbackTarget second([&] { order.push_back(3); });
    q.schedule(10, first);
    q.schedule(5, early);
    q.schedule(10, second);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 10u);
    EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue q;
    int fired = 0;
    CallbackTarget inner([&] { fired += 1; });
    CallbackTarget outer([&] { q.scheduleAfter(1, inner); });
    q.schedule(1, outer);
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 2u);
}

TEST(EventQueue, MaxTicksStopsEarly)
{
    EventQueue q;
    int fired = 0;
    CallbackTarget count([&] { fired += 1; });
    q.schedule(10, count);
    q.schedule(100, count);
    q.run(50);
    EXPECT_EQ(fired, 1);
}

TEST(SystemIntegration, RunsToCompletion)
{
    auto m = runOne(SchemeConfig::baselineVnc(),
                    workloadFromProfile("zeusmp"), quickConfig());
    EXPECT_EQ(m.coreCpi.size(), 8u);
    for (const double cpi : m.coreCpi)
        EXPECT_GT(cpi, 1.0);
    EXPECT_GT(m.ctrl.writesCompleted, 0u);
    EXPECT_GT(m.ctrl.readsServiced, 0u);
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    const auto a = runOne(SchemeConfig::lazyC(),
                          workloadFromProfile("lbm"), quickConfig());
    const auto b = runOne(SchemeConfig::lazyC(),
                          workloadFromProfile("lbm"), quickConfig());
    EXPECT_EQ(a.meanCpi, b.meanCpi);
    EXPECT_EQ(a.device.blDisturbances, b.device.blDisturbances);
    EXPECT_EQ(a.ctrl.correctionWrites, b.ctrl.correctionWrites);
}

TEST(SystemIntegration, DinSchemeHasNoBitLineDisturbance)
{
    const auto m = runOne(SchemeConfig::din8F2(),
                          workloadFromProfile("mcf"), quickConfig());
    EXPECT_EQ(m.device.blDisturbances, 0u);
    EXPECT_EQ(m.ctrl.verifyReads, 0u);
    EXPECT_EQ(m.ctrl.correctionWrites, 0u);
}

TEST(SystemIntegration, SchemeOrderingOnWriteHeavyWorkload)
{
    // The paper's headline ordering (Figure 11): baseline is worst,
    // LazyCorrection recovers most of it, PreRead adds more, DIN is the
    // WD-free ceiling.
    const auto cfg = quickConfig();
    const auto w = workloadFromProfile("zeusmp");
    const double din = runOne(SchemeConfig::din8F2(), w, cfg).meanCpi;
    const double base = runOne(SchemeConfig::baselineVnc(), w,
                               cfg).meanCpi;
    const double lazy = runOne(SchemeConfig::lazyC(), w, cfg).meanCpi;
    const double lpr = runOne(SchemeConfig::lazyCPreRead(), w,
                              cfg).meanCpi;
    EXPECT_LT(din, lazy);
    EXPECT_LT(lazy, base);
    EXPECT_LE(lpr, lazy * 1.02);
}

TEST(SystemIntegration, OneTwoAllocatorMatchesDin)
{
    // Figure 16: (1:2) eliminates VnC, landing within a whisker of DIN.
    const auto cfg = quickConfig();
    const auto w = workloadFromProfile("lbm");
    const double din = runOne(SchemeConfig::din8F2(), w, cfg).meanCpi;
    const auto m12 = runOne(SchemeConfig::nmOnly(NmRatio{1, 2}), w, cfg);
    EXPECT_LT(m12.meanCpi, din * 1.05);
    EXPECT_EQ(m12.ctrl.verifyReads, 0u);
}

TEST(SystemIntegration, NmRatioMonotone)
{
    const auto cfg = quickConfig();
    const auto w = workloadFromProfile("zeusmp");
    const double c12 =
        runOne(SchemeConfig::nmOnly(NmRatio{1, 2}), w, cfg).meanCpi;
    const double c23 =
        runOne(SchemeConfig::nmOnly(NmRatio{2, 3}), w, cfg).meanCpi;
    const double c34 =
        runOne(SchemeConfig::nmOnly(NmRatio{3, 4}), w, cfg).meanCpi;
    const double c11 =
        runOne(SchemeConfig::baselineVnc(), w, cfg).meanCpi;
    EXPECT_LE(c12, c23 * 1.02);
    EXPECT_LE(c23, c34 * 1.02);
    EXPECT_LE(c34, c11 * 1.02);
}

TEST(SystemIntegration, MoreEcpEntriesFewerCorrections)
{
    const auto cfg = quickConfig();
    const auto w = workloadFromProfile("lbm");
    const double c0 =
        runOne(SchemeConfig::lazyC(0), w, cfg).correctionsPerWrite();
    const double c2 =
        runOne(SchemeConfig::lazyC(2), w, cfg).correctionsPerWrite();
    const double c6 =
        runOne(SchemeConfig::lazyC(6), w, cfg).correctionsPerWrite();
    EXPECT_GT(c0, c2);
    EXPECT_GT(c2, c6);
    EXPECT_GT(c0, 1.0); // ECP-0 corrects both adjacents almost always
    EXPECT_LT(c6, 0.2); // ECP-6 absorbs nearly everything
}

TEST(SystemIntegration, WriteCancellationImprovesVnc)
{
    const auto cfg = quickConfig();
    const auto w = workloadFromProfile("mcf");
    SchemeConfig wc = SchemeConfig::baselineVnc();
    wc.writeCancellation = true;
    const auto base = runOne(SchemeConfig::baselineVnc(), w, cfg);
    const auto with_wc = runOne(wc, w, cfg);
    EXPECT_GT(with_wc.ctrl.writeCancellations, 0u);
    EXPECT_LT(with_wc.meanCpi, base.meanCpi);
}

TEST(SystemIntegration, AgedDimmStillWorks)
{
    RunnerConfig cfg = quickConfig();
    cfg.refsPerCore = 1500;
    cfg.aging.ageFraction = 1.0;
    const auto m = runOne(SchemeConfig::lazyC(),
                          workloadFromProfile("mcf"), cfg);
    EXPECT_GT(m.device.hardErrors, 0u);
    EXPECT_GT(m.meanCpi, 0.0);
}

TEST(SystemIntegration, Figure4ShapeHolds)
{
    // Word-line errors well mitigated by DIN; adjacent-line (bit-line)
    // errors average ~2 with a tail up to ~9 per line (Figure 4).
    RunnerConfig cfg = quickConfig();
    const auto m = runOne(SchemeConfig::baselineVnc(),
                          workloadFromProfile("lbm"), cfg);
    const double wl_avg = m.device.wlErrorsPerWrite.mean();
    const double bl_avg = m.device.blErrorsPerAdjacentLine.mean();
    EXPECT_LT(wl_avg, 1.0);
    EXPECT_GT(bl_avg, 0.5);
    EXPECT_LT(bl_avg, 4.0);
    EXPECT_LT(wl_avg, bl_avg);
    EXPECT_GE(m.device.blErrorsPerAdjacentLine.max(), 5.0);
}

TEST(SystemIntegration, PreReadsMostlyUseful)
{
    RunnerConfig cfg = quickConfig();
    const auto m = runOne(SchemeConfig::lazyCPreRead(),
                          workloadFromProfile("zeusmp"), cfg);
    EXPECT_GT(m.ctrl.preReadsIssued + m.ctrl.preReadsForwarded, 0u);
    EXPECT_GT(m.ctrl.preReadsUseful, 0u);
}

TEST(SystemIntegration, TlbAndPagingActive)
{
    System system(
        [] {
            SystemConfig sc;
            sc.scheme = SchemeConfig::din8F2();
            sc.refsPerCore = 2000;
            sc.cores = 2;
            return sc;
        }(),
        workloadFromProfile("mcf"));
    system.run();
    const auto& cores = system.cores();
    ASSERT_EQ(cores.size(), 2u);
    for (const auto& core : cores)
        EXPECT_TRUE(core->done());
}

/**
 * A working set a little larger than the 64-entry TLB: three references
 * in four go to a random page of a 48-page hot set, the fourth to the
 * next page of a 40-page cold sweep. The 88 pages do not fit, so which
 * references hit depends on which entry each refill evicts, and each
 * miss costs the core a page-table walk.
 */
class TlbPressureStream : public TraceStream
{
  public:
    explicit TlbPressureStream(std::uint64_t seed) : rng_(seed) {}

    bool
    next(TraceRecord& record) override
    {
        constexpr std::uint64_t kHotPages = 48;
        constexpr std::uint64_t kColdPages = 40;
        const std::uint64_t page =
            (count_++ % 4 == 3) ? kHotPages + cold_++ % kColdPages
                                : rng_.below(kHotPages);
        record.isWrite = rng_.chance(0.25);
        record.vaddr = page * DimmGeometry::rowBytes +
                       rng_.below(DimmGeometry::linesPerRow()) *
                           DimmGeometry::lineBytes;
        record.gap = 20;
        record.flipDensity = 0.1;
        return true;
    }

  private:
    Rng rng_;
    std::uint64_t count_ = 0;
    std::uint64_t cold_ = 0;
};

TEST(SystemIntegration, TlbEvictionOrderMatchesRecordedDigest)
{
    SystemConfig sc;
    sc.scheme = SchemeConfig::sdpcm();
    sc.cores = 2;
    sc.refsPerCore = 3000;
    sc.seed = 3;
    const WorkloadSpec workload{
        "tlbPressure", [](unsigned core, std::uint64_t seed) {
            return std::make_unique<TlbPressureStream>(seed * 31 + core);
        }};
    System sys(sc, workload);
    sys.run();

    // FNV-1a over every snapshot name and value.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const void* bytes, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= static_cast<const unsigned char*>(bytes)[i];
            h *= 0x100000001b3ULL;
        }
    };
    const StatSnapshot snap = sys.metrics().toSnapshot();
    for (const auto& [name, value] : snap.values()) {
        mix(name.data(), name.size());
        mix(&value, sizeof value);
    }
    EXPECT_EQ(h, 0xb1ce12ce8578b828ULL) << std::hex << "0x" << h;
}

} // namespace
} // namespace sdpcm
