/**
 * @file
 * Tests for the extension modules: SECDED/BCH, the analytic disturbance
 * model (cross-validated against the Monte-Carlo device), Start-Gap
 * wear leveling, trace capture/replay and the stats snapshot.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analysis/wd_analytic.hh"
#include "encoding/ecc.hh"
#include "pcm/device.hh"
#include "pcm/startgap.hh"
#include "sim/runner.hh"
#include "workload/generators.hh"
#include "workload/trace_file.hh"

namespace sdpcm {
namespace {

// --- SECDED ---------------------------------------------------------------

TEST(Secded, CleanWordDecodesClean)
{
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t data = rng.next64();
        const auto check = Secded72::encode(data);
        const auto r = Secded72::decode(data, check);
        EXPECT_EQ(r.outcome, Secded72::Outcome::Clean);
        EXPECT_EQ(r.data, data);
    }
}

TEST(Secded, CorrectsEverySingleBitError)
{
    Rng rng(2);
    for (int i = 0; i < 20; ++i) {
        const std::uint64_t data = rng.next64();
        const auto check = Secded72::encode(data);
        for (unsigned bit = 0; bit < 64; ++bit) {
            const auto r =
                Secded72::decode(data ^ (1ULL << bit), check);
            EXPECT_EQ(r.outcome, Secded72::Outcome::Corrected);
            EXPECT_EQ(r.data, data) << "bit " << bit;
        }
    }
}

TEST(Secded, CorrectsCheckBitErrors)
{
    const std::uint64_t data = 0xdeadbeefcafef00dULL;
    const auto check = Secded72::encode(data);
    for (unsigned bit = 0; bit < 8; ++bit) {
        const auto r = Secded72::decode(
            data, static_cast<std::uint8_t>(check ^ (1u << bit)));
        EXPECT_EQ(r.data, data) << "check bit " << bit;
        EXPECT_NE(r.outcome, Secded72::Outcome::DetectedDouble);
    }
}

TEST(Secded, DetectsDoubleBitErrors)
{
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t data = rng.next64();
        const auto check = Secded72::encode(data);
        const unsigned b1 = static_cast<unsigned>(rng.below(64));
        unsigned b2 = static_cast<unsigned>(rng.below(64));
        while (b2 == b1)
            b2 = static_cast<unsigned>(rng.below(64));
        const auto r = Secded72::decode(
            data ^ (1ULL << b1) ^ (1ULL << b2), check);
        EXPECT_EQ(r.outcome, Secded72::Outcome::DetectedDouble);
    }
}

TEST(Secded, LineLevelHelper)
{
    const LineData original = LineData::randomFromKey(7);
    LineData corrupted = original;
    EXPECT_EQ(secdedUncorrectableWords(original, corrupted), 0u);
    corrupted.flipBit(5); // single error in word 0: correctable
    EXPECT_EQ(secdedUncorrectableWords(original, corrupted), 0u);
    corrupted.flipBit(17); // second error in word 0: uncorrectable
    EXPECT_EQ(secdedUncorrectableWords(original, corrupted), 1u);
    corrupted.flipBit(64 + 3); // single error in word 1: fine
    EXPECT_EQ(secdedUncorrectableWords(original, corrupted), 1u);
}

TEST(Bch, MatchesPaperOverheadFigure)
{
    // Section 3.2: up to 9 errors in a 64B line need 82 bits (~16%).
    const auto code = BchCode::forErrors(9);
    EXPECT_EQ(code.checkBits(), 82u);
    EXPECT_NEAR(code.overhead(), 0.16, 0.005);
}

// --- Analytic model vs Monte-Carlo device ---------------------------------

TEST(WdAnalytic, ExpectedErrorsMatchFirstPrinciples)
{
    const WdAnalytic model(30.0, 0.115, 0.5);
    EXPECT_NEAR(model.expectedErrorsPerWrite(), 30 * 0.5 * 0.115, 1e-12);
    // Accumulation starts linear and saturates below the population.
    EXPECT_NEAR(model.expectedAccumulated(1),
                model.expectedErrorsPerWrite(), 0.02);
    EXPECT_LT(model.expectedAccumulated(1000), 256.0);
    EXPECT_GT(model.expectedAccumulated(1000),
              model.expectedAccumulated(10));
}

TEST(WdAnalytic, NewErrorDistributionNormalised)
{
    const WdAnalytic model(30.0);
    double total = 0.0;
    for (unsigned y = 0; y <= 30; ++y)
        total += model.probNewErrors(y);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(WdAnalytic, CorrectionsDecreaseWithEcp)
{
    // Worst case: the victim line is never rewritten, so ECP drains
    // only through overflow corrections.
    const WdAnalytic worst(30.0);
    double prev = 2.1;
    for (const unsigned n : {0u, 2u, 4u, 6u, 8u}) {
        const double c = worst.correctionsPerWrite(n);
        EXPECT_LT(c, prev + 1e-12);
        prev = c;
    }
    EXPECT_GT(worst.correctionsPerWrite(0), 1.5); // ~always both sides
    EXPECT_LT(worst.correctionsPerWrite(8),
              worst.correctionsPerWrite(0) / 3.0);
}

TEST(WdAnalytic, VictimRewritesConsolidateCorrections)
{
    // LazyCorrection's consolidation into normal writes: when the
    // victim is itself written regularly, parked errors clear for free
    // and overflow corrections collapse — the reason the simulator's
    // Figure 12 rates sit far below the cold-victim worst case.
    const WdAnalytic worst(30.0, 0.115, 0.5, 512, 0.0);
    const WdAnalytic typical(30.0, 0.115, 0.5, 512, 0.5);
    // The gap widens with the table size (a larger table almost never
    // overflows between two victim rewrites).
    EXPECT_LT(typical.correctionsPerWrite(2),
              worst.correctionsPerWrite(2));
    EXPECT_LT(typical.correctionsPerWrite(4),
              worst.correctionsPerWrite(4) * 0.6);
    EXPECT_LT(typical.correctionsPerWrite(6),
              worst.correctionsPerWrite(6) * 0.4);
}

TEST(WdAnalytic, CrossValidatesAgainstDeviceModel)
{
    // A single hot aggressor line, untouched neighbours: the measured
    // accumulation must track the analytic curve.
    DeviceConfig dc;
    dc.dinEnabled = false;
    dc.rates = WdRates{0.0, 0.115};
    dc.ecpEntries = 0;
    dc.seed = 5;
    PcmDevice dev(dc);
    Rng rng(6);

    RunningStat measured1, measured10, resets;
    const unsigned trials = 150;
    for (unsigned trial = 0; trial < trials; ++trial) {
        const LineAddr la{static_cast<unsigned>(trial % 16),
                          10 + 4 * (trial / 16), 0};
        const LineAddr victim{la.bank, la.row + 1, la.line};
        const LineData before = dev.peekLine(victim);
        LineData data = dev.peekLine(la);
        for (unsigned w = 1; w <= 10; ++w) {
            for (unsigned f = 0; f < 75; ++f)
                data.flipBit(static_cast<unsigned>(rng.below(kLineBits)));
            PcmDevice::WritePlan plan;
            dev.planWriteInto(plan, la, data);
            resets.record(plan.masks.resetCount());
            PcmDevice::RoundOutcome outcome;
            while (dev.applyNextRound(plan, outcome)) {
            }
            dev.finishWrite(plan);
            const double errs =
                dev.peekLine(victim).diff(before).popcount();
            if (w == 1)
                measured1.record(errs);
            if (w == 10)
                measured10.record(errs);
        }
    }
    const WdAnalytic analytic(resets.mean());
    EXPECT_NEAR(measured1.mean(), analytic.expectedAccumulated(1),
                analytic.expectedAccumulated(1) * 0.2);
    EXPECT_NEAR(measured10.mean(), analytic.expectedAccumulated(10),
                analytic.expectedAccumulated(10) * 0.2);
}

// --- Start-Gap -------------------------------------------------------------

TEST(StartGap, MappingIsABijection)
{
    StartGap sg(64, 10);
    for (int step = 0; step < 300; ++step) {
        std::vector<bool> used(65, false);
        for (std::uint64_t l = 0; l < 64; ++l) {
            const auto phys = sg.map(l);
            ASSERT_LT(phys, 65u);
            ASSERT_NE(phys, sg.gapPosition());
            ASSERT_FALSE(used[phys]) << "collision at step " << step;
            used[phys] = true;
        }
        sg.moveGap();
    }
}

TEST(StartGap, GapWalksAndStartAdvances)
{
    StartGap sg(8, 1);
    const auto start0 = sg.startPosition();
    for (int i = 0; i < 9; ++i)
        sg.recordWrite();
    EXPECT_EQ(sg.gapMovements(), 9u);
    EXPECT_NE(sg.startPosition(), start0);
}

TEST(StartGap, SpreadsHotLineWear)
{
    // One full gap rotation advances `start` by one, so after enough
    // rotations a hot logical line has visited many physical slots.
    StartGap sg(64, 10);
    const std::uint64_t writes = 65 * 10 * 20; // ~20 rotations
    const auto wear = sg.simulateHotLine(writes);
    std::uint64_t max_wear = 0, touched = 0;
    for (const auto w : wear) {
        max_wear = std::max(max_wear, w);
        touched += w > 0 ? 1 : 0;
    }
    // Without leveling a single slot would take all `writes`.
    EXPECT_GE(touched, 20u);
    EXPECT_LT(max_wear, writes / 10);
}

// --- Trace file round trip -------------------------------------------------

TEST(TraceFile, CaptureReplayRoundTrip)
{
    const std::string path = "/tmp/sdpcm_test_trace.txt";
    SyntheticTraceGenerator gen(profileByName("lbm"), 9);
    {
        TraceFileWriter writer(path);
        EXPECT_EQ(writer.capture(gen, 500), 500u);
    }
    SyntheticTraceGenerator ref(profileByName("lbm"), 9);
    TraceFileStream replay(path);
    TraceRecord a, b;
    for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(replay.next(a));
        ASSERT_TRUE(ref.next(b));
        EXPECT_EQ(a.isWrite, b.isWrite);
        EXPECT_EQ(a.vaddr, b.vaddr);
        EXPECT_EQ(a.gap, b.gap);
        EXPECT_EQ(a.flipDensity, b.flipDensity);
    }
    EXPECT_FALSE(replay.next(a));
    std::filesystem::remove(path);
}

TEST(TraceFile, ReplayedCaptureRunsLikeTheLiveRun)
{
    // Densities print in shortest round-trip form: with 6 digits the
    // replayed mcf run drifted from the live one after ~10,000 refs.
    RunnerConfig cfg;
    cfg.cores = 1;
    cfg.refsPerCore = 10000;
    const std::string path = "/tmp/sdpcm_test_replay_live.trace";
    const WorkloadSpec live = workloadFromProfile("mcf");
    {
        TraceFileWriter writer(path);
        const auto stream = live.makeStream(0, cfg.seed);
        ASSERT_EQ(writer.capture(*stream, cfg.refsPerCore),
                  cfg.refsPerCore);
    }
    WorkloadSpec replay;
    replay.name = live.name;
    replay.makeStream = [path](unsigned, std::uint64_t) {
        return std::make_unique<TraceFileStream>(path);
    };
    const SchemeConfig scheme = SchemeConfig::sdpcm();
    const auto want = runOne(scheme, live, cfg).toSnapshot().values();
    const auto got = runOne(scheme, replay, cfg).toSnapshot().values();
    EXPECT_EQ(got, want);
    std::filesystem::remove(path);
}

/** Replaying a trace whose third line is `bad` is fatal with `why`. */
void
expectBadRecord(const std::string& bad, const std::string& why)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("sdpcm_" + std::string(::testing::UnitTest::GetInstance()
                                     ->current_test_info()
                                     ->name()) +
          ".trace"))
            .string();
    {
        std::ofstream os(path);
        os << "# sdpcm trace v1: R|W vaddr gap flip_density\n"
           << "W 4096 10 0.25\n"
           << bad << "\n";
    }
    const auto replay_all = [&path] {
        TraceFileStream replay(path);
        TraceRecord record;
        while (replay.next(record)) {
        }
    };
    EXPECT_EXIT(replay_all(), ::testing::ExitedWithCode(1),
                "fatal: bad trace record at .*:3: " + why);
    std::filesystem::remove(path);
}

TEST(TraceFileDeath, NegativeAddressIsFatal)
{
    expectBadRecord("W -4096 0 0.1", "vaddr must be >= 0");
}

TEST(TraceFileDeath, NegativeGapIsFatal)
{
    expectBadRecord("W 4096 -1 0.1", "gap must be in \\[0, 4294967295\\]");
}

TEST(TraceFileDeath, GapAbove32BitsIsFatal)
{
    expectBadRecord("R 4096 4294967296 0", "gap must be in");
}

TEST(TraceFileDeath, DensityAboveOneIsFatal)
{
    expectBadRecord("W 4096 0 2.5", "flip density must be in \\[0, 1\\]");
}

TEST(TraceFileDeath, HugeDensityIsFatal)
{
    expectBadRecord("W 4096 0 1e12", "flip density must be in");
}

TEST(TraceFileDeath, JunkKindIsFatal)
{
    expectBadRecord("X 4096 0 0.1", "want 'R\\|W vaddr gap");
}

TEST(TraceFileDeath, JunkNumberIsFatal)
{
    expectBadRecord("W 4096 10k 0.1", "trailing junk in integer '10k'");
}

TEST(TraceFileDeath, TruncatedRecordIsFatal)
{
    expectBadRecord("W 4096 0", "want 'R\\|W vaddr gap flip_density'");
}

TEST(TraceFileDeath, TrailingFieldIsFatal)
{
    expectBadRecord("W 4096 0 0.1 7", "want 'R\\|W vaddr gap");
}

// --- Stats snapshot ----------------------------------------------------------

TEST(Snapshot, ExportsAllKeyCounters)
{
    RunnerConfig cfg;
    cfg.refsPerCore = 800;
    cfg.cores = 2;
    const auto m = runOne(SchemeConfig::lazyC(),
                          workloadFromProfile("zeusmp"), cfg);
    const auto s = m.toSnapshot();
    EXPECT_TRUE(s.has("sim.meanCpi"));
    EXPECT_TRUE(s.has("device.blDisturbances"));
    EXPECT_TRUE(s.has("ctrl.writesCompleted"));
    EXPECT_TRUE(s.has("derived.correctionsPerWrite"));
    EXPECT_GT(s.get("ctrl.writesCompleted"), 0.0);
    EXPECT_DOUBLE_EQ(s.get("sim.meanCpi"), m.meanCpi);
}

} // namespace
} // namespace sdpcm
