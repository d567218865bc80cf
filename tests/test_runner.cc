/**
 * @file
 * Tests for the experiment-runner utilities, scheme factories and the
 * shared run/scheme flag parsers.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/args.hh"
#include "sim/runner.hh"

namespace sdpcm {
namespace {

TEST(Geomean, BasicProperties)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    // Zeros/negatives are skipped, not poisoning the mean.
    EXPECT_NEAR(geomean({0.0, 4.0, 1.0}), 2.0, 1e-12);
}

TEST(SchemeFactories, MatchSection53)
{
    const auto din = SchemeConfig::din8F2();
    EXPECT_FALSE(din.superDense);

    const auto base = SchemeConfig::baselineVnc();
    EXPECT_TRUE(base.superDense);
    EXPECT_FALSE(base.lazyCorrection);

    const auto lazy = SchemeConfig::lazyC();
    EXPECT_TRUE(lazy.lazyCorrection);
    EXPECT_EQ(lazy.ecpEntries, 6u); // default ECP-6 (Section 5.3)
    EXPECT_FALSE(lazy.preRead);

    const auto lpr = SchemeConfig::lazyCPreRead();
    EXPECT_TRUE(lpr.preRead);
    EXPECT_TRUE(lpr.lazyCorrection);

    const auto nm = SchemeConfig::lazyCPreReadNm(NmRatio{2, 3});
    EXPECT_EQ(nm.defaultTag, (NmRatio{2, 3}));
    EXPECT_EQ(nm.name, "LazyC+PreRead+(2:3)");

    // Table 2 defaults.
    EXPECT_EQ(base.writeQueueEntries, 32u);
}

TEST(Runner, SpeedupsIncludeGmean)
{
    RunnerConfig cfg;
    cfg.refsPerCore = 600;
    cfg.cores = 2;
    const std::vector<WorkloadSpec> workloads = {
        workloadFromProfile("wrf"), workloadFromProfile("xalan")};
    const auto din = runScheme(SchemeConfig::din8F2(), workloads, cfg);
    const auto base = runScheme(SchemeConfig::baselineVnc(), workloads,
                                cfg);
    const auto s = speedups(base, din);
    ASSERT_TRUE(s.count("wrf"));
    ASSERT_TRUE(s.count("xalan"));
    ASSERT_TRUE(s.count("gmean"));
    EXPECT_GE(s.at("gmean"), 1.0); // DIN never loses to basic VnC
}

TEST(Runner, StandardWorkloadsMatchTable3)
{
    const auto workloads = standardWorkloads();
    EXPECT_EQ(workloads.size(), 9u);
    EXPECT_EQ(workloads.front().name, "bwaves");
    EXPECT_EQ(workloads.back().name, "stream");
    // Every factory produces a working stream.
    for (const auto& w : workloads) {
        auto stream = w.makeStream(0, 1);
        TraceRecord rec;
        EXPECT_TRUE(stream->next(rec));
    }
}

TEST(SchemeConfig, ByNameCoversEveryCliName)
{
    const NmRatio r{1, 2};
    EXPECT_EQ(SchemeConfig::byName("din", r), SchemeConfig::din8F2());
    EXPECT_EQ(SchemeConfig::byName("vnc", r), SchemeConfig::baselineVnc());
    EXPECT_EQ(SchemeConfig::byName("lazyc", r), SchemeConfig::lazyC());
    EXPECT_EQ(SchemeConfig::byName("lazyc+preread+nm", r),
              SchemeConfig::lazyCPreReadNm(r));
    EXPECT_EQ(SchemeConfig::byName("all", r),
              SchemeConfig::lazyCPreReadNm(r));
    EXPECT_EQ(SchemeConfig::byName("nm", r), SchemeConfig::nmOnly(r));
    EXPECT_EQ(SchemeConfig::byName("sdpcm", r), SchemeConfig::sdpcm(r));
    EXPECT_EQ(SchemeConfig::byName("fnw", r), SchemeConfig::fnwVnc());
    EXPECT_THROW(SchemeConfig::byName("dinn", r), std::invalid_argument);
}

TEST(RunFlags, SchemeFlagsOverrideTheNamedScheme)
{
    const ArgParser args(
        {"--scheme=sdpcm", "--n=1", "--m=2", "--ecp=3", "--wq=8",
         "--wc", "--idle-drain=1", "--max-cancels=0", "--drain-burst=0"});
    SchemeConfig want = SchemeConfig::sdpcm(NmRatio{1, 2});
    want.ecpEntries = 3;
    want.writeQueueEntries = 8;
    want.writeCancellation = true;
    want.idleWriteDrain = true;
    want.maxCancelsPerWrite = 0;
    want.drainBurstWrites = 0;
    EXPECT_EQ(schemeFromArgs(args), want);
    args.finishParsing();
    // No scheme flags: the CLI default.
    EXPECT_EQ(schemeFromArgs(ArgParser({})), SchemeConfig::lazyCPreRead());
}

TEST(RunFlagsDeath, SchemeFlagsRejectWhatFuzzSpecsReject)
{
    const auto fails = [](std::vector<std::string> words) {
        const ArgParser args(words);
        (void)schemeFromArgs(args);
    };
    EXPECT_EXIT(fails({"--n=3", "--m=2"}), ::testing::ExitedWithCode(1),
                "bad value for --n=3 --m=2: needs 1 <= n <= m");
    EXPECT_EXIT(fails({"--n=0"}), ::testing::ExitedWithCode(1),
                "needs 1 <= n <= m");
    EXPECT_EXIT(fails({"--n=1", "--m=1025"}), ::testing::ExitedWithCode(1),
                "bad value for --n=1 --m=1025: needs 1 <= n <= m <= 1024");
    EXPECT_EXIT(fails({"--wq=0"}), ::testing::ExitedWithCode(1),
                "bad value for --wq=0");
    EXPECT_EXIT(fails({"--wq=1025"}), ::testing::ExitedWithCode(1),
                "bad value for --wq=1025");
    EXPECT_EXIT(fails({"--ecp=-1"}), ::testing::ExitedWithCode(1),
                "bad value for --ecp=-1");
    EXPECT_EXIT(fails({"--scheme=dinn"}), ::testing::ExitedWithCode(1),
                "unknown scheme 'dinn'");
}

TEST(RunFlags, ParsesEverySharedFlag)
{
    const ArgParser args(
        {"--refs=500", "--seed=9", "--cores=2", "--jobs=3",
         "--verify-oracle", "--inject=stuck=0.5,seed=4",
         "--spans=S.json", "--spans-folded=S.folded", "--spans-top=5",
         "--telemetry-window=4", "--watchdog=300000",
         "--wd-ledger", "--wd-top=2", "--profile-folded=P.folded",
         "--profile-sample=8", "--endurance=1e6", "--report="});
    const auto [cfg, out] = parseRunFlags(args);
    args.finishParsing();
    EXPECT_EQ(cfg.refsPerCore, 500u);
    EXPECT_EQ(cfg.seed, 9u);
    EXPECT_EQ(cfg.cores, 2u);
    EXPECT_EQ(cfg.jobs, 3u);
    EXPECT_TRUE(cfg.verifyOracle);
    EXPECT_EQ(cfg.faults, FaultSpec::parse("stuck=0.5,seed=4"));
    EXPECT_TRUE(cfg.spans);
    EXPECT_EQ(out.spans.json, "S.json");
    EXPECT_EQ(out.spans.folded, "S.folded");
    EXPECT_EQ(out.spans.top, 5u);
    EXPECT_EQ(cfg.telemetry.windowFrames, 4u);
    EXPECT_EQ(cfg.telemetry.watchdogTicks, 300000u);
    EXPECT_EQ(cfg.telemetry.intervalTicks, 100000u); // implied default
    EXPECT_TRUE(cfg.wdLedger);
    EXPECT_EQ(out.wdLedger.json, ""); // bare: on without a file
    EXPECT_EQ(out.wdLedger.top, 2u);
    EXPECT_TRUE(cfg.profile); // implied by --profile-folded
    EXPECT_EQ(out.profile.folded, "P.folded");
    EXPECT_EQ(cfg.profileSample, 8u);
    EXPECT_EQ(cfg.enduranceCellWrites, 1e6);
    EXPECT_EQ(out.report, std::optional<std::string>(""));
}

TEST(RunFlags, AcceptsEveryUpperBound)
{
    const ArgParser args(
        {"--cores=64", "--telemetry-window=1024", "--inject=ecp=512",
         "--wq=1024", "--scheme=sdpcm", "--n=1", "--m=1024"});
    const auto [cfg, out] = parseRunFlags(args);
    EXPECT_EQ(cfg.cores, kMaxCores);
    EXPECT_EQ(cfg.telemetry.windowFrames, kMaxTelemetryWindowFrames);
    EXPECT_EQ(cfg.faults.ecpSteal, kLineBits);
    const SchemeConfig scheme = schemeFromArgs(args);
    EXPECT_EQ(scheme.writeQueueEntries, kMaxWriteQueueEntries);
    EXPECT_EQ(scheme.defaultTag, (NmRatio{1, kStripsPerBlock}));
}

TEST(RunFlags, DefaultsLeaveEveryObserverOff)
{
    const auto [cfg, out] =
        parseRunFlags(ArgParser({"--spans-top=0", "--wd-top=0"}), 1234);
    EXPECT_EQ(cfg.refsPerCore, 1234u);
    EXPECT_FALSE(cfg.spans); // a top-0 table asks for no output
    EXPECT_FALSE(cfg.wdLedger);
    EXPECT_FALSE(cfg.profile);
    EXPECT_FALSE(cfg.telemetry.enabled());
    EXPECT_FALSE(cfg.faults.any());
    EXPECT_FALSE(out.report.has_value()); // the binary's default applies
}

TEST(RunFlagsDeath, RejectsOutOfRangeRunKnobs)
{
    const auto fails = [](std::vector<std::string> words) {
        (void)parseRunFlags(ArgParser(words));
    };
    EXPECT_EXIT(fails({"--cores=0"}), ::testing::ExitedWithCode(1),
                "bad value for --cores=0");
    EXPECT_EXIT(fails({"--refs=0"}), ::testing::ExitedWithCode(1),
                "bad value for --refs=0");
    EXPECT_EXIT(fails({"--jobs=-1"}), ::testing::ExitedWithCode(1),
                "bad value for --jobs=-1");
    EXPECT_EXIT(fails({"--profile-sample=3"}),
                ::testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(fails({"--inject"}), ::testing::ExitedWithCode(1),
                "--inject needs a value");
    EXPECT_EXIT(fails({"--inject=stuck=x"}), ::testing::ExitedWithCode(1),
                "bad --inject spec: ");
    EXPECT_EXIT(fails({"--inject=ecp=513"}), ::testing::ExitedWithCode(1),
                "bad --inject spec: .*ecp must be <= 512");
    EXPECT_EXIT(fails({"--telemetry-window=1025"}),
                ::testing::ExitedWithCode(1),
                "bad value for --telemetry-window=1025");
    EXPECT_EXIT(fails({"--report"}), ::testing::ExitedWithCode(1),
                "--report needs a value");
    EXPECT_EXIT(fails({"--profile=0"}), ::testing::ExitedWithCode(1),
                "expected a file name");
}

} // namespace
} // namespace sdpcm
