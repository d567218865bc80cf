/**
 * @file
 * Tests for the scenario fuzzer (verify/fuzz.hh): the sdpcm_cli line as
 * a scenario's stored form and the reader that stops on any flag the
 * parser rejects, deterministic scenario generation, the greedy
 * shrinker against planted invariants, outcome classification of real
 * runs, and shrunk-reproducer regression scenarios for bugs the fuzzer
 * (or its probe sweeps) surfaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hh"
#include "common/rng.hh"
#include "sim/runner.hh"
#include "verify/fuzz.hh"

namespace sdpcm {
namespace {

FuzzScenario
sampleScenario()
{
    FuzzScenario s;
    s.scheme = "sdpcm";
    s.workload = "qstress";
    s.wc = true;
    s.idleDrain = true;
    s.maxCancels = 2;
    s.drainBurst = 8;
    s.ecp = 4;
    s.wq = 2;
    s.n = 1;
    s.m = 3;
    s.cores = 3;
    s.refs = 1234;
    s.seed = 42;
    s.age = 0.5;
    s.stuck = 0.25;
    s.ecpSteal = 2;
    s.wd = 0.01;
    s.faultSeed = 7;
    return s;
}

/** `line` and its newline in a file of its own, as the corpus stores
 *  a scenario; named after the running test, so parallel test
 *  processes never share one. */
std::string
lineFile(const std::string& line)
{
    static unsigned count = 0;
    const std::string path =
        ::testing::TempDir() +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(count++) + ".cli";
    std::ofstream(path) << line << "\n";
    return path;
}

/** The sample scenario's line with each of `flags` (space-separated)
 *  in place of its word for that flag, or after its words. */
std::string
sampleLineWith(const std::string& flags)
{
    std::vector<std::string> words = sampleScenario().args();
    std::istringstream is(flags);
    for (std::string flag; is >> flag;) {
        const std::string key = flag.substr(0, flag.find('=') + 1);
        const auto at = std::find_if(
            words.begin(), words.end(),
            [&key](const std::string& w) { return w.rfind(key, 0) == 0; });
        if (at == words.end())
            words.push_back(flag);
        else
            *at = flag;
    }
    std::string line = "sdpcm_cli";
    for (const std::string& word : words)
        line += " " + word;
    return line;
}

// ---------------------------------------------------------------------
// The stored line and its reader
// ---------------------------------------------------------------------

TEST(FuzzSpec, RejectsUnknownField)
{
    // A misspelled flag is the parser's unknown option, and a line that
    // is not an sdpcm_cli line is no scenario at all.
    EXPECT_EXIT((void)readScenarioLine(lineFile(sampleLineWith(
                    "--shceme=sdpcm"))),
                ::testing::ExitedWithCode(1),
                "fatal: unknown option\\(s\\): --shceme");
    std::string line = sampleScenario().cliLine();
    line.replace(0, 9, "sdpcm_fuzz");
    EXPECT_EXIT((void)readScenarioLine(lineFile(line)),
                ::testing::ExitedWithCode(1),
                "fatal: fuzz scenario .* must start with sdpcm_cli, not "
                "'sdpcm_fuzz'");
}

TEST(FuzzSpec, RejectsMalformedValues)
{
    // Each line stops where sdpcm_cli stops on the same flag: exit 1
    // with the fatal line naming it.
    const std::pair<const char*, const char*> rejected[] = {
        {"--wq=0", "bad value for --wq=0"},
        {"--cores=0", "bad value for --cores=0"},
        {"--cores=65", "bad value for --cores=65"}, // above kMaxCores
        // Would wrap to 1 core through a cast.
        {"--cores=4294967297", "bad value for --cores=4294967297"},
        {"--age=1.5", "bad value for --age=1.5"},
        {"--n=9 --m=3", "bad value for --n=9 --m=3"}, // n > m
        // Above kStripsPerBlock.
        {"--n=1 --m=1025", "bad value for --n=1 --m=1025"},
        {"--refs=-1", "bad value for --refs=-1"},
        {"--refs=0", "bad value for --refs=0"},
        // Above kMaxWriteQueueEntries and kMaxEcpEntries.
        {"--wq=1025", "bad value for --wq=1025"},
        {"--ecp=11", "bad value for --ecp=11"},
        // Above kLineBits.
        {"--inject=ecp=513",
         "bad --inject spec: .*'ecp=513': ecp must be <= 512"},
        {"--inject=stuck=-1",
         "bad --inject spec: .*'stuck=-1': stuck must be >= 0"},
        {"--scheme=dinn", "unknown scheme 'dinn'"},
        {"--workload=bogus", "unknown workload profile: bogus"},
    };
    for (const auto& [flags, fatal] : rejected) {
        const std::string path = lineFile(sampleLineWith(flags));
        EXPECT_EXIT((void)readScenarioLine(path),
                    ::testing::ExitedWithCode(1),
                    std::string("fatal: ") + fatal)
            << flags;
    }

    // The accepted boundaries pass the reader, which returns the
    // scenario's own words.
    FuzzScenario edge = sampleScenario();
    edge.m = 1024;
    edge.cores = 64;
    edge.wq = 1024;
    edge.ecp = 10;
    edge.ecpSteal = 512;
    edge.workload = "stream";
    EXPECT_EQ(readScenarioLine(lineFile(edge.cliLine())), edge.args());
}

TEST(FuzzSpec, RejectsOutputFlags)
{
    // A scenario runs without outputs, so a stored line naming one
    // stops in the reader instead of replaying clean and writing
    // nothing.
    for (const char* flag :
         {"--report=r.json", "--spans", "--spans-folded=s.folded",
          "--wd-ledger=l.json", "--wd-top=3", "--profile",
          "--profile-sample=1", "--trace=t.json", "--telemetry=t.jsonl",
          "--telemetry-interval=1000", "--epoch=100", "--epoch-csv=e.csv",
          "--heatmap=wear", "--heatmap-pgm=h.pgm"}) {
        const std::string key =
            std::string(flag).substr(0, std::string(flag).find('='));
        EXPECT_EXIT((void)readScenarioLine(lineFile(sampleLineWith(flag))),
                    ::testing::ExitedWithCode(1),
                    "fatal: fuzz scenario .* carries the output flag " + key +
                        ";")
            << flag;
    }
}

TEST(FuzzSpec, RejectsSeedsTheFlagsReject)
{
    // --refs, --seed and --inject's seed read integers as int64, so a
    // stored line holding 2^63 stops in the reader, as sdpcm_cli would,
    // rather than running a different scenario.
    const std::pair<const char*, const char*> rejected[] = {
        {"--refs=9223372036854775808",
         "bad value for --refs=9223372036854775808"},
        {"--seed=9223372036854775808",
         "bad value for --seed=9223372036854775808"},
        {"--inject=seed=9223372036854775808",
         "bad --inject spec: .*9223372036854775808"},
    };
    for (const auto& [flags, fatal] : rejected) {
        EXPECT_EXIT((void)readScenarioLine(lineFile(sampleLineWith(flags))),
                    ::testing::ExitedWithCode(1),
                    std::string("fatal: ") + fatal)
            << flags;
    }
}

TEST(FuzzSpec, CliLineIsFaithful)
{
    const FuzzScenario s = sampleScenario();
    const std::string cli = s.cliLine();
    // Every scheme knob must appear on the CLI line, or the printed
    // reproducer would run a different scenario than the spec.
    for (const char* flag :
         {"--verify-oracle", "--scheme=sdpcm", "--workload=qstress",
          "--refs=1234", "--seed=42", "--cores=3", "--ecp=4", "--wq=2",
          "--wc=1", "--idle-drain=1", "--max-cancels=2",
          "--drain-burst=8", "--age=0.5", "--n=1", "--m=3",
          "--inject=stuck=0.25,ecp=2,wd=0.01,seed=7"}) {
        EXPECT_NE(cli.find(flag), std::string::npos)
            << "missing " << flag << " in: " << cli;
    }
}

/** A scenario's scheme as the spec's fields give it (the reference the
 *  parsed flags must match). */
SchemeConfig
schemeOf(const FuzzScenario& s)
{
    SchemeConfig sc = SchemeConfig::byName(s.scheme, NmRatio{s.n, s.m});
    sc.ecpEntries = s.ecp;
    sc.writeQueueEntries = s.wq;
    sc.writeCancellation = s.wc;
    sc.maxCancelsPerWrite = s.maxCancels;
    sc.drainBurstWrites = s.drainBurst;
    sc.idleWriteDrain = s.idleDrain;
    return sc;
}

/** A scenario's fault-injection spec as the spec's fields give it. */
FaultSpec
faultsOf(const FuzzScenario& s)
{
    FaultSpec f;
    f.stuckPerLine = s.stuck;
    f.ecpSteal = s.ecpSteal;
    f.wdBoost = s.wd;
    f.seed = s.faultSeed;
    return f;
}

/**
 * Parse `s.args()` the way sdpcm_cli does (parseCliRun, the parser
 * runScenario uses too) and require every spec field to come back
 * exactly; the printed line must split back into those words.
 */
void
expectCliLineReplays(const FuzzScenario& s)
{
    const std::string line = s.cliLine();
    SCOPED_TRACE(line);
    std::vector<std::string> words;
    std::istringstream is(line);
    for (std::string w; is >> w;)
        words.push_back(w);
    ASSERT_FALSE(words.empty());
    EXPECT_EQ(words.front(), "sdpcm_cli");
    words.erase(words.begin());
    EXPECT_EQ(words, s.args());

    const ArgParser args(s.args());
    const CliRun run = parseCliRun(args);
    args.finishParsing(); // fatal on any flag the CLI would not accept
    const RunnerConfig& cfg = run.flags.config;
    EXPECT_EQ(run.workload, s.workload);
    EXPECT_EQ(cfg.aging.ageFraction, s.age);
    EXPECT_EQ(run.scheme, schemeOf(s));
    EXPECT_EQ(cfg.cores, s.cores);
    EXPECT_EQ(cfg.refsPerCore, s.refs);
    EXPECT_EQ(cfg.seed, s.seed);
    EXPECT_TRUE(cfg.verifyOracle);
    // The line carries --inject only when a fault channel is on; an
    // unarmed injector is never built, so its seed does not travel.
    const FaultSpec faults = faultsOf(s);
    EXPECT_EQ(cfg.faults, faults.any() ? faults : FaultSpec{});
}

TEST(FuzzSpec, CliLineReplaysExactKnobs)
{
    // Each corpus file is one cliLine() and its newline, read back
    // through the line reader, and arms the oracle.
    unsigned corpus_lines = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(SDPCM_FUZZ_CORPUS_DIR)) {
        if (entry.path().extension() != ".cli")
            continue;
        SCOPED_TRACE(entry.path().string());
        const std::vector<std::string> words =
            readScenarioLine(entry.path().string());
        std::string line = "sdpcm_cli";
        for (const std::string& word : words)
            line += " " + word;
        std::ifstream is(entry.path());
        std::ostringstream text;
        text << is.rdbuf();
        EXPECT_EQ(text.str(), line + "\n");
        EXPECT_TRUE(
            parseCliRun(ArgParser(words)).flags.config.verifyOracle);
        corpus_lines += 1;
    }
    ASSERT_GT(corpus_lines, 0u);

    std::vector<FuzzScenario> scenarios;
    // Every scheme byName builds from the ratio carries --n/--m.
    for (const char* scheme : {"nm", "sdpcm", "all", "lazyc+preread+nm"}) {
        FuzzScenario s = sampleScenario();
        s.scheme = scheme;
        s.n = 1;
        s.m = 2;
        scenarios.push_back(s);
    }
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const FuzzScenario s = randomScenario(rng);
        scenarios.push_back(s);
        // The shrinker's halving steps, down to its floors (stuck stops
        // at 1e-3, wd at 1e-4): 1.5/1024 must not print as 0.00146484.
        for (FuzzScenario c = s; c.stuck / 2.0 >= 1e-3;) {
            c.stuck /= 2.0;
            scenarios.push_back(c);
        }
        for (FuzzScenario c = s; c.wd / 2.0 >= 1e-4;) {
            c.wd /= 2.0;
            scenarios.push_back(c);
        }
    }
    for (const FuzzScenario& s : scenarios)
        expectCliLineReplays(s);
}

// ---------------------------------------------------------------------
// Scenario generation
// ---------------------------------------------------------------------

TEST(FuzzGen, DeterministicInMasterSeed)
{
    Rng a(99), b(99);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(randomScenario(a), randomScenario(b));
    Rng c(100);
    bool any_diff = false;
    Rng a2(99);
    for (int i = 0; i < 50; ++i)
        any_diff = any_diff || randomScenario(a2) != randomScenario(c);
    EXPECT_TRUE(any_diff);
}

TEST(FuzzGen, GeneratesValidScenarios)
{
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const FuzzScenario s = randomScenario(rng);
        EXPECT_GE(s.n, 1u);
        EXPECT_LE(s.n, s.m);
        EXPECT_GE(s.wq, 1u);
        EXPECT_GE(s.cores, 1u);
        EXPECT_GE(s.refs, 1u);
        EXPECT_GE(s.age, 0.0);
        EXPECT_LE(s.age, 1.0);
        // Everything the generator draws must parse as sdpcm_cli flags
        // (a bad one is fatal).
        const CliRun run = parseCliRun(ArgParser(s.args()));
        EXPECT_EQ(run.workload, s.workload);
        EXPECT_EQ(run.scheme, schemeOf(s));
    }
}

// ---------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------

TEST(FuzzShrink, PlantedInvariantShrinksToMinimal)
{
    // Planted "bug": fails whenever cancellation is on with a small
    // queue. The minimum should keep only what the predicate needs.
    const auto planted = [](const FuzzScenario& s) {
        return s.wc && s.wq <= 4;
    };
    FuzzScenario failing = sampleScenario();
    ASSERT_TRUE(planted(failing));

    unsigned probes = 0;
    const FuzzScenario minimal = shrink(failing, planted, &probes);
    EXPECT_TRUE(planted(minimal));
    EXPECT_GT(probes, 0u);
    // Everything irrelevant to the planted predicate got reduced.
    EXPECT_EQ(minimal.refs, 1u);
    EXPECT_EQ(minimal.cores, 1u);
    EXPECT_DOUBLE_EQ(minimal.stuck, 0.0);
    EXPECT_EQ(minimal.ecpSteal, 0u);
    EXPECT_DOUBLE_EQ(minimal.wd, 0.0);
    EXPECT_DOUBLE_EQ(minimal.age, 0.0);
    EXPECT_FALSE(minimal.idleDrain);
    EXPECT_EQ(minimal.drainBurst, 16u);
    // The load-bearing knobs survived.
    EXPECT_TRUE(minimal.wc);
    EXPECT_LE(minimal.wq, 4u);
}

TEST(FuzzShrink, DeterministicForDeterministicPredicate)
{
    const auto planted = [](const FuzzScenario& s) {
        return s.stuck > 0.05;
    };
    FuzzScenario failing = sampleScenario();
    failing.stuck = 3.0;
    unsigned p1 = 0, p2 = 0;
    const FuzzScenario m1 = shrink(failing, planted, &p1);
    const FuzzScenario m2 = shrink(failing, planted, &p2);
    EXPECT_EQ(m1, m2);
    EXPECT_EQ(p1, p2);
    EXPECT_TRUE(planted(m1));
    // The fault channel the predicate depends on was halved down to
    // just above the threshold, not dropped.
    EXPECT_GT(m1.stuck, 0.05);
    EXPECT_LE(m1.stuck, 0.1875); // 3.0 halved until the next halving fails
}

TEST(FuzzShrink, ResultAlwaysSatisfiesPredicate)
{
    // Predicate over an awkward interaction: only fails on multi-core
    // runs with faults present.
    const auto planted = [](const FuzzScenario& s) {
        return s.cores >= 2 && (s.stuck > 0.0 || s.wd > 0.0);
    };
    FuzzScenario failing = sampleScenario();
    const FuzzScenario minimal = shrink(failing, planted, nullptr);
    EXPECT_TRUE(planted(minimal));
    EXPECT_EQ(minimal.cores, 2u);
    EXPECT_EQ(minimal.refs, 1u);
}

// ---------------------------------------------------------------------
// Outcome classification on real runs
// ---------------------------------------------------------------------

TEST(FuzzRun, TinyScenarioRunsClean)
{
    FuzzScenario s;
    s.workload = "qstress";
    s.refs = 200;
    s.cores = 2;
    s.wq = 2;
    s.wc = true;
    const FuzzResult r = runScenario(s.args());
    EXPECT_EQ(r.outcome, FuzzOutcome::Clean) << r.detail;
    EXPECT_EQ(r.mismatches, 0u);
}

TEST(FuzzRun, FaultStormStillClean)
{
    // The mechanisms under test are supposed to tolerate this storm;
    // the oracle confirms data integrity end to end.
    FuzzScenario s;
    s.workload = "qstress";
    s.refs = 300;
    s.cores = 2;
    s.wq = 2;
    s.wc = true;
    s.stuck = 1.5;
    s.ecpSteal = 3;
    s.wd = 0.08;
    const FuzzResult r = runScenario(s.args());
    EXPECT_EQ(r.outcome, FuzzOutcome::Clean) << r.detail;
}

/** The run sdpcm_cli parses from a scenario's words. */
RunOptions
runOf(const FuzzScenario& s)
{
    return parseCliRun(ArgParser(s.args())).flags.config;
}

TEST(FuzzRun, BudgetIsGenerous)
{
    FuzzScenario s;
    s.stuck = 0.0;
    s.wd = 0.0;
    // ~20k ticks per reference per core plus fixed slack: far above the
    // ~3.3k/ref worst case measured for legitimate fault-free configs.
    EXPECT_EQ(fuzzTickBudget(runOf(s)),
              Tick(4000000) + Tick(20000) * s.refs * s.cores);
}

TEST(FuzzRun, BudgetScalesWithFaultStorm)
{
    // Regression: wd=1 + stuck=10 on fnw measured ~330k ticks/ref of
    // legitimate correction cascades; the flat 20k/ref budget falsely
    // classified that run as a stall. The storm-scaled budget must
    // clear the measured cost with an order of magnitude to spare.
    FuzzScenario calm;
    FuzzScenario storm = calm;
    storm.wd = 1.0;
    storm.stuck = 10.0;
    EXPECT_GT(fuzzTickBudget(runOf(storm)), fuzzTickBudget(runOf(calm)));
    // Measured: ~166M final ticks for 500 refs x 2 cores.
    storm.refs = 500;
    storm.cores = 2;
    EXPECT_GE(fuzzTickBudget(runOf(storm)), Tick(1000000000));
}

// ---------------------------------------------------------------------
// Regression reproducers (shrunk specs from fixed bugs)
// ---------------------------------------------------------------------

// drain-burst=0 once aborted the drain state machine: the ctor clamp
// had no lower bound, drainRemaining started a burst at zero, and the
// first kick tripped "drain state out of sync" (memctrl.cc). Reverting
// the clamp fix makes this scenario abort the test binary.
TEST(FuzzRegression, ZeroDrainBurstRunsClean)
{
    FuzzScenario s;
    s.scheme = "sdpcm";
    s.workload = "qstress";
    s.drainBurst = 0;
    s.wq = 2;
    s.wc = true;
    s.cores = 2;
    s.refs = 300;
    const FuzzResult r = runScenario(s.args());
    EXPECT_EQ(r.outcome, FuzzOutcome::Clean) << r.detail;
}

// Same bug class through the idle-drain path, which also arms bursts.
TEST(FuzzRegression, ZeroDrainBurstWithIdleDrainRunsClean)
{
    FuzzScenario s;
    s.scheme = "lazyc+preread";
    s.workload = "mcf";
    s.drainBurst = 0;
    s.idleDrain = true;
    s.wq = 4;
    s.cores = 2;
    s.refs = 300;
    const FuzzResult r = runScenario(s.args());
    EXPECT_EQ(r.outcome, FuzzOutcome::Clean) << r.detail;
}

} // namespace
} // namespace sdpcm
