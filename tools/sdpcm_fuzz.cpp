/**
 * @file
 * Randomized scenario fuzzer driver over the shadow-memory oracle
 * (verify/fuzz.hh).
 *
 * Each trial draws a deterministic scenario from the master seed and
 * executes it in a forked child, so a telescoping-assert abort or a
 * sanitizer crash is observed as a classified violation instead of
 * killing the campaign. Any failing scenario is shrunk to a minimal
 * reproducer (fewest refs/cores/faults) — every shrink probe forks too,
 * so crashing probes are fine — and saved as its sdpcm_cli line, the
 * one stored form of a scenario (FuzzScenario::cliLine).
 *
 * Usage:
 *   sdpcm_fuzz [--trials=N] [--seconds=S] [--seed=N] [--out=DIR]
 *              [--replay=FILE] [--corpus=DIR] [--no-shrink] [--quiet]
 *
 *   --trials=N    trial budget (default 100; 0 = unlimited, pair with
 *                 --seconds)
 *   --seconds=S   wall-clock budget; the campaign stops at whichever
 *                 budget expires first (0 = no wall-clock bound)
 *   --seed=N      master seed; the scenario sequence is a pure function
 *                 of it (default 1)
 *   --out=DIR     write shrunk reproducers as DIR/repro_<trial>.cli
 *                 (default: current directory)
 *   --replay=FILE run one scenario line (sdpcm_cli and its flags) and
 *                 report its outcome
 *   --corpus=DIR  replay every *.cli line in DIR (regression corpus)
 *   --no-shrink   report violations without shrinking
 *
 * A replayed line is parsed by sdpcm_cli's flag parser
 * (readScenarioLine) before any child is forked: a file that cannot be
 * read, a first word other than sdpcm_cli, or a flag the parser rejects
 * stops the run with a `fatal:` line naming it, exit 1, as the flag
 * would on sdpcm_cli itself. So does an output flag (--report,
 * --spans, --trace, ...): a scenario runs without outputs.
 *
 * Exit code: 0 when every executed scenario was clean, 1 on any
 * violation or rejected line, 2 on usage errors (--trials=0 without
 * --seconds, a corpus directory without *.cli lines).
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "verify/fuzz.hh"

using namespace sdpcm;

namespace {

// Child exit-code protocol (signals pass through waitpid separately).
constexpr int kExitClean = 0;
constexpr int kExitOracleMismatch = 10;
constexpr int kExitStall = 11;

/**
 * Run the scenario in a forked child; classify however it dies.
 * `profile_stalls` arms the observe-only host profiler in the child:
 * a stalled child prints its host-phase blame table to the shared
 * stderr before exiting, so the triage output shows where the wall
 * clock went. Off for shrink probes (every stalling probe would dump
 * a table).
 */
FuzzResult
runIsolated(const std::vector<std::string>& words,
            bool profile_stalls = false)
{
    const pid_t pid = fork();
    if (pid < 0) {
        // Out of processes: degrade to in-process (a crash then kills
        // the campaign, which still fails loudly).
        SDPCM_WARN("fork failed; running scenario in-process");
        return runScenario(words, profile_stalls);
    }
    if (pid == 0) {
        // Child: quiet logs (the parent prints triage), run, encode.
        // The exit-code protocol cannot carry the blame table, so a
        // stalled child prints it itself (stderr is the parent's).
        setLogLevel(LogLevel::Error);
        const FuzzResult r = runScenario(words, profile_stalls);
        if (r.outcome == FuzzOutcome::Stall && profile_stalls &&
            !r.detail.empty()) {
            std::cerr << "stall triage: " << r.detail << "\n";
        }
        switch (r.outcome) {
          case FuzzOutcome::Clean:
            _exit(kExitClean);
          case FuzzOutcome::OracleMismatch:
            _exit(kExitOracleMismatch);
          case FuzzOutcome::Stall:
            _exit(kExitStall);
          case FuzzOutcome::Crash:
            break; // unreachable in-process
        }
        _exit(kExitClean);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) < 0) {
        FuzzResult r;
        r.outcome = FuzzOutcome::Crash;
        r.detail = "waitpid failed";
        return r;
    }
    FuzzResult r;
    if (WIFSIGNALED(status)) {
        r.outcome = FuzzOutcome::Crash;
        r.detail = "child killed by signal " +
                   std::to_string(WTERMSIG(status)) +
                   " (assert/panic/sanitizer)";
        return r;
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    switch (code) {
      case kExitClean:
        r.outcome = FuzzOutcome::Clean;
        break;
      case kExitOracleMismatch:
        r.outcome = FuzzOutcome::OracleMismatch;
        r.detail = "oracle mismatch (run the repro line for counts)";
        break;
      case kExitStall:
        r.outcome = FuzzOutcome::Stall;
        r.detail = profile_stalls
            ? "tick budget expired with unfinished cores (host-phase "
              "blame above, printed by the child)"
            : "tick budget expired with unfinished cores";
        break;
      default:
        // SDPCM_FATAL exits 1; anything unexpected is a crash too.
        r.outcome = FuzzOutcome::Crash;
        r.detail = "child exited with code " + std::to_string(code);
        break;
    }
    return r;
}

/** Shrink with fork-isolated probes matching the original outcome. */
FuzzScenario
shrinkIsolated(const FuzzScenario& failing, FuzzOutcome outcome,
               unsigned* probes)
{
    return shrink(
        failing,
        [outcome](const FuzzScenario& c) {
            return runIsolated(c.args()).outcome == outcome;
        },
        probes);
}

/** Run one stored scenario line (already parsed) and report it. */
int
replayOne(const std::string& path, const std::vector<std::string>& words)
{
    const FuzzResult r = runIsolated(words, /*profile_stalls=*/true);
    std::cout << path << ": " << outcomeName(r.outcome);
    if (!r.detail.empty())
        std::cout << " — " << r.detail;
    std::cout << "\n  sdpcm_cli";
    for (const std::string& word : words)
        std::cout << " " << word;
    std::cout << "\n";
    return r.outcome == FuzzOutcome::Clean ? 0 : 1;
}

int
replayCorpus(const std::string& dir)
{
    namespace fs = std::filesystem;
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".cli")
            paths.push_back(entry.path().string());
    }
    if (ec) {
        std::cerr << "sdpcm_fuzz: cannot read corpus dir " << dir << ": "
                  << ec.message() << "\n";
        return 2;
    }
    if (paths.empty()) {
        std::cerr << "sdpcm_fuzz: no *.cli lines in " << dir << "\n";
        return 2;
    }
    std::sort(paths.begin(), paths.end());
    // Every line is parsed before the first child forks.
    std::vector<std::vector<std::string>> lines;
    for (const std::string& path : paths)
        lines.push_back(readScenarioLine(path));
    int failures = 0;
    for (std::size_t i = 0; i < paths.size(); ++i)
        failures += replayOne(paths[i], lines[i]);
    std::cout << paths.size() << " corpus line(s), " << failures
              << " violation(s)\n";
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    if (args.has("help")) {
        std::cout
            << "sdpcm_fuzz — randomized scenario fuzzer over the "
               "shadow-memory oracle\n"
               "  --trials=N    trial budget (default 100; 0 = "
               "unlimited)\n"
               "  --seconds=S   wall-clock budget (0 = none)\n"
               "  --seed=N      master seed (scenario stream is "
               "deterministic in it)\n"
               "  --out=DIR     where shrunk reproducers land "
               "(repro_<trial>.cli)\n"
               "  --replay=FILE run one scenario line (sdpcm_cli and its "
               "flags), report the outcome\n"
               "  --corpus=DIR  replay every *.cli line in DIR\n"
               "  --no-shrink   skip reproducer minimisation\n"
               "  --quiet       only print violations and the summary\n"
               "A replayed line is parsed as sdpcm_cli flags first: a "
               "flag it rejects, or an\n"
               "output flag (--report, --spans, --trace, ...), is a "
               "fatal: line, exit 1,\n"
               "before any scenario runs.\n";
        return 0;
    }
    if (args.getBool("quiet", false))
        setLogLevel(LogLevel::Warn);
    const auto trials = args.get<std::uint64_t>("trials", 100);
    const double seconds = args.get<double>("seconds", 0.0, 0.0);
    const auto master_seed = args.get<std::uint64_t>("seed", 1);
    const std::string out_dir = args.getString("out", ".");
    const bool no_shrink = args.getBool("no-shrink", false);
    const std::string replay_path = args.getString("replay", "");
    const std::string corpus_dir = args.getString("corpus", "");
    args.finishParsing();

    if (args.has("replay"))
        return replayOne(replay_path, readScenarioLine(replay_path));
    if (args.has("corpus"))
        return replayCorpus(corpus_dir);
    if (trials == 0 && seconds <= 0.0) {
        std::cerr << "sdpcm_fuzz: --trials=0 needs --seconds=S\n";
        return 2;
    }

    Rng rng(master_seed);
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t executed = 0;
    std::uint64_t violations = 0;
    std::uint64_t by_outcome[4] = {0, 0, 0, 0};

    for (std::uint64_t trial = 0;; ++trial) {
        if (trials > 0 && trial >= trials)
            break;
        if (seconds > 0.0) {
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (elapsed >= seconds)
                break;
        }
        // Drawn before the fork so the stream is identical whether or
        // not earlier trials failed.
        const FuzzScenario s = randomScenario(rng);
        const FuzzResult r = runIsolated(s.args(), /*profile_stalls=*/true);
        executed += 1;
        by_outcome[static_cast<int>(r.outcome)] += 1;
        if (r.outcome == FuzzOutcome::Clean) {
            SDPCM_PROGRESS("trial ", trial, ": clean  ", s.describe());
            continue;
        }
        violations += 1;
        std::cout << "\nVIOLATION (trial " << trial << ", "
                  << outcomeName(r.outcome) << ")";
        if (!r.detail.empty())
            std::cout << ": " << r.detail;
        std::cout << "\n  scenario: " << s.describe() << "\n";

        FuzzScenario minimal = s;
        if (!no_shrink) {
            unsigned probes = 0;
            minimal = shrinkIsolated(s, r.outcome, &probes);
            std::cout << "  shrunk (" << probes << " probes): "
                      << minimal.describe() << "\n";
        }
        const std::string repro_path =
            out_dir + "/repro_" + std::to_string(trial) + ".cli";
        std::ofstream os(repro_path);
        if (os) {
            os << minimal.cliLine() << "\n";
            std::cout << "  saved: " << repro_path << "\n";
        } else {
            std::cerr << "  (cannot write " << repro_path << ")\n";
        }
        std::cout << "  repro: " << minimal.cliLine() << "\n";
    }

    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    std::cout << "\nsdpcm_fuzz: " << executed << " trial(s) in "
              << elapsed << "s (seed " << master_seed << "): "
              << by_outcome[0] << " clean, " << by_outcome[1]
              << " oracle-mismatch, " << by_outcome[2] << " stall, "
              << by_outcome[3] << " crash\n";
    return violations == 0 ? 0 : 1;
}
