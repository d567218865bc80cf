/**
 * @file
 * Randomized scenario fuzzer over the shadow-memory oracle.
 *
 * A FuzzScenario is one point in the (scheme x cancellation x injected
 * faults x queue pressure x workload x (n:m) x seed) space. runScenario
 * executes it with the oracle armed and classifies the outcome:
 *
 *   Clean          — run finished, oracle agreed on every check
 *   OracleMismatch — the shadow memory caught wrong data
 *   Stall          — the tick budget expired (or the event queue went
 *                    quiescent) with cores still unfinished
 *   Crash          — the process died (telescoping SDPCM_ASSERT, panic,
 *                    sanitizer abort); only observable from the
 *                    fork-per-trial driver in tools/sdpcm_fuzz.cpp,
 *                    which maps a child's signal exit onto this value
 *
 * A scenario is the sdpcm_cli line it prints (cliLine), and that line
 * is its only stored form: failing scenarios are shrunk to a minimal
 * reproducer by a greedy fixed-point pass (see shrink below) and saved
 * as that line, which readScenarioLine reads back through the flag
 * parser sdpcm_cli runs. Scenario generation and shrinking are
 * deterministic: the same master seed always visits the same scenarios
 * in the same order, so a CI failure is reproducible from its trial
 * number alone.
 */

#ifndef SDPCM_VERIFY_FUZZ_HH
#define SDPCM_VERIFY_FUZZ_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "pcm/timing.hh"

namespace sdpcm {

struct RunOptions;

/** One fuzzable simulation configuration, drawn and shrunk as fields. */
struct FuzzScenario
{
    std::string scheme = "sdpcm"; //!< sdpcm_cli scheme name
    std::string workload = "mcf"; //!< Table 3 profile or qstress
    bool wc = false;              //!< write cancellation
    bool idleDrain = false;       //!< drain one write on idle banks
    unsigned maxCancels = 4;      //!< cancellation cap per write
    unsigned drainBurst = 16;     //!< writes retired per drain burst
    unsigned ecp = 6;             //!< ECP entries per line
    unsigned wq = 32;             //!< write-queue entries per bank
    unsigned n = 2;               //!< (n:m) numerator
    unsigned m = 3;               //!< (n:m) denominator
    unsigned cores = 4;
    std::uint64_t refs = 2000;    //!< memory references per core
    std::uint64_t seed = 1;       //!< workload/system RNG seed
    double age = 0.0;             //!< consumed-lifetime fraction [0,1]
    double stuck = 0.0;           //!< mean injected stuck cells per line
    unsigned ecpSteal = 0;        //!< injected dead ECP entries per line
    double wd = 0.0;              //!< forced WD-flip probability
    std::uint64_t faultSeed = 1;  //!< injector RNG seed

    /** One-line summary for progress and triage output. */
    std::string describe() const;

    /**
     * The scenario as sdpcm_cli flags (--verify-oracle included);
     * doubles print in shortest round-trip form. runScenario parses
     * these with parseCliRun, the parser sdpcm_cli runs, so a scenario
     * is exactly its command line.
     */
    std::vector<std::string> args() const;

    /**
     * "sdpcm_cli " + args(), space-joined: the stored form of a
     * scenario (read back with readScenarioLine) and its copy-paste
     * reproducer.
     */
    std::string cliLine() const;

    bool operator==(const FuzzScenario&) const = default;
};

/** Outcome classification of one scenario execution. */
enum class FuzzOutcome
{
    Clean,
    OracleMismatch,
    Stall,
    Crash,
};

const char* outcomeName(FuzzOutcome outcome);

/** Result of an in-process scenario run. */
struct FuzzResult
{
    FuzzOutcome outcome = FuzzOutcome::Clean;
    std::uint64_t mismatches = 0; //!< oracle mismatch count
    std::string detail;           //!< human-readable triage hint
};

/**
 * Tick budget for a scenario's run (its refs, cores and injected
 * stuck-cell and WD rates): generous enough that the slowest legitimate
 * configuration (tiny queue, qstress, write cancellation) finishes with
 * an order of magnitude to spare, so expiry means a genuine livelock.
 * Deadlocks (quiescent event queue, unfinished cores) are detected
 * regardless of the budget.
 */
Tick fuzzTickBudget(const RunOptions& run);

/**
 * Read a stored scenario: one line, `sdpcm_cli` and then its flags, as
 * cliLine() prints it. The line is split on whitespace and its flags
 * are parsed as sdpcm_cli parses one run (parseCliRun, finishParsing,
 * then the workload's profile), so a line whose first word is not
 * sdpcm_cli, an unreadable file, any flag the parser rejects and any
 * output flag (--report, --spans*, --wd-ledger, --wd-top, --profile*,
 * --trace, --telemetry*, --epoch*, --heatmap*: a scenario runs without
 * outputs) stop with a `fatal:` line (exit 1) before anything runs.
 * Returns the words after sdpcm_cli, which runScenario takes.
 */
std::vector<std::string> readScenarioLine(const std::string& path);

/**
 * Run one scenario in-process from its sdpcm_cli words (args() or what
 * readScenarioLine returns): parse them with parseCliRun, then set only
 * the tick budget and the profiler. Never throws; a flag the parser
 * rejects is a fatal exit and telescoping-assert failures abort the
 * process (use the fork driver to observe those as Crash).
 *
 * `profile_stalls` additionally arms the observe-only host-time
 * profiler (obs/profiler.hh): on a Stall verdict the host-phase blame
 * table is appended to `detail`, so the triage output shows where the
 * simulator was burning wall clock when it livelocked. Leave it off for
 * shrink probes — the blame of the minimal reproducer is what matters,
 * and every probe would otherwise dump a table.
 */
FuzzResult runScenario(const std::vector<std::string>& args,
                       bool profile_stalls = false);

/**
 * Draw the next scenario from `rng`. Dimensions are weighted toward the
 * adversarial corners that found bugs before: small write queues, write
 * cancellation on, (n:m) sharing, qstress, heavy fault storms.
 */
FuzzScenario randomScenario(Rng& rng);

/**
 * Predicate deciding whether a candidate scenario still reproduces the
 * failure being shrunk (true = still failing).
 */
using FuzzPredicate = std::function<bool(const FuzzScenario&)>;

/**
 * Greedily shrink `failing` to a minimal still-failing reproducer:
 * repeatedly try an ordered list of reductions (fewer refs, fewer
 * cores, fewer injected faults, simpler knobs) and accept the first
 * that still fails, until a full pass accepts nothing. Deterministic
 * for a deterministic predicate; the result satisfies the predicate.
 * `probes`, when non-null, receives the number of predicate calls.
 */
FuzzScenario shrink(const FuzzScenario& failing,
                    const FuzzPredicate& still_fails,
                    unsigned* probes = nullptr);

} // namespace sdpcm

#endif // SDPCM_VERIFY_FUZZ_HH
