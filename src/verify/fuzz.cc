#include "verify/fuzz.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/args.hh"
#include "common/logging.hh"
#include "controller/scheme.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"
#include "sim/runner.hh"

namespace sdpcm {

namespace {

/** True for the scheme names SchemeConfig::byName builds from --n/--m. */
bool
takesRatio(const std::string& scheme)
{
    return scheme == "nm" || scheme == "sdpcm" || scheme == "all" ||
           scheme == "lazyc+preread+nm";
}

/** A double in shortest round-trip form: the shrinker halves stuck/wd
 *  to values the default 6 digits would print rounded. */
std::string
exact(double v)
{
    std::ostringstream num;
    json::writeNumber(num, v);
    return num.str();
}

/** The scenario's --inject value (every channel and the seed). */
std::string
injectSpec(const FuzzScenario& s)
{
    return "stuck=" + exact(s.stuck) + ",ecp=" +
           std::to_string(s.ecpSteal) + ",wd=" + exact(s.wd) +
           ",seed=" + std::to_string(s.faultSeed);
}

} // namespace

std::string
FuzzScenario::describe() const
{
    std::ostringstream os;
    os << scheme << "/" << workload << " wc=" << (wc ? 1 : 0)
       << " wq=" << wq << " ecp=" << ecp;
    if (drainBurst != 16)
        os << " drain-burst=" << drainBurst;
    if (maxCancels != 4)
        os << " max-cancels=" << maxCancels;
    if (takesRatio(scheme))
        os << " (" << n << ":" << m << ")";
    if (idleDrain)
        os << " idle-drain";
    os << " cores=" << cores << " refs=" << refs << " seed=" << seed;
    if (age > 0.0)
        os << " age=" << age;
    if (stuck > 0.0 || ecpSteal > 0 || wd > 0.0) {
        os << " inject[stuck=" << stuck << ",ecp=" << ecpSteal
           << ",wd=" << wd << ",seed=" << faultSeed << "]";
    }
    return os.str();
}

std::vector<std::string>
FuzzScenario::args() const
{
    using std::to_string;
    std::vector<std::string> words = {
        "--verify-oracle",
        "--scheme=" + scheme,
        "--workload=" + workload,
        "--refs=" + to_string(refs),
        "--seed=" + to_string(seed),
        "--cores=" + to_string(cores),
        "--ecp=" + to_string(ecp),
        "--wq=" + to_string(wq),
        "--wc=" + to_string(wc ? 1 : 0),
        "--idle-drain=" + to_string(idleDrain ? 1 : 0),
        "--max-cancels=" + to_string(maxCancels),
        "--drain-burst=" + to_string(drainBurst),
    };
    if (age > 0.0)
        words.push_back("--age=" + exact(age));
    if (takesRatio(scheme)) {
        words.push_back("--n=" + to_string(n));
        words.push_back("--m=" + to_string(m));
    }
    // An unarmed injector is never built, so its seed need not travel.
    if (stuck > 0.0 || ecpSteal > 0 || wd > 0.0)
        words.push_back("--inject=" + injectSpec(*this));
    return words;
}

std::string
FuzzScenario::cliLine() const
{
    std::string line = "sdpcm_cli";
    for (const std::string& word : args())
        line += " " + word;
    return line;
}

const char*
outcomeName(FuzzOutcome outcome)
{
    switch (outcome) {
      case FuzzOutcome::Clean:
        return "clean";
      case FuzzOutcome::OracleMismatch:
        return "oracle-mismatch";
      case FuzzOutcome::Stall:
        return "stall";
      case FuzzOutcome::Crash:
        return "crash";
    }
    return "?";
}

Tick
fuzzTickBudget(const RunOptions& run)
{
    // The worst legitimate fault-free configuration measured (qstress,
    // wq=2, write cancellation, 4 cores) needs ~3.3k ticks per
    // reference; budget ~20k per reference plus slack. Heavy fault
    // storms legitimately cost far more — wd=1 + stuck=10 on fnw
    // measured ~330k ticks/ref of correction cascades — so the per-ref
    // budget scales with the storm. Expiry therefore means livelock;
    // deadlock shows up earlier as a quiescent event queue.
    const double storm =
        1.0 + 40.0 * run.faults.wdBoost + 4.0 * run.faults.stuckPerLine;
    const auto per_ref = static_cast<Tick>(20000.0 * storm);
    return Tick(4000000) + per_ref * run.refsPerCore * run.cores;
}

namespace {

/** The run sdpcm_cli makes of `words`: fatal on any word it would
 *  reject, the workload's name included. */
CliRun
parseScenario(const std::vector<std::string>& words)
{
    const ArgParser args(words);
    CliRun cli = parseCliRun(args);
    args.finishParsing();
    (void)workloadFromProfile(cli.workload);
    return cli;
}

} // namespace

std::vector<std::string>
readScenarioLine(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        SDPCM_FATAL("cannot open fuzz scenario: ", path);
    std::vector<std::string> words;
    for (std::string word; is >> word;)
        words.push_back(word);
    if (words.empty() || words.front() != "sdpcm_cli") {
        SDPCM_FATAL("fuzz scenario ", path, " must start with sdpcm_cli, "
                    "not '", words.empty() ? "" : words.front(), "'");
    }
    words.erase(words.begin());
    // runScenario writes no output, so a flag naming one (or its family)
    // would replay clean and write nothing.
    for (const std::string& word : words) {
        const std::string key = word.substr(0, word.find('='));
        for (const std::string flag :
             {"--report", "--spans", "--wd-ledger", "--wd-top", "--profile",
              "--trace", "--telemetry", "--epoch", "--heatmap"}) {
            if (key == flag || key.rfind(flag + "-", 0) == 0) {
                SDPCM_FATAL("fuzz scenario ", path, " carries the output "
                            "flag ", key, "; a scenario runs without outputs");
            }
        }
    }
    (void)parseScenario(words);
    return words;
}

FuzzResult
runScenario(const std::vector<std::string>& args, bool profile_stalls)
{
    const CliRun cli = parseScenario(args);
    SystemConfig sc;
    static_cast<RunOptions&>(sc) = cli.flags.config;
    sc.scheme = cli.scheme;
    sc.maxTicks = fuzzTickBudget(sc);
    sc.profile = profile_stalls;

    System system(sc, workloadFromProfile(cli.workload));
    system.run();

    FuzzResult r;
    unsigned unfinished = 0;
    for (const auto& core : system.cores()) {
        if (!core->done())
            unfinished += 1;
    }
    // metrics() also evaluates the telescoping cross-check asserts; an
    // inconsistent counter ledger aborts here (Crash under the fork
    // driver).
    const RunMetrics m = system.metrics();
    if (unfinished > 0) {
        r.outcome = FuzzOutcome::Stall;
        std::ostringstream os;
        os << unfinished << " of " << sc.cores
           << " cores unfinished at tick " << m.finalTick << " (budget "
           << sc.maxTicks << ")";
        if (m.prof.enabled) {
            // Where the host clock went while the sim livelocked — the
            // phase spinning at the top is usually the stalled machine.
            os << "\n";
            printProfileTop(os, "stall " + sc.scheme.name + "/" +
                                    cli.workload,
                            m.prof, 5);
        }
        r.detail = os.str();
        return r;
    }
    if (m.oracle.mismatches > 0) {
        r.outcome = FuzzOutcome::OracleMismatch;
        r.mismatches = m.oracle.mismatches;
        std::ostringstream os;
        os << m.oracle.mismatches << " oracle mismatch(es) over "
           << m.oracle.readsChecked << " reads / "
           << m.oracle.commitsChecked << " commits / "
           << m.oracle.finalLinesChecked << " final lines";
        r.detail = os.str();
        return r;
    }
    r.outcome = FuzzOutcome::Clean;
    return r;
}

FuzzScenario
randomScenario(Rng& rng)
{
    FuzzScenario s;

    static const char* const schemes[] = {
        "sdpcm", "sdpcm", "sdpcm",   // weighted: the full stack has the
        "lazyc+preread", "lazyc+preread", // most interacting machinery
        "lazyc", "nm", "baseline", "fnw", "din",
    };
    s.scheme = schemes[rng.below(sizeof(schemes) / sizeof(schemes[0]))];

    static const char* const workloads[] = {
        "qstress", "qstress", "qstress", // adversarial queue pressure
        "mcf", "mcf",                    // write-heavy, pointer-chasing
        "stream", "lbm", "gemsFDTD",
    };
    s.workload =
        workloads[rng.below(sizeof(workloads) / sizeof(workloads[0]))];

    s.wc = rng.below(4) != 0; // cancellation found every bug so far
    s.idleDrain = rng.below(4) == 0;
    static const unsigned cancel_caps[] = {0, 1, 2, 4, 8};
    s.maxCancels = cancel_caps[rng.below(5)];
    // 0 and 1 exercise the controller's clamp; 0 once aborted the drain
    // state machine (memctrl ctor now clamps to >= 1).
    static const unsigned drain_bursts[] = {0, 1, 2, 8, 16, 16, 16, 32};
    s.drainBurst =
        drain_bursts[rng.below(sizeof(drain_bursts) /
                               sizeof(drain_bursts[0]))];

    static const unsigned wqs[] = {1, 2, 2, 4, 4, 8, 16, 32};
    s.wq = wqs[rng.below(sizeof(wqs) / sizeof(wqs[0]))];
    static const unsigned ecps[] = {0, 1, 2, 4, 6, 10};
    s.ecp = ecps[rng.below(sizeof(ecps) / sizeof(ecps[0]))];

    static const unsigned nm_pairs[][2] = {
        {1, 1}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {7, 8},
    };
    const unsigned pick =
        static_cast<unsigned>(rng.below(sizeof(nm_pairs) /
                                        sizeof(nm_pairs[0])));
    s.n = nm_pairs[pick][0];
    s.m = nm_pairs[pick][1];

    s.cores = 1 + static_cast<unsigned>(rng.below(6));
    static const double ages[] = {0.0, 0.0, 0.0, 0.5, 0.9};
    s.age = ages[rng.below(5)];
    static const std::uint64_t ref_counts[] = {300, 800, 1500, 3000};
    s.refs = ref_counts[rng.below(4)];
    s.seed = 1 + rng.below(1u << 30);

    // Fault storm in ~60% of scenarios.
    if (rng.below(5) < 3) {
        static const double stucks[] = {0.0, 0.1, 0.5, 1.5, 4.0};
        s.stuck = stucks[rng.below(5)];
        s.ecpSteal = static_cast<unsigned>(rng.below(7));
        static const double wds[] = {0.0, 0.005, 0.02, 0.08, 0.3};
        s.wd = wds[rng.below(5)];
        s.faultSeed = 1 + rng.below(1000);
    }
    return s;
}

FuzzScenario
shrink(const FuzzScenario& failing, const FuzzPredicate& still_fails,
       unsigned* probes)
{
    FuzzScenario best = failing;
    unsigned probe_count = 0;

    // One reduction candidate: mutate a copy, keep it if it still
    // fails. Returns true when the candidate was accepted (progress).
    const auto attempt = [&](FuzzScenario candidate) {
        if (candidate == best)
            return false;
        probe_count += 1;
        if (!still_fails(candidate))
            return false;
        best = candidate;
        return true;
    };

    bool progress = true;
    while (progress) {
        progress = false;

        // Fewest refs first — the dominant cost of a reproducer.
        for (const std::uint64_t div : {16u, 4u, 2u}) {
            FuzzScenario c = best;
            c.refs = std::max<std::uint64_t>(1, best.refs / div);
            progress |= attempt(c);
        }
        {
            FuzzScenario c = best;
            if (c.refs > 1) {
                c.refs -= 1;
                progress |= attempt(c);
            }
        }

        // Fewer cores (the -1 step reaches minima the halving jumps
        // over, e.g. 3 -> 2 when 3/2 = 1 no longer reproduces).
        for (const unsigned div : {4u, 2u}) {
            FuzzScenario c = best;
            c.cores = std::max(1u, best.cores / div);
            progress |= attempt(c);
        }
        {
            FuzzScenario c = best;
            if (c.cores > 1) {
                c.cores -= 1;
                progress |= attempt(c);
            }
        }

        // Fewest injected faults: drop each channel entirely, then
        // halve.
        {
            FuzzScenario c = best;
            c.stuck = 0.0;
            progress |= attempt(c);
        }
        {
            FuzzScenario c = best;
            c.ecpSteal = 0;
            progress |= attempt(c);
        }
        {
            FuzzScenario c = best;
            c.wd = 0.0;
            progress |= attempt(c);
        }
        {
            FuzzScenario c = best;
            c.stuck = best.stuck / 2.0;
            if (c.stuck < 1e-3)
                c.stuck = 0.0;
            progress |= attempt(c);
        }
        {
            FuzzScenario c = best;
            c.wd = best.wd / 2.0;
            if (c.wd < 1e-4)
                c.wd = 0.0;
            progress |= attempt(c);
        }

        {
            FuzzScenario c = best;
            c.age = 0.0;
            progress |= attempt(c);
        }

        // Simpler knobs: cancellation off, no idle drain, single cap.
        {
            FuzzScenario c = best;
            c.wc = false;
            progress |= attempt(c);
        }
        {
            FuzzScenario c = best;
            c.idleDrain = false;
            progress |= attempt(c);
        }
        {
            FuzzScenario c = best;
            c.maxCancels = std::max(1u, best.maxCancels / 2);
            progress |= attempt(c);
        }
        {
            FuzzScenario c = best;
            c.drainBurst = 16; // scheme default
            progress |= attempt(c);
        }

        // Larger queue = less pressure = simpler schedule, when the bug
        // allows it.
        {
            FuzzScenario c = best;
            c.wq = std::min(32u, best.wq * 2);
            progress |= attempt(c);
        }
    }

    if (probes)
        *probes = probe_count;
    return best;
}

} // namespace sdpcm
