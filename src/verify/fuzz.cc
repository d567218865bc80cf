#include "verify/fuzz.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/args.hh"
#include "common/logging.hh"
#include "controller/scheme.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"
#include "pcm/ecp.hh"
#include "sim/runner.hh"
#include "workload/generators.hh"

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

void
FuzzScenario::writeJson(std::ostream& os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("scheme", scheme);
    w.kv("workload", workload);
    w.kv("wc", wc);
    w.kv("idleDrain", idleDrain);
    w.kv("maxCancels", static_cast<std::uint64_t>(maxCancels));
    w.kv("drainBurst", static_cast<std::uint64_t>(drainBurst));
    w.kv("ecp", static_cast<std::uint64_t>(ecp));
    w.kv("wq", static_cast<std::uint64_t>(wq));
    w.kv("n", static_cast<std::uint64_t>(n));
    w.kv("m", static_cast<std::uint64_t>(m));
    w.kv("cores", static_cast<std::uint64_t>(cores));
    w.kv("refs", refs);
    w.kv("seed", seed);
    w.kv("age", age);
    w.kv("stuck", stuck);
    w.kv("ecpSteal", static_cast<std::uint64_t>(ecpSteal));
    w.kv("wd", wd);
    w.kv("faultSeed", faultSeed);
    w.endObject();
    os << "\n";
}

std::string
FuzzScenario::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

namespace {

/** Spec field `key` as a T (integers must fit T), or a runtime_error. */
template <typename T>
T
field(const JsonValue& doc, const char* key)
{
    const JsonValue& v = doc.at(key);
    const auto bad = [key](const std::string& want) {
        return std::runtime_error(std::string("fuzz spec: field '") + key +
                                  "' must be " + want);
    };
    if constexpr (std::is_same_v<T, bool>) {
        if (v.type != JsonValue::Type::Bool)
            throw bad("a boolean");
        return v.boolean;
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (v.type != JsonValue::Type::String)
            throw bad("a string");
        return v.str;
    } else {
        if (v.type != JsonValue::Type::Number)
            throw bad("a number");
        if (std::is_integral_v<T> &&
            !(v.number >= 0.0 &&
              v.number < std::ldexp(1.0, std::numeric_limits<T>::digits)))
            throw bad("in [0, " +
                      std::to_string(std::numeric_limits<T>::max()) + "]");
        return static_cast<T>(v.number);
    }
}

} // namespace

FuzzScenario
FuzzScenario::fromJson(const std::string& text)
{
    JsonValue doc;
    try {
        doc = parseJson(text);
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(std::string("fuzz spec: ") + e.what());
    }
    if (!doc.isObject())
        throw std::runtime_error("fuzz spec: top level must be an object");

    static const char* const known[] = {
        "scheme", "workload", "wc",    "idleDrain", "maxCancels",
        "drainBurst", "ecp", "wq",     "n",        "m",     "cores",
        "refs", "seed", "age", "stuck", "ecpSteal", "wd", "faultSeed",
    };
    for (const auto& [key, value] : doc.object) {
        (void)value;
        bool ok = false;
        for (const char* k : known)
            ok = ok || key == k;
        if (!ok)
            throw std::runtime_error("fuzz spec: unknown field '" + key +
                                     "'");
    }

    FuzzScenario s;
    try {
        s.scheme = field<std::string>(doc, "scheme");
        s.workload = field<std::string>(doc, "workload");
        s.wc = field<bool>(doc, "wc");
        s.idleDrain = field<bool>(doc, "idleDrain");
        s.maxCancels = field<unsigned>(doc, "maxCancels");
        s.drainBurst = field<unsigned>(doc, "drainBurst");
        s.ecp = field<unsigned>(doc, "ecp");
        s.wq = field<unsigned>(doc, "wq");
        s.n = field<unsigned>(doc, "n");
        s.m = field<unsigned>(doc, "m");
        s.cores = field<unsigned>(doc, "cores");
        // --refs, --seed and --inject's seed read integers as int64.
        s.refs = field<std::int64_t>(doc, "refs");
        s.seed = field<std::int64_t>(doc, "seed");
        s.age = field<double>(doc, "age");
        s.stuck = field<double>(doc, "stuck");
        s.ecpSteal = field<unsigned>(doc, "ecpSteal");
        s.wd = field<double>(doc, "wd");
        s.faultSeed = field<std::int64_t>(doc, "faultSeed");
    } catch (const std::out_of_range&) {
        throw std::runtime_error("fuzz spec: missing required field");
    }
    if (!(s.age >= 0.0 && s.age <= kMaxAgeFraction))
        throw std::runtime_error("fuzz spec: age must be in [0,1]");
    if (s.wq < kMinWriteQueueEntries || s.wq > kMaxWriteQueueEntries ||
        s.cores < kMinCores || s.cores > kMaxCores ||
        s.ecp > kMaxEcpEntries || s.refs < kMinRefsPerCore ||
        !NmRatio{s.n, s.m}.valid())
        throw std::runtime_error("fuzz spec: needs 1<=wq<=" +
                                 std::to_string(kMaxWriteQueueEntries) +
                                 ", 1<=cores<=" +
                                 std::to_string(kMaxCores) + ", ecp<=" +
                                 std::to_string(kMaxEcpEntries) +
                                 ", refs>0 and 1<=n<=m<=" +
                                 std::to_string(kStripsPerBlock));
    // Reuse the injector's own validation (in-range), so a spec and an
    // --inject flag accept the same values, and check the scheme and
    // workload names against the tables the run looks them up in, where
    // an unknown name is a fatal.
    try {
        (void)FaultSpec::parse(injectSpec(s));
        (void)SchemeConfig::byName(s.scheme, NmRatio{s.n, s.m});
    } catch (const std::invalid_argument& e) {
        throw std::runtime_error(std::string("fuzz spec: ") + e.what());
    }
    const auto& profiles = table3Profiles();
    if (s.workload != "qstress" &&
        std::none_of(profiles.begin(), profiles.end(),
                     [&](const WorkloadProfile& p) {
                         return p.name == s.workload;
                     }))
        throw std::runtime_error("fuzz spec: unknown workload '" +
                                 s.workload + "'");
    return s;
}

FuzzScenario
FuzzScenario::fromJsonFile(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot open fuzz spec: " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return fromJson(buf.str());
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
fuzzTickBudget(const FuzzScenario& s)
{
    // The worst legitimate fault-free configuration measured (qstress,
    // wq=2, write cancellation, 4 cores) needs ~3.3k ticks per
    // reference; budget ~20k per reference plus slack. Heavy fault
    // storms legitimately cost far more — wd=1 + stuck=10 on fnw
    // measured ~330k ticks/ref of correction cascades — so the per-ref
    // budget scales with the storm. Expiry therefore means livelock;
    // deadlock shows up earlier as a quiescent event queue.
    const double storm = 1.0 + 40.0 * s.wd + 4.0 * s.stuck;
    const auto per_ref = static_cast<Tick>(20000.0 * storm);
    return Tick(4000000) + per_ref * s.refs * s.cores;
}

FuzzResult
runScenario(const FuzzScenario& s, bool profile_stalls)
{
    const ArgParser args(s.args());
    const CliRun run = parseCliRun(args);
    args.finishParsing();
    SystemConfig sc;
    static_cast<RunOptions&>(sc) = run.flags.config;
    sc.scheme = run.scheme;
    sc.maxTicks = fuzzTickBudget(s);
    sc.profile = profile_stalls;

    System system(sc, workloadFromProfile(run.workload));
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
        os << unfinished << " of " << s.cores
           << " cores unfinished at tick " << m.finalTick << " (budget "
           << fuzzTickBudget(s) << ")";
        if (m.prof.enabled) {
            // Where the host clock went while the sim livelocked — the
            // phase spinning at the top is usually the stalled machine.
            os << "\n";
            printProfileTop(os, "stall " + s.scheme + "/" + s.workload,
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
