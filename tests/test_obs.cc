/**
 * @file
 * Observability subsystem tests: Chrome trace JSON shape and ordering,
 * epoch time-series conservation against the end-of-run totals, and the
 * quantile estimators against exact-sort oracles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "event_adapters.hh"
#include "obs/csv.hh"
#include "obs/telemetry.hh"
#include "obs/json.hh"
#include "obs/trace_sink.hh"
#include "sim/event_queue.hh"
#include "sim/runner.hh"

namespace sdpcm {
namespace {

// ---------------------------------------------------------------------
// A minimal JSON value + recursive-descent parser, enough to validate
// the trace files we emit (objects, arrays, strings, numbers, no
// unicode escapes). Throws std::runtime_error on malformed input so a
// bad trace fails the test loudly.
// ---------------------------------------------------------------------

struct Json
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> array;
    std::map<std::string, Json> object;

    bool has(const std::string& key) const
    {
        return type == Type::Object && object.count(key) > 0;
    }
    const Json& at(const std::string& key) const { return object.at(key); }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    Json parse()
    {
        const Json v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void fail(const char* why) const
    {
        throw std::runtime_error("JSON error at byte " +
                                 std::to_string(pos_) + ": " + why);
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r')) {
            pos_ += 1;
        }
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        pos_ += 1;
    }

    Json value()
    {
        skipWs();
        const char c = peek();
        if (c == '{')
            return objectValue();
        if (c == '[')
            return arrayValue();
        if (c == '"')
            return stringValue();
        if (c == 't' || c == 'f')
            return boolValue();
        if (c == 'n')
            return nullValue();
        return numberValue();
    }

    Json objectValue()
    {
        Json v;
        v.type = Json::Type::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            pos_ += 1;
            return v;
        }
        while (true) {
            skipWs();
            Json key = stringValue();
            skipWs();
            expect(':');
            v.object[key.str] = value();
            skipWs();
            if (peek() == ',') {
                pos_ += 1;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Json arrayValue()
    {
        Json v;
        v.type = Json::Type::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            pos_ += 1;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            skipWs();
            if (peek() == ',') {
                pos_ += 1;
                continue;
            }
            expect(']');
            return v;
        }
    }

    Json stringValue()
    {
        Json v;
        v.type = Json::Type::String;
        expect('"');
        while (peek() != '"') {
            char c = text_[pos_];
            pos_ += 1;
            if (c == '\\') {
                const char esc = peek();
                pos_ += 1;
                switch (esc) {
                  case 'n':
                    c = '\n';
                    break;
                  case 't':
                    c = '\t';
                    break;
                  case '"':
                  case '\\':
                  case '/':
                    c = esc;
                    break;
                  default:
                    fail("unsupported escape");
                }
            }
            v.str.push_back(c);
        }
        pos_ += 1;
        return v;
    }

    Json boolValue()
    {
        Json v;
        v.type = Json::Type::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    Json nullValue()
    {
        if (text_.compare(pos_, 4, "null") != 0)
            fail("bad literal");
        pos_ += 4;
        return Json{};
    }

    Json numberValue()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            pos_ += 1;
        }
        if (pos_ == start)
            fail("expected a value");
        Json v;
        v.type = Json::Type::Number;
        v.number = std::stod(text_.substr(start, pos_ - start));
        return v;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

Json
parseFile(const std::string& path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();
    return JsonParser(text).parse();
}

// ---------------------------------------------------------------------
// Trace sink
// ---------------------------------------------------------------------

TEST(ChromeTraceSink, EmitsParsableEvents)
{
    std::ostringstream os;
    {
        ChromeTraceSink sink(os);
        sink.threadName(0, "bank 0");
        sink.begin(0, "Read", "bank", 100, {});
        sink.instant(0, "write_cancel", "ctrl", 150, {{"elapsed", 50.0}});
        sink.end(0, 500, {});
        sink.counter("queues", 500, {{"read", 3.0}, {"write", 7.0}});
        sink.close();
    }
    const std::string text = os.str();
    const Json root = JsonParser(text).parse();

    ASSERT_TRUE(root.has("traceEvents"));
    EXPECT_TRUE(root.has("displayTimeUnit"));
    const auto& evs = root.at("traceEvents").array;
    ASSERT_EQ(evs.size(), 5u);

    EXPECT_EQ(evs[0].at("ph").str, "M");
    EXPECT_EQ(evs[0].at("name").str, "thread_name");
    EXPECT_EQ(evs[0].at("args").at("name").str, "bank 0");

    EXPECT_EQ(evs[1].at("ph").str, "B");
    EXPECT_EQ(evs[1].at("name").str, "Read");
    EXPECT_EQ(evs[1].at("cat").str, "bank");
    EXPECT_EQ(evs[1].at("ts").number, 100.0);
    EXPECT_EQ(evs[1].at("tid").number, 0.0);

    EXPECT_EQ(evs[2].at("ph").str, "i");
    EXPECT_EQ(evs[2].at("s").str, "t");
    EXPECT_EQ(evs[2].at("args").at("elapsed").number, 50.0);

    EXPECT_EQ(evs[3].at("ph").str, "E");
    EXPECT_EQ(evs[3].at("ts").number, 500.0);

    EXPECT_EQ(evs[4].at("ph").str, "C");
    EXPECT_EQ(evs[4].at("args").at("read").number, 3.0);
    EXPECT_EQ(evs[4].at("args").at("write").number, 7.0);
}

TEST(ChromeTraceSink, EscapesStrings)
{
    std::ostringstream os;
    {
        ChromeTraceSink sink(os);
        sink.threadName(1, "a\"b\\c\nd");
        sink.close();
    }
    const Json root = JsonParser(os.str()).parse();
    EXPECT_EQ(root.at("traceEvents").array.at(0).at("args").at("name").str,
              "a\"b\\c\nd");
}

/** Full-system trace: well-formed, known names, per-bank tick order. */
TEST(TraceIntegration, SystemTraceIsValidAndOrdered)
{
    const std::string path = ::testing::TempDir() + "sdpcm_obs_test.json";
    RunnerConfig cfg;
    cfg.refsPerCore = 2000;
    cfg.cores = 4;
    cfg.seed = 7;
    cfg.tracePath = path;
    const auto m = runOne(SchemeConfig::lazyCPreRead(),
                          workloadFromProfile("mcf"), cfg);
    ASSERT_GT(m.ctrl.readsServiced, 0u);

    const Json root = parseFile(path);
    ASSERT_TRUE(root.has("traceEvents"));
    const auto& evs = root.at("traceEvents").array;
    ASSERT_GT(evs.size(), 100u) << "trace suspiciously small";

    const std::vector<std::string> op_names = {
        "Read",           "PreRead",    "WriteRound", "VerifyRead",
        "CorrectionRound", "CascadeRead", "EcpUpdate"};
    const std::vector<std::string> instant_names = {
        "write_cancel", "drain_start", "ecp_overflow", "cascade_spike"};

    std::map<unsigned, double> last_ts;
    std::map<unsigned, int> depth;
    std::size_t durations = 0;
    for (const Json& e : evs) {
        ASSERT_TRUE(e.has("ph"));
        ASSERT_TRUE(e.has("pid"));
        ASSERT_TRUE(e.has("ts"));
        ASSERT_TRUE(e.has("tid"));
        const std::string& ph = e.at("ph").str;
        const auto tid = static_cast<unsigned>(e.at("tid").number);
        if (ph == "M")
            continue;

        // Events on one bank lane appear in non-decreasing tick order
        // (we emit B/E pairs live, never retroactive complete events).
        const double ts = e.at("ts").number;
        if (last_ts.count(tid)) {
            EXPECT_GE(ts, last_ts[tid]) << "tid " << tid;
        }
        last_ts[tid] = ts;

        if (ph == "B") {
            durations += 1;
            EXPECT_EQ(std::count(op_names.begin(), op_names.end(),
                                 e.at("name").str),
                      1)
                << "unknown op " << e.at("name").str;
            depth[tid] += 1;
            EXPECT_EQ(depth[tid], 1) << "overlapping ops on tid " << tid;
        } else if (ph == "E") {
            depth[tid] -= 1;
            EXPECT_EQ(depth[tid], 0) << "E without B on tid " << tid;
        } else if (ph == "i") {
            EXPECT_EQ(std::count(instant_names.begin(),
                                 instant_names.end(), e.at("name").str),
                      1)
                << "unknown marker " << e.at("name").str;
        } else {
            EXPECT_EQ(ph, "C") << "unexpected phase " << ph;
        }
    }
    EXPECT_GT(durations, 0u);
    // The run drains completely, so every occupancy closed.
    for (const auto& [tid, d] : depth)
        EXPECT_EQ(d, 0) << "unclosed op on tid " << tid;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Epoch sampling
// ---------------------------------------------------------------------

RunMetrics
epochRun(Tick epoch_ticks, const char* workload = "mcf")
{
    RunnerConfig cfg;
    cfg.refsPerCore = 2000;
    cfg.cores = 4;
    cfg.seed = 11;
    cfg.epochTicks = epoch_ticks;
    return runOne(SchemeConfig::lazyCPreReadNm(NmRatio{2, 3}),
                  workloadFromProfile(workload), cfg);
}

/** Each delta column, summed over all samples, equals the run total. */
TEST(EpochSampler, DeltasSumToFinalTotals)
{
    const RunMetrics m = epochRun(50000);
    ASSERT_TRUE(m.epochs.enabled());
    ASSERT_GT(m.epochs.samples.size(), 2u);

    EpochSample sum;
    Tick prev_tick = 0;
    for (const EpochSample& s : m.epochs.samples) {
        EXPECT_GT(s.tick, prev_tick) << "samples not strictly ordered";
        prev_tick = s.tick;
        sum.readsServiced += s.readsServiced;
        sum.readsForwarded += s.readsForwarded;
        sum.writesAccepted += s.writesAccepted;
        sum.writesCompleted += s.writesCompleted;
        sum.writeDrains += s.writeDrains;
        sum.ecpUpdates += s.ecpUpdates;
        sum.correctionWrites += s.correctionWrites;
        sum.writeCancellations += s.writeCancellations;
        sum.cyclesRead += s.cyclesRead;
        sum.cyclesPreRead += s.cyclesPreRead;
        sum.cyclesWrite += s.cyclesWrite;
        sum.cyclesVerify += s.cyclesVerify;
        sum.cyclesCorrection += s.cyclesCorrection;
        sum.cyclesEcp += s.cyclesEcp;
    }
    EXPECT_EQ(sum.readsServiced, m.ctrl.readsServiced);
    EXPECT_EQ(sum.readsForwarded, m.ctrl.readsForwarded);
    EXPECT_EQ(sum.writesAccepted, m.ctrl.writesAccepted);
    EXPECT_EQ(sum.writesCompleted, m.ctrl.writesCompleted);
    EXPECT_EQ(sum.writeDrains, m.ctrl.writeDrains);
    EXPECT_EQ(sum.ecpUpdates, m.ctrl.ecpUpdates);
    EXPECT_EQ(sum.correctionWrites, m.ctrl.correctionWrites);
    EXPECT_EQ(sum.writeCancellations, m.ctrl.writeCancellations);
    EXPECT_EQ(sum.cyclesRead, m.ctrl.cyclesRead);
    EXPECT_EQ(sum.cyclesPreRead, m.ctrl.cyclesPreRead);
    EXPECT_EQ(sum.cyclesWrite, m.ctrl.cyclesWrite);
    EXPECT_EQ(sum.cyclesVerify, m.ctrl.cyclesVerify);
    EXPECT_EQ(sum.cyclesCorrection, m.ctrl.cyclesCorrection);
    EXPECT_EQ(sum.cyclesEcp, m.ctrl.cyclesEcp);
}

TEST(EpochSampler, CsvShapeMatchesColumns)
{
    const RunMetrics m = epochRun(100000);
    std::ostringstream os;
    m.epochs.dumpCsv(os);
    std::istringstream is(os.str());
    std::string line;
    // The file leads with '#' comment lines documenting the delta-sum
    // invariant; consumers (and this test) skip them.
    std::size_t comments = 0;
    while (std::getline(is, line) && !line.empty() && line[0] == '#')
        comments += 1;
    EXPECT_GT(comments, 0u) << "expected a '#' header comment";
    EXPECT_NE(os.str().find("Delta-sum invariant"), std::string::npos);

    std::string expected_header;
    for (const auto& c : EpochSeries::columns())
        expected_header += (expected_header.empty() ? "" : ",") + c;
    EXPECT_EQ(line, expected_header);

    const auto commas = static_cast<long>(
        std::count(line.begin(), line.end(), ','));
    std::size_t rows = 0;
    while (std::getline(is, line)) {
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), commas);
        rows += 1;
    }
    EXPECT_EQ(rows, m.epochs.samples.size());
}

TEST(EpochSampler, JsonDumpParses)
{
    const RunMetrics m = epochRun(100000);
    std::ostringstream os;
    m.epochs.dumpJson(os);
    const std::string text = os.str();
    const Json root = JsonParser(text).parse();
    ASSERT_TRUE(root.has("epoch_ticks"));
    EXPECT_EQ(root.at("epoch_ticks").number, 100000.0);
    ASSERT_TRUE(root.has("samples"));
    EXPECT_EQ(root.at("samples").array.size(), m.epochs.samples.size());
    const Json& first = root.at("samples").array.at(0);
    for (const auto& c : EpochSeries::columns())
        EXPECT_TRUE(first.has(c)) << "missing column " << c;
}

TEST(EpochSampler, SnapshotCarriesPercentilesAndEpochStats)
{
    const RunMetrics m = epochRun(50000);
    const StatSnapshot s = m.toSnapshot();
    EXPECT_TRUE(s.has("read_latency_p50"));
    EXPECT_TRUE(s.has("read_latency_p95"));
    EXPECT_TRUE(s.has("read_latency_p99"));
    EXPECT_TRUE(s.has("write_service_latency_p99"));
    EXPECT_GE(s.get("read_latency_p99"), s.get("read_latency_p50"));
    // Epoch-series-derived stats only appear when sampling ran.
    EXPECT_TRUE(s.has("epoch.samples"));
    EXPECT_TRUE(s.has("epoch.peakWriteQueued"));
    EXPECT_GT(s.get("epoch.samples"), 0.0);

    RunnerConfig off;
    off.refsPerCore = 500;
    off.cores = 2;
    const auto m2 = runOne(SchemeConfig::baselineVnc(),
                           workloadFromProfile("lbm"), off);
    EXPECT_FALSE(m2.toSnapshot().has("epoch.samples"));
}

/** FNV-1a over the bytes of `text`. */
std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Pins the epoch outputs byte for byte: the CSV and JSON dumps and the
 * trace's queues/throughput counter events of one fixed cell. The cell's
 * write cancellations refund busy cycles, so some epoch deltas wrap and
 * must print unsigned. The digests were recorded with the stand-alone
 * epoch sampler that preceded the telemetry projection.
 */
TEST(EpochSampler, OutputBytesMatchRecordedDigests)
{
    const std::string path =
        ::testing::TempDir() + "sdpcm_epoch_pin.trace.json";
    RunnerConfig cfg;
    cfg.refsPerCore = 800;
    cfg.cores = 2;
    cfg.seed = 5;
    cfg.epochTicks = 1009;
    cfg.tracePath = path;
    SchemeConfig scheme = SchemeConfig::sdpcm();
    scheme.writeCancellation = true;
    const RunMetrics m = runOne(scheme, workloadFromProfile("mcf"), cfg);

    std::size_t wrapped = 0;
    for (const EpochSample& s : m.epochs.samples)
        wrapped += s.cyclesWrite >= (std::uint64_t(1) << 63) ? 1 : 0;
    EXPECT_GT(wrapped, 0u) << "the cell no longer exercises wrapped deltas";

    std::ostringstream csv;
    std::ostringstream json;
    m.epochs.dumpCsv(csv);
    m.epochs.dumpJson(json);
    std::ifstream is(path);
    std::string line;
    std::string counters;
    while (std::getline(is, line)) {
        if (line.find("\"name\":\"queues\"") != std::string::npos ||
            line.find("\"name\":\"throughput\"") != std::string::npos)
            counters += line + "\n";
    }
    std::remove(path.c_str());
    EXPECT_EQ(m.epochs.samples.size(), 579u);
    EXPECT_EQ(fnv1a(csv.str()), 0x018c448ff5c2eb05ULL);
    EXPECT_EQ(fnv1a(json.str()), 0x63ea7417afcbcb7aULL);
    EXPECT_EQ(fnv1a(counters), 0x57b105c7b94d1d96ULL);
}

/** The tick hook must observe, not keep a drained queue alive. */
TEST(EventQueue, TickHookFiresOnBoundariesAndStopsWithQueue)
{
    EventQueue q;
    CallbackTarget idle;
    std::vector<Tick> hook_ticks;
    q.addTickHook(10, [&](Tick t) { hook_ticks.push_back(t); });
    for (Tick t : {3u, 9u, 12u, 25u, 26u, 40u})
        q.schedule(t, idle);
    q.run();
    // Fires at the first event at-or-after each boundary it crosses.
    EXPECT_EQ(hook_ticks, (std::vector<Tick>{12, 25, 40}));
    EXPECT_EQ(q.now(), 40u);
}

/** Hooks with independent intervals coexist; removal leaves the rest. */
TEST(EventQueue, MultipleTickHooksFireIndependently)
{
    EventQueue q;
    CallbackTarget idle;
    std::vector<Tick> tens, sevens;
    const std::size_t ten_id =
        q.addTickHook(10, [&](Tick t) { tens.push_back(t); });
    q.addTickHook(7, [&](Tick t) { sevens.push_back(t); });
    for (Tick t : {5u, 8u, 14u, 21u, 30u})
        q.schedule(t, idle);
    q.run();
    // 10-hook boundaries 10,20,30 -> first events at 14, 21, 30;
    // 7-hook boundaries 7,14,21,28 -> first events at 8, 14, 21, 30.
    EXPECT_EQ(tens, (std::vector<Tick>{14, 21, 30}));
    EXPECT_EQ(sevens, (std::vector<Tick>{8, 14, 21, 30}));

    q.removeTickHook(ten_id);
    tens.clear();
    sevens.clear();
    for (Tick t : {36u, 50u})
        q.schedule(t, idle);
    q.run();
    EXPECT_TRUE(tens.empty());
    EXPECT_EQ(sevens, (std::vector<Tick>{36, 50}));
}

// ---------------------------------------------------------------------
// Quantile estimators
// ---------------------------------------------------------------------

double
exactPercentile(std::vector<std::uint64_t> v, double q)
{
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return static_cast<double>(v[std::min(idx ? idx - 1 : 0,
                                          v.size() - 1)]);
}

TEST(QuantileSketch, SmallValuesAreExact)
{
    QuantileSketch s;
    for (std::uint64_t v = 0; v < 16; ++v)
        s.record(v);
    EXPECT_EQ(s.count(), 16u);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 15.0);
    // 8 of 16 values are <= 7.
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 7.0);
}

TEST(QuantileSketch, TracksSortOracleAcrossDistributions)
{
    std::mt19937_64 rng(1234);
    struct Case
    {
        const char* name;
        std::function<std::uint64_t()> draw;
    };
    std::uniform_int_distribution<std::uint64_t> uni(1, 100000);
    std::exponential_distribution<double> exp_dist(1.0 / 3000.0);
    std::lognormal_distribution<double> logn(6.0, 1.2);
    const std::vector<Case> cases = {
        {"uniform", [&] { return uni(rng); }},
        {"exponential",
         [&] { return static_cast<std::uint64_t>(exp_dist(rng)) + 1; }},
        {"lognormal",
         [&] { return static_cast<std::uint64_t>(logn(rng)) + 1; }},
    };
    for (const auto& c : cases) {
        QuantileSketch sketch;
        std::vector<std::uint64_t> oracle;
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t v = c.draw();
            sketch.record(v);
            oracle.push_back(v);
        }
        for (const double q : {0.5, 0.9, 0.95, 0.99}) {
            const double exact = exactPercentile(oracle, q);
            const double approx = sketch.percentile(q);
            // Log-linear buckets are 1/16 wide; midpoint reporting keeps
            // the error well under 8%.
            EXPECT_NEAR(approx, exact, exact * 0.08 + 1.0)
                << c.name << " p" << q * 100;
        }
    }
}

TEST(QuantileSketch, MergeMatchesCombinedStream)
{
    std::mt19937_64 rng(99);
    std::uniform_int_distribution<std::uint64_t> uni(1, 50000);
    QuantileSketch a, b, all;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = uni(rng);
        (i % 2 ? a : b).record(v);
        all.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    for (const double q : {0.5, 0.95, 0.99})
        EXPECT_DOUBLE_EQ(a.percentile(q), all.percentile(q));
}

TEST(Histogram, PercentileCountsOverflowAtMax)
{
    Histogram h(4);
    for (int i = 0; i < 6; ++i)
        h.record(0);
    h.record(1);
    h.record(2);
    h.record(1000); // overflow -> counted at the max value (4)
    h.record(2000);
    EXPECT_EQ(h.total(), 10u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.7), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
}

TEST(Histogram, BucketAccessorNeverThrows)
{
    Histogram h(4);
    h.record(2);
    h.record(99);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(4), 0u);   // overflow is tracked separately
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bucket(100), 0u); // out of range reads as empty
}

TEST(Histogram, EmptyPercentileIsZero)
{
    Histogram h(8);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    QuantileSketch s;
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 0.0);
}

// ---------------------------------------------------------------------
// Shared JSON/CSV helpers (obs/json.hh, obs/csv.hh)
// ---------------------------------------------------------------------

std::string
jsonString(std::string_view s)
{
    std::ostringstream os;
    json::writeString(os, s);
    return os.str();
}

TEST(JsonHelpers, EscapesQuotesBackslashesAndControlChars)
{
    EXPECT_EQ(jsonString("plain"), "\"plain\"");
    EXPECT_EQ(jsonString("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(jsonString("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(jsonString("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
    EXPECT_EQ(jsonString(std::string_view("\b\f", 2)), "\"\\b\\f\"");
    // Control characters without a named escape use \u00XX.
    EXPECT_EQ(jsonString(std::string_view("\x01\x1f", 2)),
              "\"\\u0001\\u001f\"");
    // NUL embedded mid-string must survive, not truncate.
    EXPECT_EQ(jsonString(std::string_view("a\0b", 3)), "\"a\\u0000b\"");
}

TEST(JsonHelpers, EscapedStringsRoundTripThroughSharedParser)
{
    for (const std::string& s :
         {std::string("a\"b\\c\nd\te\rf"), std::string("\x01\x02\x1f"),
          std::string("a\0b", 3), std::string("plain ascii")}) {
        std::ostringstream os;
        json::writeString(os, s);
        const JsonValue v = parseJson(os.str());
        ASSERT_EQ(v.type, JsonValue::Type::String);
        EXPECT_EQ(v.str, s);
    }
}

TEST(JsonHelpers, NumbersRoundTripExactly)
{
    // The regression gate's self-diff-is-empty property needs write ->
    // parse to reproduce the double bit-for-bit.
    const double cases[] = {0.0,   -0.0,        1.0,          1.5,
                            0.1,   1.0 / 3.0,   1e-9,         123456789.0,
                            -42.0, 9007199254740992.0, 3.0e300, 1.37};
    for (const double v : cases) {
        std::ostringstream os;
        json::writeNumber(os, v);
        const JsonValue parsed = parseJson(os.str());
        ASSERT_EQ(parsed.type, JsonValue::Type::Number) << os.str();
        EXPECT_EQ(parsed.number, v) << os.str();
    }
    // NaN/Inf cannot be represented in JSON and clamp to 0.
    std::ostringstream os;
    json::writeNumber(os, std::nan(""));
    os << ' ';
    json::writeNumber(os, std::numeric_limits<double>::infinity());
    EXPECT_EQ(os.str(), "0 0");
}

TEST(JsonHelpers, WriterProducesParsableNestedDocument)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("name", "run \"quoted\"");
    w.kv("count", std::uint64_t{42});
    w.key("nested").beginObject().kv("pi", 3.25).endObject();
    w.key("list").beginArray().value(1.0).value(2.0).endArray();
    w.endObject();
    const JsonValue v = parseJson(os.str());
    EXPECT_EQ(v.at("name").str, "run \"quoted\"");
    EXPECT_EQ(v.at("count").number, 42.0);
    EXPECT_EQ(v.at("nested").at("pi").number, 3.25);
    ASSERT_EQ(v.at("list").array.size(), 2u);
    EXPECT_EQ(v.at("list").array[1].number, 2.0);
}

TEST(CsvHelpers, QuotesOnlyWhenNeeded)
{
    const auto field = [](std::string_view s) {
        std::ostringstream os;
        csv::writeField(os, s);
        return os.str();
    };
    EXPECT_EQ(field("plain"), "plain");
    EXPECT_EQ(field("has,comma"), "\"has,comma\"");
    EXPECT_EQ(field("has\"quote"), "\"has\"\"quote\"");
    EXPECT_EQ(field("has\nnewline"), "\"has\nnewline\"");
}

TEST(StatSnapshot, ToJsonRoundTripsValues)
{
    StatSnapshot s;
    s.set("a.count", 12345.0);
    s.set("b.mean", 1.0 / 3.0);
    s.set("weird \"name\"", -0.5);
    std::ostringstream os;
    s.toJson(os);
    const JsonValue v = parseJson(os.str());
    EXPECT_EQ(v.at("a.count").number, 12345.0);
    EXPECT_EQ(v.at("b.mean").number, 1.0 / 3.0);
    EXPECT_EQ(v.at("weird \"name\"").number, -0.5);
}

// ---------------------------------------------------------------------
// QuantileSketch edge cases
// ---------------------------------------------------------------------

TEST(QuantileSketch, EmptySketchReportsZeroEverywhere)
{
    QuantileSketch s;
    EXPECT_EQ(s.count(), 0u);
    for (const double q : {0.0, 0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(s.percentile(q), 0.0);
}

TEST(QuantileSketch, SingleSampleIsEveryPercentile)
{
    QuantileSketch s;
    s.record(7);
    for (const double q : {0.0, 0.5, 1.0})
        EXPECT_DOUBLE_EQ(s.percentile(q), 7.0);
    // Out-of-range quantiles clamp rather than misbehave.
    EXPECT_DOUBLE_EQ(s.percentile(-1.0), 7.0);
    EXPECT_DOUBLE_EQ(s.percentile(2.0), 7.0);
}

TEST(QuantileSketch, ZeroValuesAreExact)
{
    QuantileSketch s;
    for (int i = 0; i < 10; ++i)
        s.record(0);
    EXPECT_EQ(s.count(), 10u);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 0.0);
}

TEST(LatencyStat, NegativeValuesClampToZeroInTheSketch)
{
    // The sketch only holds non-negative integers; LatencyStat records
    // negative latencies (which should not occur, but must not crash or
    // corrupt buckets) as 0 while the running moments keep the sign.
    LatencyStat s;
    s.record(-5.0);
    s.record(-1.0);
    s.record(3.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), -5.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 3.0);
}

TEST(QuantileSketch, RelativeErrorBoundHoldsOnAdversarialInput)
{
    // Adversarial for a log-linear sketch: values planted just past
    // sub-bucket boundaries across many octaves, where midpoint
    // reporting is at its worst. The bound is 1/16 = 6.25% relative
    // error per the sketch's documented contract.
    std::vector<std::uint64_t> values;
    for (unsigned octave = 4; octave < 40; ++octave) {
        const std::uint64_t base = 1ULL << octave;
        const std::uint64_t width =
            std::max<std::uint64_t>(1, base >> 4);
        for (unsigned sub = 0; sub < 16; ++sub) {
            values.push_back(base + sub * width);          // bucket floor
            values.push_back(base + sub * width + width - 1); // ceiling
        }
    }
    QuantileSketch s;
    for (const std::uint64_t v : values)
        s.record(v);
    std::sort(values.begin(), values.end());
    for (const double q :
         {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
        const double exact = exactPercentile(values, q);
        const double approx = s.percentile(q);
        EXPECT_LE(std::abs(approx - exact), exact * 0.0625)
            << "p" << q * 100 << ": " << approx << " vs " << exact;
    }
}

TEST(LatencyStat, CombinesMomentsAndQuantiles)
{
    LatencyStat s;
    for (int v = 1; v <= 100; ++v)
        s.record(static_cast<double>(v));
    EXPECT_EQ(s.count(), 100u);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_NEAR(s.percentile(0.5), 50.0, 5.0);
    EXPECT_NEAR(s.percentile(0.99), 99.0, 8.0);

    LatencyStat other;
    other.record(1000.0);
    s.merge(other);
    EXPECT_EQ(s.count(), 101u);
    EXPECT_DOUBLE_EQ(s.max(), 1000.0);

    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 0.0);
}

} // namespace
} // namespace sdpcm
