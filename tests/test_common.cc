/**
 * @file
 * Unit tests for the common utilities: RNG, bit operations, statistics
 * accumulators and the table formatter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/args.hh"
#include "common/bitops.hh"
#include "common/flat_map.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace sdpcm {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next64() == b.next64() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.below(13);
        ASSERT_LT(v, 13u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 13u);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(11);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.115) ? 1 : 0;
    EXPECT_NEAR(hits / static_cast<double>(trials), 0.115, 0.005);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(1);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_TRUE(rng.chance(2.0));
}

TEST(Rng, FixedChanceMatchesChanceDrawForDraw)
{
    // Same result and same number of draws as chance(p), at the edges
    // (no draw at p <= 0 or p >= 1; NaN draws and never hits) and at
    // the simulator's rates.
    for (const double p :
         {0.0, -1.0, 1.0, 2.0, std::nan(""), 1e-300, 0x1.0p-53, 0.0149,
          0.099, 0.115, 0.5, std::nextafter(1.0, 0.0)}) {
        const Rng::Chance chance(p);
        Rng a(17);
        Rng b(17);
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(chance(a), b.chance(p)) << "p=" << p << " draw " << i;
        EXPECT_EQ(a.next64(), b.next64()) << "p=" << p;
    }

    // Around the exact boundary of the next draw k: uniform() < p iff
    // k < p * 2^53.
    Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
        Rng peek = rng;
        const double at = static_cast<double>(peek.next64() >> 11) *
            0x1.0p-53;
        for (const double p : {at, std::nextafter(at, 0.0),
                               std::nextafter(at, 1.0), at + 0x1.0p-53}) {
            Rng a = rng;
            Rng b = rng;
            EXPECT_EQ(Rng::Chance(p)(a), b.chance(p)) << "p=" << p;
        }
        rng.next64();
    }
}

TEST(Rng, FixedGeometricMatchesGeometricDrawForDraw)
{
    // Same value and same number of draws as geometric(p): no draw at
    // p <= 0 or p >= 1, tiny p, the generators' run-length rates (one
    // over a mean run of 2 to 64 lines) and their gap rates (one over
    // 1000 / apki + 1, apki from Table 3: wrf's 0.16 to mcf's 42.85).
    std::vector<double> rates = {0.0, -1.0, 1.0, 2.0, 0x1.0p-53, 1e-12,
                                 0.5, 0.25, 0.125, 0.0625, 1.0 / 64,
                                 std::nextafter(1.0, 0.0)};
    for (const double apki : {0.16, 0.26, 2.43, 4.64, 7.47, 16.29, 17.92,
                              21.88, 42.85})
        rates.push_back(1.0 / (1000.0 / apki + 1.0));
    for (const double p : rates) {
        const Rng::Geometric geometric(p);
        Rng a(19);
        Rng b(19);
        for (int i = 0; i < 20000; ++i) {
            ASSERT_EQ(geometric(a), b.geometric(p))
                << "p=" << p << " draw " << i;
        }
        EXPECT_EQ(a.next64(), b.next64()) << "p=" << p;
    }
    Rng rng(1);
    EXPECT_EQ(Rng::Geometric(0.0)(rng), ~0ULL);
    EXPECT_EQ(Rng::Geometric(1.0)(rng), 0u);
}

TEST(Rng, GeometricMean)
{
    Rng rng(5);
    const double p = 0.1;
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean of failures-before-success is (1-p)/p = 9.
    EXPECT_NEAR(sum / trials, 9.0, 0.5);
}

TEST(Rng, PoissonMatchesKnuthLoopDrawForDraw)
{
    // The aging model and the fault injector both draw stuck-cell
    // counts through poisson(); it must keep the product-of-uniforms
    // loop they each carried, draw for draw, and its mean.
    for (const double mean : {0.0, 1e-3, 0.1, 0.5, 1.5, 4.0}) {
        Rng a(23);
        Rng b(23);
        double sum = 0.0;
        const int trials = 20000;
        for (int i = 0; i < trials; ++i) {
            const double limit = std::exp(-mean);
            unsigned count = 0;
            double product = b.uniform();
            while (product > limit) {
                ++count;
                product *= b.uniform();
            }
            const unsigned drawn = a.poisson(mean);
            ASSERT_EQ(drawn, count) << "mean=" << mean << " draw " << i;
            sum += drawn;
        }
        EXPECT_EQ(a.next64(), b.next64()) << "mean=" << mean;
        EXPECT_NEAR(sum / trials, mean, 0.05 + 0.03 * mean)
            << "mean=" << mean;
    }
}

TEST(Bitops, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
    EXPECT_EQ(log2Exact(4096), 12u);
    EXPECT_EQ(ceilPowerOfTwo(17), 32u);
    EXPECT_EQ(ceilPowerOfTwo(32), 32u);
}

TEST(Bitops, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 128), 0u);
    EXPECT_EQ(ceilDiv(1, 128), 1u);
    EXPECT_EQ(ceilDiv(128, 128), 1u);
    EXPECT_EQ(ceilDiv(129, 128), 2u);
}

TEST(Bitops, GetSetBit)
{
    std::uint64_t x = 0;
    x = setBit(x, 5, true);
    EXPECT_TRUE(getBit(x, 5));
    x = setBit(x, 5, false);
    EXPECT_FALSE(getBit(x, 5));
    EXPECT_EQ(x, 0u);
}

/** FlatMap tests run on the 64-bit table (page tables, live blocks)
 *  and the 32-bit one (every LineTable's index). */
using FlatMapTypes =
    ::testing::Types<FlatMap<std::uint64_t>, FlatMap<std::uint32_t>>;

template <typename Map>
class FlatMapOf : public ::testing::Test
{};
TYPED_TEST_SUITE(FlatMapOf, FlatMapTypes);

template <typename Map>
class FlatMapOfDeath : public ::testing::Test
{};
TYPED_TEST_SUITE(FlatMapOfDeath, FlatMapTypes);

/** Every entry of `map` and of `ref`, and their sizes, agree. */
template <typename Map, typename Key>
void
expectSameEntries(const Map& map, const std::unordered_map<Key, Key>& ref)
{
    ASSERT_EQ(map.size(), ref.size());
    std::size_t seen = 0;
    map.forEach([&](Key key, Key value) {
        const auto it = ref.find(key);
        ASSERT_NE(it, ref.end()) << "stray key " << key;
        EXPECT_EQ(value, it->second) << "key " << key;
        seen += 1;
    });
    EXPECT_EQ(seen, ref.size());
}

TYPED_TEST(FlatMapOf, MatchesUnorderedMap)
{
    using Key = std::remove_const_t<decltype(TypeParam::kNoKey)>;
    // Three key shapes: consecutive keys (long probe runs), sparse keys
    // just below the reserved one, and keys that differ only in their
    // upper half (beyond 32 bits in the 64-bit table). Each runs an
    // insert-heavy mix through many doublings, then an erase-heavy mix.
    Rng rng(29);
    for (int shape = 0; shape < 3; ++shape) {
        const auto keyOf = [shape](std::uint64_t i) -> Key {
            switch (shape) {
              case 0:
                return static_cast<Key>(4096 + i);
              case 1:
                return static_cast<Key>(TypeParam::kNoKey - 1 -
                                        i * 0x10001ULL);
              default:
                return static_cast<Key>(i << (4 * sizeof(Key)));
            }
        };
        TypeParam map;
        std::unordered_map<Key, Key> ref;
        EXPECT_EQ(map.find(keyOf(0)), nullptr);
        EXPECT_FALSE(map.erase(keyOf(0)));
        for (const double erase_share : {0.2, 0.7}) {
            for (int i = 0; i < 40000; ++i) {
                const Key key = keyOf(rng.below(20000));
                if (rng.chance(erase_share)) {
                    ASSERT_EQ(map.erase(key), ref.erase(key) == 1)
                        << "erase " << key;
                    continue;
                }
                const auto value = static_cast<Key>(rng.next64());
                const auto [slot, inserted] = map.findOrInsert(key);
                ASSERT_EQ(inserted, ref.count(key) == 0) << "key " << key;
                if (inserted) {
                    EXPECT_EQ(slot, 0u);
                }
                slot = value;
                ref[key] = value;
                const Key probe = keyOf(rng.below(20000));
                const Key* found = map.find(probe);
                const auto it = ref.find(probe);
                ASSERT_EQ(found != nullptr, it != ref.end()) << probe;
                if (found) {
                    EXPECT_EQ(*found, it->second);
                }
            }
            expectSameEntries(map, ref);
        }
        map.clear();
        EXPECT_EQ(map.size(), 0u);
        EXPECT_EQ(map.find(keyOf(1)), nullptr);
    }
}

TYPED_TEST(FlatMapOfDeath, ReservedKeyNamesNoEntry)
{
    TypeParam map;
    EXPECT_DEATH(map.findOrInsert(TypeParam::kNoKey), "kNoKey");
}

TEST(RunningStat, Accumulates)
{
    RunningStat s;
    s.record(1.0);
    s.record(3.0);
    s.record(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStat, Merge)
{
    RunningStat a, b;
    a.record(1.0);
    b.record(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(Histogram, RecordsAndOverflows)
{
    Histogram h(4);
    h.record(0);
    h.record(2);
    h.record(2);
    h.record(9);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.tailFraction(2), 0.75);
}

TEST(StatSnapshot, RoundTrips)
{
    StatSnapshot s;
    s.set("a.b", 1.5);
    EXPECT_TRUE(s.has("a.b"));
    EXPECT_FALSE(s.has("a.c"));
    EXPECT_DOUBLE_EQ(s.get("a.b"), 1.5);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"x", TablePrinter::fmt(1.2345, 2)});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("1.23"), std::string::npos);
}

TEST(TablePrinter, PctFormat)
{
    EXPECT_EQ(TablePrinter::pct(0.115), "11.5%");
    EXPECT_EQ(TablePrinter::pct(0.099), "9.9%");
}

TEST(ArgParser, ParsesKeyValueAndFlags)
{
    const char* argv[] = {"prog", "--refs=1000", "--verbose",
                          "--ratio=0.5", "--name=mcf"};
    ArgParser args(5, const_cast<char**>(argv));
    EXPECT_EQ(args.getInt("refs", 0), 1000);
    EXPECT_TRUE(args.getBool("verbose", false));
    EXPECT_DOUBLE_EQ(args.getDouble("ratio", 0.0), 0.5);
    EXPECT_EQ(args.getString("name", ""), "mcf");
    EXPECT_EQ(args.getInt("missing", 7), 7);
    args.finishParsing(); // every key consumed: no fatal
}

TEST(ArgParser, ParseIntStrict)
{
    EXPECT_EQ(ArgParser::parseInt("42"), 42);
    EXPECT_EQ(ArgParser::parseInt("-7"), -7);
    EXPECT_EQ(ArgParser::parseInt("0x10"), 16);
    // "10k" used to silently truncate to 10; "banana" to 0.
    EXPECT_THROW(ArgParser::parseInt("10k"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseInt("banana"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseInt(""), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseInt("1.5"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseInt("99999999999999999999999999"),
                 std::invalid_argument);
}

TEST(ArgParser, ParseDoubleStrict)
{
    EXPECT_DOUBLE_EQ(ArgParser::parseDouble("0.25"), 0.25);
    EXPECT_DOUBLE_EQ(ArgParser::parseDouble("1e8"), 1e8);
    EXPECT_DOUBLE_EQ(ArgParser::parseDouble("-3"), -3.0);
    EXPECT_THROW(ArgParser::parseDouble("0.5x"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseDouble("banana"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseDouble(""), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseDouble("nan"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseDouble("inf"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseDouble("1e999"), std::invalid_argument);
}

TEST(ArgParser, ParseBoolStrict)
{
    EXPECT_TRUE(ArgParser::parseBool("1"));
    EXPECT_TRUE(ArgParser::parseBool("true"));
    EXPECT_TRUE(ArgParser::parseBool("on"));
    EXPECT_FALSE(ArgParser::parseBool("0"));
    EXPECT_FALSE(ArgParser::parseBool("false"));
    EXPECT_FALSE(ArgParser::parseBool("off"));
    EXPECT_THROW(ArgParser::parseBool("maybe"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseBool(""), std::invalid_argument);
}

TEST(ArgParserDeath, GetIntFatalsOnGarbage)
{
    const char* argv[] = {"prog", "--refs=10k"};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(args.getInt("refs", 0),
                ::testing::ExitedWithCode(1), "bad value for --refs=10k");
}

TEST(ArgParserDeath, GetDoubleFatalsOnGarbage)
{
    const char* argv[] = {"prog", "--age=old"};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(args.getDouble("age", 0.0),
                ::testing::ExitedWithCode(1), "bad value for --age=old");
}

TEST(ArgParserDeath, FinishParsingFatalsOnUnknownFlag)
{
    const char* argv[] = {"prog", "--telemetery=f.jsonl"};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(args.finishParsing(), ::testing::ExitedWithCode(1),
                "unknown option\\(s\\): --telemetery");
}

TEST(ArgParserDeath, RepeatedFlagIsFatal)
{
    // Neither value wins: the parser stops before any flag is read,
    // bare or with a value.
    EXPECT_EXIT((void)ArgParser({"--refs=10", "--refs=20", "--cores=1"}),
                ::testing::ExitedWithCode(1), "fatal: --refs given twice");
    EXPECT_EXIT((void)ArgParser({"--spans", "--spans=s.json"}),
                ::testing::ExitedWithCode(1), "fatal: --spans given twice");
    const char* argv[] = {"prog", "--quiet", "--quiet"};
    EXPECT_EXIT((void)ArgParser(3, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(1), "fatal: --quiet given twice");
}

TEST(ArgParser, TypedGetterReadsInRangeValues)
{
    const ArgParser args(
        {"--cores=4", "--seed=0x10", "--age=0.25", "--top=0"});
    EXPECT_EQ(args.get<unsigned>("cores", 8, 1), 4u);
    EXPECT_EQ(args.get<std::uint64_t>("seed", 1), 16u);
    EXPECT_EQ(args.get<double>("age", 0.0, 0.0, 1.0), 0.25);
    EXPECT_EQ(args.get<std::size_t>("top", 10), 0u);
    EXPECT_EQ(args.get<unsigned>("missing", 7, 1, 5), 7u); // default kept
    args.finishParsing();
}

TEST(ArgParserDeath, TypedGetterRejectsNegativeUnsigned)
{
    const ArgParser args({"--cores=-1"});
    EXPECT_EXIT(args.get<unsigned>("cores", 8),
                ::testing::ExitedWithCode(1),
                "bad value for --cores=-1: must be in \\[0, 4294967295\\]");
}

TEST(ArgParserDeath, TypedGetterRejectsOutOfRange)
{
    const ArgParser args({"--cores=0", "--wq=4294967296", "--age=2"});
    EXPECT_EXIT(args.get<unsigned>("cores", 8, 1),
                ::testing::ExitedWithCode(1),
                "bad value for --cores=0: must be in \\[1, 4294967295\\]");
    EXPECT_EXIT(args.get<unsigned>("wq", 32),
                ::testing::ExitedWithCode(1),
                "bad value for --wq=4294967296");
    EXPECT_EXIT(args.get<double>("age", 0.0, 0.0, 1.0),
                ::testing::ExitedWithCode(1),
                "bad value for --age=2: must be in \\[0, 1\\]");
}

TEST(ArgParser, BareFlagIsNotOne)
{
    const ArgParser args({"--quiet", "--spans", "--report="});
    EXPECT_TRUE(args.getBool("quiet", false)); // bare = true
    EXPECT_TRUE(args.has("spans"));
    EXPECT_EQ(args.getPath("spans"), "");      // on, no file
    EXPECT_EQ(args.getString("report", "R.json"), ""); // empty, not bare
    EXPECT_EQ(args.getPath("missing"), "");
}

TEST(ArgParserDeath, ValueGetterFatalsOnBareFlag)
{
    const ArgParser args({"--trace", "--refs", "--age"});
    EXPECT_EXIT(args.getString("trace", ""), ::testing::ExitedWithCode(1),
                "fatal: --trace needs a value");
    EXPECT_EXIT(args.get<unsigned>("refs", 10),
                ::testing::ExitedWithCode(1), "--refs needs a value");
    EXPECT_EXIT(args.getDouble("age", 0.0), ::testing::ExitedWithCode(1),
                "--age needs a value");
}

TEST(ArgParser, GetPathKeepsFileNames)
{
    const ArgParser args({"--spans=S.json", "--profile=1.json"});
    EXPECT_EQ(args.getPath("spans"), "S.json");
    EXPECT_EQ(args.getPath("profile"), "1.json");
}

TEST(ArgParserDeath, GetPathRejectsBooleanWord)
{
    const ArgParser args({"--profile=0", "--wd-ledger=1", "--spans=off"});
    for (const char* key : {"profile", "wd-ledger", "spans"}) {
        EXPECT_EXIT(args.getPath(key), ::testing::ExitedWithCode(1),
                    std::string("bad value for --") + key +
                        "=.*: expected a file name, not a boolean");
    }
}

TEST(ArgParser, LaxFlagsDowngradesUnknownToWarning)
{
    const char* argv[] = {"prog", "--telemetery=f.jsonl", "--lax-flags"};
    ArgParser args(3, const_cast<char**>(argv));
    args.finishParsing(); // warns instead of exiting
}

} // namespace
} // namespace sdpcm
