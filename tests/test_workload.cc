/**
 * @file
 * Tests for the synthetic workload generators: Table 3 rate calibration,
 * locality structure and the STREAM kernel pattern.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "workload/generators.hh"

namespace sdpcm {
namespace {

TEST(Profiles, Table3RatesVerbatim)
{
    EXPECT_DOUBLE_EQ(profileByName("bwaves").rpki, 17.45);
    EXPECT_DOUBLE_EQ(profileByName("bwaves").wpki, 0.47);
    EXPECT_DOUBLE_EQ(profileByName("mcf").rpki, 22.38);
    EXPECT_DOUBLE_EQ(profileByName("mcf").wpki, 20.47);
    EXPECT_DOUBLE_EQ(profileByName("stream").rpki, 2.32);
    EXPECT_DOUBLE_EQ(profileByName("stream").wpki, 2.32);
    EXPECT_EQ(table3Profiles().size(), 9u);
}

TEST(Profiles, UnknownNameIsFatal)
{
    EXPECT_DEATH(profileByName("doom"), "unknown workload profile");
}

TEST(Profiles, GemsFdtdFlipsFewerBits)
{
    // Section 6.4 calls out gemsFDTD as changing fewer bits per write.
    for (const auto& p : table3Profiles()) {
        if (p.name != "gemsFDTD") {
            EXPECT_LT(profileByName("gemsFDTD").flipDensity,
                      p.flipDensity);
        }
    }
}

class GeneratorRates : public ::testing::TestWithParam<const char*>
{};

TEST_P(GeneratorRates, MatchesTable3)
{
    const WorkloadProfile& p = profileByName(GetParam());
    SyntheticTraceGenerator gen(p, 42);
    std::uint64_t instructions = 0, reads = 0, writes = 0;
    TraceRecord rec;
    for (int i = 0; i < 200000; ++i) {
        ASSERT_TRUE(gen.next(rec));
        instructions += rec.gap + 1;
        (rec.isWrite ? writes : reads) += 1;
    }
    const double rpki = reads * 1000.0 / instructions;
    const double wpki = writes * 1000.0 / instructions;
    EXPECT_NEAR(rpki, p.rpki, p.rpki * 0.05 + 0.02);
    EXPECT_NEAR(wpki, p.wpki, p.wpki * 0.05 + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Table3, GeneratorRates,
                         ::testing::Values("bwaves", "gemsFDTD", "lbm",
                                           "leslie3d", "mcf", "wrf",
                                           "xalan", "zeusmp"));

TEST(Generator, AddressesWithinFootprint)
{
    const WorkloadProfile& p = profileByName("mcf");
    SyntheticTraceGenerator gen(p, 1);
    TraceRecord rec;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(gen.next(rec));
        EXPECT_LT(rec.vaddr, p.footprintBytes);
        EXPECT_EQ(rec.vaddr % 64, 0u);
    }
}

TEST(Generator, FlipDensityOnlyOnWrites)
{
    SyntheticTraceGenerator gen(profileByName("lbm"), 3);
    TraceRecord rec;
    for (int i = 0; i < 5000; ++i) {
        gen.next(rec);
        if (rec.isWrite)
            EXPECT_GT(rec.flipDensity, 0.0);
        else
            EXPECT_DOUBLE_EQ(rec.flipDensity, 0.0);
    }
}

TEST(Generator, DeterministicPerSeed)
{
    SyntheticTraceGenerator a(profileByName("zeusmp"), 5);
    SyntheticTraceGenerator b(profileByName("zeusmp"), 5);
    TraceRecord ra, rb;
    for (int i = 0; i < 1000; ++i) {
        a.next(ra);
        b.next(rb);
        EXPECT_EQ(ra.vaddr, rb.vaddr);
        EXPECT_EQ(ra.isWrite, rb.isWrite);
        EXPECT_EQ(ra.gap, rb.gap);
    }
}

TEST(Generator, SequentialRunsExist)
{
    SyntheticTraceGenerator gen(profileByName("lbm"), 9);
    TraceRecord prev, cur;
    gen.next(prev);
    unsigned sequential = 0, total = 0;
    for (int i = 0; i < 10000; ++i) {
        gen.next(cur);
        sequential += (cur.vaddr == prev.vaddr + 64) ? 1 : 0;
        total += 1;
        prev = cur;
    }
    // lbm has a mean run of 16 lines: most steps are sequential.
    EXPECT_GT(sequential, total / 2);
}

TEST(Stream, KernelPatternIsSequentialAndBalanced)
{
    // Small arrays so the sample spans many whole kernel cycles.
    StreamTraceGenerator gen(1 << 16, 4.64, 7);
    TraceRecord rec;
    std::uint64_t reads = 0, writes = 0;
    for (int i = 0; i < 50000; ++i) {
        ASSERT_TRUE(gen.next(rec));
        (rec.isWrite ? writes : reads) += 1;
    }
    // copy/scale are 1R1W, add/triad are 2R1W -> reads/writes = 1.5.
    EXPECT_NEAR(static_cast<double>(reads) / writes, 1.5, 0.05);
}

TEST(Stream, TouchesAllThreeArrays)
{
    const std::uint64_t array_bytes = 1 << 16; // 1024 lines
    StreamTraceGenerator gen(array_bytes, 4.64, 7);
    TraceRecord rec;
    std::set<std::uint64_t> arrays_touched;
    for (int i = 0; i < 30000; ++i) {
        gen.next(rec);
        arrays_touched.insert(rec.vaddr / array_bytes);
    }
    EXPECT_EQ(arrays_touched.size(), 3u);
}

/** FNV-1a over every field of a generator's first `n` records. */
std::uint64_t
streamDigest(TraceStream& gen, int n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    TraceRecord rec;
    for (int i = 0; i < n; ++i) {
        gen.next(rec);
        std::uint64_t density = 0;
        std::memcpy(&density, &rec.flipDensity, sizeof density);
        for (std::uint64_t v : {rec.vaddr, std::uint64_t{rec.isWrite},
                                std::uint64_t{rec.gap}, density}) {
            for (int b = 0; b < 8; ++b, v >>= 8) {
                h ^= v & 0xff;
                h *= 0x100000001b3ULL;
            }
        }
    }
    return h;
}

TEST(Generator, StreamsMatchRecordedDigests)
{
    // Recorded with every draw's probability and logarithm recomputed
    // per record: holding them fixed must not move one record.
    const struct
    {
        const char* profile;
        std::uint64_t digest;
    } cases[] = {
        {"bwaves", 0x5b448ef917984ca9ULL},
        {"gemsFDTD", 0xbed19afd8954b7f2ULL},
        {"lbm", 0xeed6952ad86d004fULL},
        {"leslie3d", 0x550fa7563bb60147ULL},
        {"mcf", 0xfdc0b34dea75706aULL},
        {"wrf", 0xdd9e6817cf2ecc71ULL},
        {"xalan", 0x8280f7aa3cbba088ULL},
        {"zeusmp", 0x0ce8f2d5afd57e11ULL},
        {"stream", 0x2f10b3371dd97d9bULL},
    };
    ASSERT_EQ(std::size(cases), table3Profiles().size());
    for (const auto& c : cases) {
        SyntheticTraceGenerator gen(profileByName(c.profile), 7);
        const std::uint64_t h = streamDigest(gen, 20000);
        EXPECT_EQ(h, c.digest) << c.profile << std::hex << " 0x" << h;
    }
    // The structural STREAM generator, as workloadFromProfile builds it.
    const WorkloadProfile& p = profileByName("stream");
    StreamTraceGenerator stream(p.footprintBytes / 3, p.apki(), 7);
    const std::uint64_t h = streamDigest(stream, 20000);
    EXPECT_EQ(h, 0x3cfb021efbefda76ULL) << std::hex << "stream 0x" << h;
}

} // namespace
} // namespace sdpcm
