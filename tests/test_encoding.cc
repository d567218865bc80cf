/**
 * @file
 * Tests for differential write and the DIN encoder, Flip-N-Write
 * included as its weight-0 constant.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "encoding/diffwrite.hh"
#include "encoding/din.hh"

namespace sdpcm {
namespace {

TEST(DiffWrite, SplitsResetAndSet)
{
    LineData from, to;
    from.setBit(1, true);  // 1 -> 0 : RESET
    to.setBit(2, true);    // 0 -> 1 : SET
    from.setBit(3, true);  // unchanged 1
    to.setBit(3, true);
    const WriteMasks m = diffWrite(from, to);
    EXPECT_EQ(m.resetCount(), 1u);
    EXPECT_EQ(m.setCount(), 1u);
    EXPECT_TRUE(m.resetMask.getBit(1));
    EXPECT_TRUE(m.setMask.getBit(2));
    EXPECT_FALSE(m.resetMask.getBit(3));
}

TEST(DiffWrite, IdenticalLinesNeedNothing)
{
    const LineData a = LineData::randomFromKey(9);
    const WriteMasks m = diffWrite(a, a);
    EXPECT_EQ(m.changedCount(), 0u);
}

TEST(Fnw, DecodeInvertsEncode)
{
    Rng rng(5);
    const DinEncoder fnw(DinConfig::flipNWrite());
    for (int i = 0; i < 50; ++i) {
        const LineData logical = LineData::randomFromKey(rng.next64());
        const LineData old = LineData::randomFromKey(rng.next64());
        const auto enc = fnw.encode(logical, old);
        EXPECT_EQ(fnw.decode(enc.physical, enc.flags), logical);
    }
}

TEST(Fnw, NeverWorseThanPlainWrite)
{
    Rng rng(6);
    const DinEncoder fnw(DinConfig::flipNWrite());
    for (int i = 0; i < 50; ++i) {
        const LineData logical = LineData::randomFromKey(rng.next64());
        const LineData old = LineData::randomFromKey(rng.next64());
        const auto enc = fnw.encode(logical, old);
        const unsigned with_fnw =
            diffWrite(old, enc.physical).changedCount();
        const unsigned plain = diffWrite(old, logical).changedCount();
        EXPECT_LE(with_fnw, plain);
    }
}

TEST(Fnw, HalvesCostOfInvertedData)
{
    // Writing the bitwise complement should cost ~nothing under FNW.
    const DinEncoder fnw(DinConfig::flipNWrite());
    const LineData old = LineData::randomFromKey(3);
    LineData inverted;
    for (unsigned w = 0; w < kLineWords; ++w)
        inverted.words[w] = ~old.words[w];
    const auto enc = fnw.encode(inverted, old);
    EXPECT_EQ(diffWrite(old, enc.physical).changedCount(), 0u);
    EXPECT_EQ(enc.flags, ~0ULL >> (64 - fnw.numGroups()));
}

TEST(Din, DecodeInvertsEncode)
{
    Rng rng(7);
    DinEncoder din;
    for (int i = 0; i < 50; ++i) {
        const LineData logical = LineData::randomFromKey(rng.next64());
        const LineData old = LineData::randomFromKey(rng.next64());
        const auto enc = din.encode(logical, old);
        EXPECT_EQ(din.decode(enc.physical, enc.flags), logical);
    }
}

TEST(Din, VulnerablePairCounting)
{
    // old = ...111, target = ...110: bit0 is RESET; bit1 stays 1 (not
    // idle-0) -> no pair. With bit1 idle '0' -> one pair.
    LineData old, target;
    old.setBit(0, true);
    // bit1 = 0 in both old and target: idle '0' next to a RESET cell.
    EXPECT_EQ(DinEncoder::vulnerablePairs(target, old), 1u);

    old.setBit(1, true);
    target.setBit(1, true); // neighbour now crystalline and untouched
    EXPECT_EQ(DinEncoder::vulnerablePairs(target, old), 0u);
}

TEST(Din, NoPairsAcrossChipBoundary)
{
    // Cell 63 and cell 64 belong to different chips; heat does not
    // couple through the word-line there in the encoder's cost model.
    LineData old, target;
    old.setBit(64, true); // cell 64 RESET; cell 63 idle '0' (other chip)
    old.setBit(65, true); // cell 65 crystalline and untouched
    target.setBit(65, true);
    EXPECT_EQ(DinEncoder::vulnerablePairs(target, old), 0u);
}

TEST(Din, ReducesVulnerablePairsOnAverage)
{
    Rng rng(11);
    DinEncoder din;
    std::uint64_t raw = 0, encoded = 0;
    for (int i = 0; i < 200; ++i) {
        const LineData old = LineData::randomFromKey(rng.next64());
        LineData logical = old;
        for (int f = 0; f < 60; ++f)
            logical.flipBit(static_cast<unsigned>(rng.below(kLineBits)));
        raw += DinEncoder::vulnerablePairs(logical, old);
        const auto enc = din.encode(logical, old);
        encoded += DinEncoder::vulnerablePairs(enc.physical, old);
    }
    EXPECT_LT(encoded, raw);
}

TEST(Din, BoundedWriteInflation)
{
    // The weighted objective must not blow up the number of programmed
    // cells (that was the failure mode of a pairs-only objective).
    Rng rng(13);
    DinEncoder din;
    std::uint64_t plain = 0, encoded = 0;
    LineData phys = LineData::randomFromKey(1);
    std::uint64_t flags = 0;
    for (int i = 0; i < 200; ++i) {
        LineData logical = din.decode(phys, flags);
        for (int f = 0; f < 60; ++f)
            logical.flipBit(static_cast<unsigned>(rng.below(kLineBits)));
        plain += 60;
        const auto enc = din.encode(logical, phys);
        encoded += diffWrite(phys, enc.physical).changedCount();
        phys = enc.physical;
        flags = enc.flags;
    }
    EXPECT_LT(encoded, plain * 1.3);
}

class DinGroupSizes : public ::testing::TestWithParam<unsigned>
{};

TEST_P(DinGroupSizes, RoundTripAllGroupSizes)
{
    DinConfig cfg;
    cfg.groupBits = GetParam();
    DinEncoder din(cfg);
    Rng rng(GetParam());
    for (int i = 0; i < 20; ++i) {
        const LineData logical = LineData::randomFromKey(rng.next64());
        const LineData old = LineData::randomFromKey(rng.next64());
        const auto enc = din.encode(logical, old);
        EXPECT_EQ(din.decode(enc.physical, enc.flags), logical);
    }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, DinGroupSizes,
                         ::testing::Values(8u, 16u, 32u, 64u));

/**
 * The group-by-group DIN encoder and decoder that the word-width ones
 * replaced, kept here as the reference those must match bit for bit.
 * The encoder re-costs the whole 64-cell word for both choices of
 * every group, on every sweep.
 */
std::uint64_t
referenceGroupMask(unsigned group_bits, unsigned group_in_word)
{
    const std::uint64_t base = group_bits == 64
        ? ~0ULL
        : ((1ULL << group_bits) - 1);
    return base << (group_in_word * group_bits);
}

int
referenceWordCost(std::uint64_t target, std::uint64_t old)
{
    const std::uint64_t resets = old & ~target;
    const std::uint64_t idle0 = ~old & ~target;
    return popcount64(resets & (idle0 >> 1)) +
           popcount64(resets & (idle0 << 1));
}

DinEncoder::Encoding
referenceEncode(const DinConfig& config, const LineData& new_logical,
                const LineData& old_physical)
{
    DinEncoder::Encoding out;
    const unsigned groups_per_word = 64 / config.groupBits;
    for (unsigned w = 0; w < kLineWords; ++w) {
        const std::uint64_t logical = new_logical.words[w];
        const std::uint64_t old = old_physical.words[w];
        std::uint64_t flip_mask = 0;
        std::uint64_t flip_flags = 0;
        for (unsigned sweep = 0; sweep < config.sweeps; ++sweep) {
            bool changed_any = false;
            for (unsigned g = 0; g < groups_per_word; ++g) {
                const std::uint64_t mask =
                    referenceGroupMask(config.groupBits, g);
                const std::uint64_t without = flip_mask & ~mask;
                const std::uint64_t with = flip_mask | mask;
                const std::uint64_t t0 = logical ^ without;
                const std::uint64_t t1 = logical ^ with;
                const int weight = static_cast<int>(config.vulnWeight);
                const int cost0 = weight * referenceWordCost(t0, old) +
                    popcount64(t0 ^ old);
                const int cost1 = weight * referenceWordCost(t1, old) +
                    popcount64(t1 ^ old);
                const bool flip = cost1 < cost0;
                const std::uint64_t next = flip ? with : without;
                if (next != flip_mask) {
                    flip_mask = next;
                    changed_any = true;
                }
                if (flip)
                    flip_flags |= 1ULL << g;
                else
                    flip_flags &= ~(1ULL << g);
            }
            if (!changed_any)
                break;
        }
        out.physical.words[w] = logical ^ flip_mask;
        out.flags |= flip_flags << (w * groups_per_word);
    }
    return out;
}

LineData
referenceDecode(const DinConfig& config, const LineData& physical,
                std::uint64_t flags)
{
    LineData out;
    const unsigned groups_per_word = 64 / config.groupBits;
    unsigned group_index = 0;
    for (unsigned w = 0; w < kLineWords; ++w) {
        std::uint64_t word = physical.words[w];
        for (unsigned g = 0; g < groups_per_word; ++g, ++group_index) {
            if ((flags >> group_index) & 1ULL)
                word ^= referenceGroupMask(config.groupBits, g);
        }
        out.words[w] = word;
    }
    return out;
}

/** A line of about `ones`/8 density: sparse, half or dense content. */
LineData
randomLine(Rng& rng, unsigned ones)
{
    LineData line;
    for (std::uint64_t& word : line.words) {
        word = rng.next64();
        if (ones < 4)
            word &= rng.next64() & (ones < 2 ? rng.next64() : ~0ULL);
        else if (ones > 4)
            word |= rng.next64() | (ones > 6 ? rng.next64() : 0);
    }
    return line;
}

/**
 * New data for `old`: a few cell flips away (the common write), fresh
 * content of any density, or the old data inverted.
 */
LineData
rewrite(Rng& rng, const LineData& old)
{
    LineData logical = old;
    switch (rng.below(3)) {
      case 0:
        for (unsigned f = 1 + static_cast<unsigned>(rng.below(100)); f > 0;
             --f) {
            logical.flipBit(static_cast<unsigned>(rng.below(kLineBits)));
        }
        break;
      case 1:
        logical = randomLine(rng, 1 + static_cast<unsigned>(rng.below(7)));
        break;
      default:
        for (std::uint64_t& word : logical.words)
            word = ~word;
    }
    return logical;
}

class DinWordWidth : public ::testing::TestWithParam<
                         std::tuple<unsigned, unsigned, unsigned>>
{};

TEST_P(DinWordWidth, MatchesGroupByGroupReference)
{
    DinConfig cfg;
    std::tie(cfg.groupBits, cfg.sweeps, cfg.vulnWeight) = GetParam();
    const DinEncoder din(cfg);
    const std::uint64_t flag_mask = din.numGroups() == 64
        ? ~0ULL : (1ULL << din.numGroups()) - 1;
    Rng rng(cfg.groupBits * 100 + cfg.sweeps * 10 + cfg.vulnWeight);
    for (int trial = 0; trial < 3000; ++trial) {
        const LineData old =
            randomLine(rng, 1 + static_cast<unsigned>(rng.below(7)));
        const LineData logical = rewrite(rng, old);
        const DinEncoder::Encoding got = din.encode(logical, old);
        const DinEncoder::Encoding want = referenceEncode(cfg, logical, old);
        ASSERT_EQ(got.physical, want.physical) << "trial " << trial;
        ASSERT_EQ(got.flags, want.flags) << "trial " << trial;

        const std::uint64_t flags = rng.next64() & flag_mask;
        ASSERT_EQ(din.decode(old, flags), referenceDecode(cfg, old, flags))
            << "trial " << trial;
        ASSERT_EQ(din.decode(got.physical, got.flags), logical)
            << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DinWordWidth,
    ::testing::Combine(::testing::Values(8u, 16u, 32u, 64u),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(0u, 2u)),
    [](const auto& info) {
        std::string name = "g";
        name += std::to_string(std::get<0>(info.param));
        name += "_s";
        name += std::to_string(std::get<1>(info.param));
        name += "_w";
        name += std::to_string(std::get<2>(info.param));
        return name;
    });

/**
 * The per-group Flip-N-Write encoder (Cho & Lee, MICRO'09) that
 * DinConfig::flipNWrite() replaced, kept as that constant's reference:
 * a group is stored inverted iff that programs strictly fewer cells.
 * Its decoder was the per-group loop of referenceDecode.
 */
DinEncoder::Encoding
referenceFlipNWrite(unsigned group_bits, const LineData& new_logical,
                    const LineData& old_physical)
{
    DinEncoder::Encoding out;
    const unsigned groups_per_word = 64 / group_bits;
    unsigned group_index = 0;
    for (unsigned w = 0; w < kLineWords; ++w) {
        std::uint64_t word = 0;
        for (unsigned g = 0; g < groups_per_word; ++g, ++group_index) {
            const std::uint64_t mask = referenceGroupMask(group_bits, g);
            const std::uint64_t plain = new_logical.words[w] & mask;
            const std::uint64_t flipped = ~new_logical.words[w] & mask;
            const std::uint64_t old_bits = old_physical.words[w] & mask;
            const int cost_plain = popcount64(plain ^ old_bits);
            const int cost_flip = popcount64(flipped ^ old_bits);
            if (cost_flip < cost_plain) {
                word |= flipped;
                out.flags |= 1ULL << group_index;
            } else {
                word |= plain;
            }
        }
        out.physical.words[w] = word;
    }
    return out;
}

TEST(FnwOnDin, MatchesPerGroupFlipNWrite)
{
    // At vulnerability weight 0, DIN costs inverting a group as the cells
    // it programs inverted minus plain and inverts under the same strict
    // <, so the constant and its group-size variants are Flip-N-Write.
    std::vector<DinConfig> configs = {DinConfig::flipNWrite()};
    for (const unsigned bits : {8u, 32u, 64u}) {
        configs.push_back(DinConfig::flipNWrite());
        configs.back().groupBits = bits;
    }
    for (const DinConfig& cfg : configs) {
        const DinEncoder fnw(cfg);
        const std::uint64_t flag_mask = fnw.numGroups() == 64
            ? ~0ULL : (1ULL << fnw.numGroups()) - 1;
        Rng rng(cfg.groupBits);
        for (int trial = 0; trial < 3000; ++trial) {
            const LineData old =
                randomLine(rng, 1 + static_cast<unsigned>(rng.below(7)));
            const LineData logical = rewrite(rng, old);
            const DinEncoder::Encoding got = fnw.encode(logical, old);
            const DinEncoder::Encoding want =
                referenceFlipNWrite(cfg.groupBits, logical, old);
            ASSERT_EQ(got.physical, want.physical)
                << "g" << cfg.groupBits << " trial " << trial;
            ASSERT_EQ(got.flags, want.flags)
                << "g" << cfg.groupBits << " trial " << trial;

            const std::uint64_t flags = rng.next64() & flag_mask;
            ASSERT_EQ(fnw.decode(old, flags),
                      referenceDecode(cfg, old, flags))
                << "g" << cfg.groupBits << " trial " << trial;
            ASSERT_EQ(fnw.decode(got.physical, got.flags), logical)
                << "g" << cfg.groupBits << " trial " << trial;
        }
    }
}

} // namespace
} // namespace sdpcm
