/**
 * @file
 * Tests for the (n:m) strip-marking policy (Section 4.4 semantics).
 */

#include <gtest/gtest.h>

#include "os/nm_policy.hh"

namespace sdpcm {
namespace {

TEST(NmPolicy, FullRatioUsesEverything)
{
    NmPolicy p(NmRatio{1, 1});
    for (std::uint64_t s = 0; s < kStripsPerBlock * 2; ++s) {
        EXPECT_TRUE(p.stripInUse(s));
        EXPECT_TRUE(p.verifyUpper(s));
        EXPECT_TRUE(p.verifyLower(s));
    }
    EXPECT_DOUBLE_EQ(p.usableFraction(), 1.0);
    EXPECT_DOUBLE_EQ(p.averageVerifiedNeighbors(), 2.0);
}

TEST(NmPolicy, OneTwoAlternatesStrips)
{
    NmPolicy p(NmRatio{1, 2});
    EXPECT_TRUE(p.stripInUse(0));
    EXPECT_FALSE(p.stripInUse(1));
    EXPECT_TRUE(p.stripInUse(2));
    EXPECT_DOUBLE_EQ(p.usableFraction(), 0.5);
}

TEST(NmPolicy, OneTwoNeedsAlmostNoVerification)
{
    // (1:2) separates any two data strips by a thermal-band strip; only
    // the block-edge rule keeps a handful of verifications.
    NmPolicy p(NmRatio{1, 2});
    EXPECT_TRUE(p.verifyUpper(0));  // block edge: always outwards
    EXPECT_FALSE(p.verifyLower(0)); // strip 1 is no-use
    EXPECT_FALSE(p.verifyUpper(2));
    EXPECT_FALSE(p.verifyLower(2));
    EXPECT_LT(p.averageVerifiedNeighbors(), 0.01);
}

TEST(NmPolicy, TwoThreeVerifiesExactlyOneNeighbor)
{
    // Figure 9: under (2:3) every used strip has exactly one used
    // adjacent strip (modulo block edges).
    NmPolicy p(NmRatio{2, 3});
    std::uint64_t used = 0;
    for (std::uint64_t s = 1; s + 1 < kStripsPerBlock; ++s) {
        if (!p.stripInUse(s))
            continue;
        used += 1;
        const int verified = (p.verifyUpper(s) ? 1 : 0) +
                             (p.verifyLower(s) ? 1 : 0);
        EXPECT_EQ(verified, 1) << "strip " << s;
    }
    EXPECT_GT(used, 0u);
    EXPECT_NEAR(p.usableFraction(), 2.0 / 3.0, 0.01);
}

TEST(NmPolicy, ThreeFourAveragesFourThirds)
{
    NmPolicy p(NmRatio{3, 4});
    EXPECT_NEAR(p.usableFraction(), 0.75, 0.01);
    EXPECT_NEAR(p.averageVerifiedNeighbors(), 4.0 / 3.0, 0.02);
}

TEST(NmPolicy, MarkingRestartsAtBlockBoundary)
{
    // Groups never span a 64MB block boundary: the pattern at the start
    // of block 1 equals the pattern at the start of block 0.
    NmPolicy p(NmRatio{2, 3});
    for (std::uint64_t s = 0; s < 16; ++s) {
        EXPECT_EQ(p.stripInUse(s), p.stripInUse(kStripsPerBlock + s))
            << "strip " << s;
    }
}

TEST(NmPolicy, BlockEdgesAlwaysVerifyOutwards)
{
    for (const auto ratio : {NmRatio{1, 2}, NmRatio{2, 3}, NmRatio{3, 4},
                             NmRatio{7, 8}}) {
        NmPolicy p(ratio);
        EXPECT_TRUE(p.verifyUpper(0)) << ratio.toString();
        EXPECT_TRUE(p.verifyUpper(kStripsPerBlock)) << ratio.toString();
        EXPECT_TRUE(p.verifyLower(kStripsPerBlock - 1)) << ratio.toString();
    }
}

class NmPolicyRatios
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(NmPolicyRatios, MonotoneTradeoff)
{
    // The larger the usable fraction, the more verification work; this
    // is the monotone trade-off of Figure 16.
    const auto [n, m] = GetParam();
    NmPolicy p(NmRatio{n, m});
    EXPECT_NEAR(p.usableFraction(),
                static_cast<double>(n) / static_cast<double>(m), 0.01);
    EXPECT_GE(p.averageVerifiedNeighbors(), 0.0);
    EXPECT_LE(p.averageVerifiedNeighbors(), 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, NmPolicyRatios,
    ::testing::Values(std::pair{1u, 2u}, std::pair{2u, 3u},
                      std::pair{3u, 4u}, std::pair{7u, 8u},
                      std::pair{1u, 3u}, std::pair{1u, 1u}));

TEST(NmPolicy, VerificationOrderedByRatio)
{
    NmPolicy p12(NmRatio{1, 2});
    NmPolicy p23(NmRatio{2, 3});
    NmPolicy p34(NmRatio{3, 4});
    NmPolicy p78(NmRatio{7, 8});
    NmPolicy p11(NmRatio{1, 1});
    EXPECT_LT(p12.averageVerifiedNeighbors(),
              p23.averageVerifiedNeighbors());
    EXPECT_LT(p23.averageVerifiedNeighbors(),
              p34.averageVerifiedNeighbors());
    EXPECT_LT(p34.averageVerifiedNeighbors(),
              p78.averageVerifiedNeighbors());
    EXPECT_LT(p78.averageVerifiedNeighbors(),
              p11.averageVerifiedNeighbors());
}

} // namespace
} // namespace sdpcm
