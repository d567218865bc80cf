#include "encoding/din.hh"

#include <array>

#include "common/logging.hh"

namespace sdpcm {

namespace {

/** Vulnerable-pair count of one 64-cell chip segment. */
int
wordCost(std::uint64_t target, std::uint64_t old)
{
    const std::uint64_t resets = old & ~target;
    const std::uint64_t idle0 = ~old & ~target;
    return popcount64(resets & (idle0 >> 1)) +
           popcount64(resets & (idle0 << 1));
}

/**
 * Per-group popcounts: lane g (group_bits wide) of the result holds the
 * number of set bits in lane g of x. The SWAR count of popcount64,
 * stopped at the group width.
 */
std::uint64_t
groupPopcounts(std::uint64_t x, unsigned group_bits)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    if (group_bits >= 16)
        x = (x + (x >> 8)) & 0x00ff00ff00ff00ffULL;
    if (group_bits >= 32)
        x = (x + (x >> 16)) & 0x0000ffff0000ffffULL;
    if (group_bits == 64)
        x = (x + (x >> 32)) & 0x00000000ffffffffULL;
    return x;
}

/**
 * Inversion masks of one 64-cell word, indexed by that word's flag bits:
 * entry f inverts every group g with bit g of f set.
 */
template <unsigned GroupBits>
constexpr std::array<std::uint64_t, (1u << (64 / GroupBits))>
inversionTable()
{
    constexpr unsigned groups = 64 / GroupBits;
    std::uint64_t group = ~0ULL;
    if constexpr (GroupBits < 64)
        group = (1ULL << GroupBits) - 1;
    std::array<std::uint64_t, (1u << groups)> table{};
    for (unsigned f = 0; f < table.size(); ++f) {
        for (unsigned g = 0; g < groups; ++g) {
            if ((f >> g) & 1u)
                table[f] |= group << (g * GroupBits);
        }
    }
    return table;
}

constexpr auto kInversion8 = inversionTable<8>();
constexpr auto kInversion16 = inversionTable<16>();
constexpr auto kInversion32 = inversionTable<32>();
constexpr auto kInversion64 = inversionTable<64>();

} // namespace

DinEncoder::DinEncoder(const DinConfig& config)
    : config_(config)
{
    // groupBits >= 8 keeps the per-line flag count within one 64-bit word.
    SDPCM_ASSERT(config_.groupBits >= 8 && config_.groupBits <= 64 &&
                 64 % config_.groupBits == 0,
                 "DIN group size must divide 64 and be >= 8, got ",
                 config_.groupBits);
    SDPCM_ASSERT(config_.sweeps >= 1, "DIN needs at least one sweep");
    groupsPerWord_ = 64 / config_.groupBits;
    inversion_ = config_.groupBits == 8    ? kInversion8.data()
        : config_.groupBits == 16          ? kInversion16.data()
        : config_.groupBits == 32          ? kInversion32.data()
                                           : kInversion64.data();
}

DinEncoder::Encoding
DinEncoder::encode(const LineData& new_logical,
                   const LineData& old_physical) const
{
    Encoding out;
    const unsigned bits = config_.groupBits;
    const unsigned groups = groupsPerWord_;
    const std::uint64_t lane = bits == 64 ? ~0ULL : (1ULL << bits) - 1;
    const int weight = static_cast<int>(config_.vulnWeight);
    std::uint64_t tops = 0; // each group's highest cell
    for (unsigned g = 0; g < groups; ++g)
        tops |= 1ULL << (g * bits + bits - 1);

    // Groups never straddle chip (64-cell) boundaries, so each word is an
    // independent optimisation problem.
    for (unsigned w = 0; w < kLineWords; ++w) {
        const std::uint64_t logical = new_logical.words[w];
        const std::uint64_t old = old_physical.words[w];

        // A write's vulnerable pairs are its live edges. Edge i joins
        // cells i and i+1 of the word; it is live when both cells end at
        // '0' and exactly one was '1' (a RESET beside an idle '0' cell).
        // `split` marks the edges whose old cells differ.
        const std::uint64_t split = (old ^ (old >> 1)) & ~(1ULL << 63);
        const std::uint64_t inner = split & ~tops;

        // Cost of inverting group g minus keeping it plain. Its own cells
        // and inner edges do not depend on the other groups' choices, so
        // that part is counted once per word; the two boundary edges are
        // added at each evaluation below.
        const std::uint64_t programmed = groupPopcounts(logical ^ old, bits);
        const std::uint64_t pairs_plain =
            groupPopcounts(~logical & ~(logical >> 1) & inner, bits);
        const std::uint64_t pairs_inverted =
            groupPopcounts(logical & (logical >> 1) & inner, bits);
        std::array<int, 8> own{};
        // Cost of inverting on a live boundary edge: its pair counts iff
        // the group's own edge cell ends at '0', which inverting brings
        // about when that cell's logical bit is 1 and undoes otherwise.
        std::array<int, 8> left{};
        std::array<int, 8> right{};
        for (unsigned g = 0; g < groups; ++g) {
            const unsigned lo = g * bits;
            const unsigned hi = lo + bits - 1;
            const int kept = static_cast<int>((programmed >> lo) & lane);
            own[g] = weight *
                    (static_cast<int>((pairs_inverted >> lo) & lane) -
                     static_cast<int>((pairs_plain >> lo) & lane)) +
                static_cast<int>(bits) - 2 * kept;
            left[g] = ((logical >> lo) & 1) ? weight : -weight;
            right[g] = ((logical >> hi) & 1) ? weight : -weight;
        }

        unsigned inverted = 0; // bit g set = group g stored inverted
        for (unsigned sweep = 0; sweep < config_.sweeps; ++sweep) {
            const unsigned before = inverted;
            for (unsigned g = 0; g < groups; ++g) {
                const unsigned lo = g * bits;
                const unsigned hi = lo + bits - 1;
                // A boundary edge is live when its old cells differ and
                // its outer cell, in the neighbouring group as currently
                // chosen, ends at '0'. Bit lo of `live_left` is edge
                // lo-1 (none for group 0); bit hi of `live_right` is edge
                // hi (none for the last group: `split` has no bit 63).
                const std::uint64_t zero = ~(logical ^ inversion_[inverted]);
                const std::uint64_t live_left = (split & zero) << 1;
                const std::uint64_t live_right = split & (zero >> 1);
                const int delta = own[g] +
                    static_cast<int>((live_left >> lo) & 1) * left[g] +
                    static_cast<int>((live_right >> hi) & 1) * right[g];
                inverted = (inverted & ~(1u << g)) |
                    (static_cast<unsigned>(delta < 0) << g);
            }
            if (inverted == before)
                break;
        }

        out.physical.words[w] = logical ^ inversion_[inverted];
        // Pack per-word flags into the line-wide flag word.
        out.flags |= std::uint64_t{inverted} << (w * groups);
    }
    return out;
}

LineData
DinEncoder::decode(const LineData& physical, std::uint64_t flags) const
{
    LineData out;
    const std::uint64_t word_flags = (1ULL << groupsPerWord_) - 1;
    for (unsigned w = 0; w < kLineWords; ++w) {
        out.words[w] = physical.words[w] ^
            inversion_[(flags >> (w * groupsPerWord_)) & word_flags];
    }
    return out;
}

unsigned
DinEncoder::vulnerablePairs(const LineData& target,
                            const LineData& old_physical)
{
    unsigned pairs = 0;
    for (unsigned w = 0; w < kLineWords; ++w)
        pairs += wordCost(target.words[w], old_physical.words[w]);
    return pairs;
}

} // namespace sdpcm
