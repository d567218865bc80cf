/**
 * @file
 * Bit-level utilities shared across the PCM device and encoder models.
 */

#ifndef SDPCM_COMMON_BITOPS_HH
#define SDPCM_COMMON_BITOPS_HH

#include <bit>
#include <cstdint>

namespace sdpcm {

/**
 * Number of set bits in a 64-bit word: a branch-free SWAR count. At the
 * baseline x86-64 target std::popcount is an out-of-line library call;
 * this inlines to a dozen ALU operations on any target.
 */
inline int
popcount64(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

/** True if x is a power of two (and nonzero). */
constexpr bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** log2 of a power of two. */
constexpr unsigned
log2Exact(std::uint64_t x)
{
    return static_cast<unsigned>(std::countr_zero(x));
}

/** Smallest power of two >= x (x > 0). */
inline std::uint64_t
ceilPowerOfTwo(std::uint64_t x)
{
    return std::bit_ceil(x);
}

/** Ceiling division for unsigned integers. */
inline std::uint64_t
ceilDiv(std::uint64_t num, std::uint64_t den)
{
    return (num + den - 1) / den;
}

/** Extract bit `pos` of x. */
inline bool
getBit(std::uint64_t x, unsigned pos)
{
    return (x >> pos) & 1ULL;
}

/** Return x with bit `pos` set to `value`. */
inline std::uint64_t
setBit(std::uint64_t x, unsigned pos, bool value)
{
    const std::uint64_t mask = 1ULL << pos;
    return value ? (x | mask) : (x & ~mask);
}

} // namespace sdpcm

#endif // SDPCM_COMMON_BITOPS_HH
