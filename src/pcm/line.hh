/**
 * @file
 * A 64-byte memory line as a dense bit vector.
 *
 * Bit semantics follow the paper: bit '0' is the fully amorphous
 * (high-resistance, RESET) state; bit '1' is crystalline (SET). A RESET
 * pulse programs a '0'; only RESET pulses disturb neighbours.
 */

#ifndef SDPCM_PCM_LINE_HH
#define SDPCM_PCM_LINE_HH

#include <array>
#include <cstdint>

#include "common/bitops.hh"
#include "common/rng.hh"

namespace sdpcm {

/** Number of bits in one memory line (64B). */
inline constexpr unsigned kLineBits = 512;
/** Number of 64-bit words backing one line. */
inline constexpr unsigned kLineWords = kLineBits / 64;

/** One 64-byte line of SLC PCM cells. */
struct LineData
{
    std::array<std::uint64_t, kLineWords> words{};

    bool
    getBit(unsigned pos) const
    {
        return sdpcm::getBit(words[pos >> 6], pos & 63);
    }

    void
    setBit(unsigned pos, bool value)
    {
        words[pos >> 6] = sdpcm::setBit(words[pos >> 6], pos & 63, value);
    }

    /** Flip a single cell. */
    void
    flipBit(unsigned pos)
    {
        words[pos >> 6] ^= 1ULL << (pos & 63);
    }

    /** Bitwise XOR: positions where two lines differ. */
    LineData
    diff(const LineData& other) const
    {
        LineData out;
        for (unsigned w = 0; w < kLineWords; ++w)
            out.words[w] = words[w] ^ other.words[w];
        return out;
    }

    /** Number of set bits. */
    unsigned
    popcount() const
    {
        unsigned n = 0;
        for (const auto word : words)
            n += popcount64(word);
        return n;
    }

    bool
    operator==(const LineData& other) const
    {
        return words == other.words;
    }

    /** Word `w` of randomFromKey(key), computed alone: the w-th step of
     *  a splitmix64 stream whose state starts at key ^ phi. */
    static std::uint64_t
    wordFromKey(std::uint64_t key, unsigned w)
    {
        constexpr std::uint64_t kPhi = 0x9e3779b97f4a7c15ULL;
        std::uint64_t state = (key ^ kPhi) + w * kPhi;
        return splitmix64(state);
    }

    /** Deterministic pseudo-random content derived from a 64-bit key. */
    static LineData
    randomFromKey(std::uint64_t key)
    {
        LineData line;
        for (unsigned w = 0; w < kLineWords; ++w)
            line.words[w] = wordFromKey(key, w);
        return line;
    }

    /** All-zero (fully amorphous) line. */
    static LineData
    zero()
    {
        return LineData{};
    }
};

/**
 * Enumerate set-bit positions of a LineData mask, calling fn(unsigned pos).
 */
template <typename Fn>
inline void
forEachSetBit(const LineData& mask, Fn&& fn)
{
    for (unsigned w = 0; w < kLineWords; ++w) {
        std::uint64_t bits = mask.words[w];
        while (bits) {
            const unsigned bit = std::countr_zero(bits);
            fn(w * 64 + bit);
            bits &= bits - 1;
        }
    }
}

} // namespace sdpcm

#endif // SDPCM_PCM_LINE_HH
