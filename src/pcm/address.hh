/**
 * @file
 * Physical address decomposition.
 *
 * Page frames interleave across the 16 banks of the DIMM (Figure 6): frame
 * f maps to bank (f mod 16), device row (f div 16). Within a row, byte
 * offset bits select one of the 64 lines. Consequently the physically
 * adjacent rows of a page, i.e. its bit-line neighbours, hold the pages 16
 * frames away, and the 16 frames with equal row index form a strip.
 */

#ifndef SDPCM_PCM_ADDRESS_HH
#define SDPCM_PCM_ADDRESS_HH

#include <compare>
#include <cstdint>
#include <optional>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "pcm/geometry.hh"

namespace sdpcm {

/** Physical byte address. */
using PhysAddr = std::uint64_t;

/**
 * A line's index within the DIMM: its physical address over the line
 * size. A geometry must have fewer than 2^32 lines, so an index fits in
 * 32 bits and the all-ones value names no line.
 */
using LineIndex = std::uint32_t;
inline constexpr LineIndex kNoLine = ~LineIndex{0};

/** Fully decoded location of one 64B line. */
struct LineAddr
{
    unsigned bank = 0;       //!< global bank index [0, 16)
    std::uint64_t row = 0;   //!< device row within the bank
    unsigned line = 0;       //!< line index within the row [0, 64)

    /** Members compare in declaration order: (bank, row, line). */
    auto operator<=>(const LineAddr&) const = default;
};

/** Address mapping functions bound to a DIMM geometry. */
class AddressMap
{
  public:
    explicit AddressMap(const DimmGeometry& geometry)
        : geom_(geometry)
    {
        static_assert(isPowerOfTwo(DimmGeometry::rowBytes) &&
                          isPowerOfTwo(DimmGeometry::lineBytes) &&
                          isPowerOfTwo(DimmGeometry::banks()),
                      "row, line and bank counts must be 2^k");
        static_assert(DimmGeometry::rowBytes >= DimmGeometry::lineBytes,
                      "a row holds at least one line");
        const std::uint64_t lines_per_strip =
            std::uint64_t{geom_.banks()} * geom_.linesPerRow();
        if (geom_.rowsPerBank > kNoLine / lines_per_strip) {
            SDPCM_FATAL("a DIMM of ", geom_.banks(), " banks x ",
                        geom_.rowsPerBank, " rows x ", geom_.linesPerRow(),
                        " lines has 2^32 or more lines; a line index is "
                        "32-bit");
        }
    }

    const DimmGeometry& geometry() const { return geom_; }

    /** Page frame number of a byte address. */
    std::uint64_t
    frameOf(PhysAddr addr) const
    {
        return addr / geom_.rowBytes;
    }

    /** Decode a byte address to its line location. */
    LineAddr
    decode(PhysAddr addr) const
    {
        const std::uint64_t frame = frameOf(addr);
        LineAddr la;
        la.bank = static_cast<unsigned>(frame % geom_.banks());
        la.row = frame / geom_.banks();
        la.line = static_cast<unsigned>((addr % geom_.rowBytes) /
                                        geom_.lineBytes);
        SDPCM_ASSERT(la.row < geom_.rowsPerBank,
                     "address beyond DIMM capacity: ", addr);
        return la;
    }

    /** Re-encode a line location to the byte address of its first byte. */
    PhysAddr
    encode(const LineAddr& la) const
    {
        const std::uint64_t frame =
            la.row * geom_.banks() + la.bank;
        return frame * geom_.rowBytes +
            static_cast<PhysAddr>(la.line) * geom_.lineBytes;
    }

    /** The line's index: encode(la) / lineBytes, row-major across banks
     *  like the address. */
    LineIndex
    lineIndex(const LineAddr& la) const
    {
        const std::uint64_t index =
            (la.row * geom_.banks() + la.bank) * geom_.linesPerRow() + la.line;
        SDPCM_ASSERT(index < kNoLine, "line beyond DIMM capacity: row ",
                     la.row);
        return static_cast<LineIndex>(index);
    }

    /** The line at `index`, inverting lineIndex. */
    LineAddr
    lineAt(LineIndex index) const
    {
        return decode(static_cast<PhysAddr>(index) * geom_.lineBytes);
    }

    /**
     * Strip index of a row. Rows with equal index across all banks hold
     * 16 consecutive page frames; the strip index equals the row index.
     */
    std::uint64_t
    stripOfRow(std::uint64_t row) const
    {
        return row;
    }

    /** Bit-line neighbour above (row - 1), if any. */
    std::optional<LineAddr>
    upperNeighbor(const LineAddr& la) const
    {
        if (la.row == 0)
            return std::nullopt;
        return LineAddr{la.bank, la.row - 1, la.line};
    }

    /** Bit-line neighbour below (row + 1), if any. */
    std::optional<LineAddr>
    lowerNeighbor(const LineAddr& la) const
    {
        if (la.row + 1 >= geom_.rowsPerBank)
            return std::nullopt;
        return LineAddr{la.bank, la.row + 1, la.line};
    }

  private:
    DimmGeometry geom_;
};

} // namespace sdpcm

#endif // SDPCM_PCM_ADDRESS_HH
