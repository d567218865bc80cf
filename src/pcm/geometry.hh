/**
 * @file
 * DIMM organisation and density analytics.
 *
 * Mirrors the baseline architecture of Figure 6: one channel, two ranks,
 * eight banks per rank; a bank row holds one 4KB OS page spread across
 * eight data chips (4096 SLC cells per chip row) plus one ECP chip; page
 * frames interleave across the 16 banks, so the bit-line neighbours of a
 * page sit 16 page frames away and the 16 pages with equal row index form
 * a "strip".
 *
 * The density analytics reproduce Section 6.1: cell-array capacity gain of
 * super dense (4F^2) PCM over the DIN (8F^2) design, and the two chip-size
 * reduction estimates.
 */

#ifndef SDPCM_PCM_GEOMETRY_HH
#define SDPCM_PCM_GEOMETRY_HH

#include <cstdint>

namespace sdpcm {

/** DIMM organisation (Table 2 / Figure 6); tests shrink the rows. */
struct DimmGeometry
{
    static constexpr unsigned ranks = 2;
    static constexpr unsigned banksPerRank = 8;
    static constexpr unsigned dataChips = 8;
    static constexpr unsigned ecpChips = 1;
    static constexpr unsigned rowBytes = 4096; //!< one page per bank row
    static constexpr unsigned lineBytes = 64;  //!< cache-line granularity
    std::uint64_t rowsPerBank = 131072; //!< 8GB total with the above

    static constexpr unsigned
    banks()
    {
        return ranks * banksPerRank;
    }

    static constexpr unsigned
    linesPerRow()
    {
        return rowBytes / lineBytes;
    }

    /** Cells contributed by one chip to one row. */
    static constexpr unsigned
    cellsPerChipRow()
    {
        return rowBytes * 8 / dataChips;
    }

    /** Data bits per chip per line. */
    static constexpr unsigned
    lineBitsPerChip()
    {
        return lineBytes * 8 / dataChips;
    }

    std::uint64_t
    capacityBytes() const
    {
        return static_cast<std::uint64_t>(banks()) * rowsPerBank * rowBytes;
    }

    std::uint64_t
    pageFrames() const
    {
        return capacityBytes() / rowBytes;
    }

    /** Page frames per strip (= number of banks). */
    static constexpr unsigned
    framesPerStrip()
    {
        return banks();
    }

    /** Strips per 64MB allocation block. */
    static constexpr std::uint64_t
    stripsPer64MB()
    {
        return (64ULL << 20) / (static_cast<std::uint64_t>(rowBytes) *
                                framesPerStrip());
    }
};

/**
 * Cell-array density analytics for the Section 6.1 capacity study.
 *
 * All figures compare a super dense data array (4F^2/cell, with a
 * double-size low-density ECP chip for LazyCorrection) against the DIN
 * design (8F^2/cell data and ECP).
 */
struct DensityAnalysis
{
    /** Fraction of chip area occupied by the cell array (prototype). */
    static constexpr double cellArrayAreaFraction = 0.466;

    /**
     * Cell-array capacity of each design when both are given the same
     * total cell-array silicon area, normalised so the super dense design
     * provides `sdCapacityGB` gigabytes (paper: 4GB vs 2.22GB).
     */
    double sdCapacityGB(double total_area_units = 10.0) const;
    double dinCapacityGB(double total_area_units = 10.0) const;

    /** Capacity improvement of SD-PCM over DIN ((4-2.22)/2.22 ~ 80%). */
    double capacityImprovement() const;

    /**
     * Chip-count comparison for a fixed 4GB memory built from equal-size
     * chips: DIN needs 16+2 chips, SD-PCM 8+2 (~38% chip size reduction).
     */
    double chipCountReductionEqualChips() const;

    /**
     * Chip-size comparison when DIN uses bigger chips: DIN 8+1 big chips
     * vs SD-PCM 8 small + 1 big (~20% reduction; the small chip is ~23%
     * smaller because the array is 46.6% of chip area).
     */
    double chipSizeReductionBigChips() const;
};

} // namespace sdpcm

#endif // SDPCM_PCM_GEOMETRY_HH
