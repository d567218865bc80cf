/**
 * @file
 * (n:m) strip-marking policy (Section 4.4).
 *
 * An (n:m) allocator (0 < n <= m) uses n out of every m consecutive
 * device strips inside each 64MB block and marks the rest "no-use":
 * those strips hold no data, so a write in an adjacent strip need not
 * verify towards them. Groups restart at every 64MB block boundary (a
 * group may span a 32MB boundary but never a 64MB one), so m is at most
 * the kStripsPerBlock = 1024 strips of a block, a constant of the DIMM
 * geometry. We mark the trailing m-n strips of each group; any
 * single-group marking position yields the same number of adjacent-line
 * verifications, and the paper's example marking (the 2nd strip of each
 * 3-strip group for (2:3)) is equivalent.
 *
 * Edge rule (reliability): a line in the first strip of its 64MB block
 * always verifies its top adjacent line, and one in the last strip always
 * verifies its bottom adjacent line, because the neighbouring block may
 * belong to a different allocator.
 */

#ifndef SDPCM_OS_NM_POLICY_HH
#define SDPCM_OS_NM_POLICY_HH

#include <compare>
#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "pcm/geometry.hh"

namespace sdpcm {

/** Strips per 64MB block: no (n:m) group spans more. */
inline constexpr std::uint64_t kStripsPerBlock =
    DimmGeometry::stripsPer64MB();
static_assert(kStripsPerBlock > 0, "empty block");

/** Allocator ratio tag carried through page table / TLB / controller. */
struct NmRatio
{
    unsigned n = 1;
    unsigned m = 1;

    /** Ratios compare as (n, m). */
    auto operator<=>(const NmRatio&) const = default;

    bool
    isFull() const
    {
        return n == m;
    }

    /** The ratios an allocator accepts: 1 <= n <= m <= kStripsPerBlock
     *  (a group fits in one 64MB block). */
    bool valid() const { return n >= 1 && n <= m && m <= kStripsPerBlock; }

    std::string
    toString() const
    {
        return std::to_string(n) + ":" + std::to_string(m);
    }
};

/** Strip usage and adjacent-line verification policy for one ratio: the
 *  ratio is all it holds, so it is built where it is needed. */
class NmPolicy
{
  public:
    explicit NmPolicy(const NmRatio& ratio)
        : ratio_(ratio)
    {
        SDPCM_ASSERT(ratio.valid(), "invalid (n:m) ratio ", ratio.n, ":",
                     ratio.m);
    }

    const NmRatio& ratio() const { return ratio_; }

    /** Whether a strip may hold data under this allocator. */
    bool
    stripInUse(std::uint64_t strip) const
    {
        if (ratio_.isFull())
            return true;
        const std::uint64_t local = strip % kStripsPerBlock;
        return (local % ratio_.m) < ratio_.n;
    }

    /** Must a write in `strip` verify its top (row-1) adjacent line? */
    bool
    verifyUpper(std::uint64_t strip) const
    {
        const std::uint64_t local = strip % kStripsPerBlock;
        if (local == 0)
            return true; // block edge: always verify outwards
        return stripInUse(strip - 1);
    }

    /** Must a write in `strip` verify its bottom (row+1) adjacent line? */
    bool
    verifyLower(std::uint64_t strip) const
    {
        const std::uint64_t local = strip % kStripsPerBlock;
        if (local + 1 == kStripsPerBlock)
            return true; // block edge: always verify outwards
        return stripInUse(strip + 1);
    }

    /** Average adjacent lines verified per write, over used strips. */
    double averageVerifiedNeighbors() const;

    /** Fraction of strips usable for data. */
    double
    usableFraction() const
    {
        std::uint64_t used = 0;
        for (std::uint64_t s = 0; s < kStripsPerBlock; ++s)
            used += stripInUse(s) ? 1 : 0;
        return static_cast<double>(used) /
               static_cast<double>(kStripsPerBlock);
    }

  private:
    NmRatio ratio_;
};

} // namespace sdpcm

#endif // SDPCM_OS_NM_POLICY_HH
