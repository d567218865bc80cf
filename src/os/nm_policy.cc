#include "os/nm_policy.hh"

namespace sdpcm {

double
NmPolicy::averageVerifiedNeighbors() const
{
    std::uint64_t used = 0;
    std::uint64_t verified = 0;
    for (std::uint64_t s = 0; s < kStripsPerBlock; ++s) {
        if (!stripInUse(s))
            continue;
        used += 1;
        verified += verifyUpper(s) ? 1 : 0;
        verified += verifyLower(s) ? 1 : 0;
    }
    if (used == 0)
        return 0.0;
    return static_cast<double>(verified) / static_cast<double>(used);
}

} // namespace sdpcm
