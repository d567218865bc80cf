#include "verify/faultinject.hh"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "pcm/line.hh"

namespace sdpcm {

FaultSpec
FaultSpec::parse(const std::string& text)
{
    FaultSpec spec;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string item = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? text.size() : comma + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument(
                "fault spec item '" + item + "' is not key=value");
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        try {
            std::size_t used = 0;
            // std::stoul/stoull silently wrap negative input
            // ("ecp=-1" -> 4294967295), so reject a leading sign up
            // front for the unsigned keys.
            const bool negative = !value.empty() && value[0] == '-';
            if (key == "stuck") {
                spec.stuckPerLine = std::stod(value, &used);
            } else if (key == "ecp") {
                if (negative)
                    throw std::invalid_argument("ecp must be >= 0");
                const unsigned long v = std::stoul(value, &used);
                // A steal is a stuck cell drawn from the line's cells.
                if (v > kLineBits) {
                    throw std::invalid_argument(
                        "ecp must be <= " + std::to_string(kLineBits));
                }
                spec.ecpSteal = static_cast<unsigned>(v);
            } else if (key == "wd") {
                spec.wdBoost = std::stod(value, &used);
            } else if (key == "seed") {
                if (negative)
                    throw std::invalid_argument("seed must be >= 0");
                spec.seed = std::stoull(value, &used);
            } else {
                throw std::invalid_argument(
                    "unknown fault spec key '" + key +
                    "' (stuck, ecp, wd, seed)");
            }
            if (used != value.size())
                throw std::invalid_argument("trailing junk");
        } catch (const std::invalid_argument& e) {
            throw std::invalid_argument("bad fault spec value '" + item +
                                        "': " + e.what());
        } catch (const std::out_of_range&) {
            throw std::invalid_argument("fault spec value out of range: '" +
                                        item + "'");
        }
    }
    // Written as negated "in range" checks so NaN (which compares false
    // against everything) is rejected rather than slipping through.
    if (!(spec.stuckPerLine >= 0.0 &&
          std::isfinite(spec.stuckPerLine)) ||
        !(spec.wdBoost >= 0.0 && spec.wdBoost <= 1.0)) {
        throw std::invalid_argument(
            "fault spec needs finite stuck>=0 and wd in [0,1]");
    }
    return spec;
}

std::string
FaultSpec::describe() const
{
    std::ostringstream os;
    os << "stuck=" << stuckPerLine << ",ecp=" << ecpSteal
       << ",wd=" << wdBoost << ",seed=" << seed;
    return os.str();
}

void
FaultInjector::stuckCellsFor(unsigned bank, std::uint64_t line_key,
                             std::vector<unsigned>& out) const
{
    if (spec_.ecpSteal == 0 && spec_.stuckPerLine <= 0.0)
        return;
    // Per-line stateless stream: materialisation order cannot change the
    // injected population.
    Rng rng(mix64(spec_.seed ^
                  (static_cast<std::uint64_t>(bank) << 56) ^
                  (line_key * 0x9e3779b97f4a7c15ULL)));
    unsigned count = spec_.ecpSteal;
    if (spec_.stuckPerLine > 0.0) {
        // Knuth Poisson sampling, same scheme as the aging model.
        const double limit = std::exp(-spec_.stuckPerLine);
        double product = rng.uniform();
        while (product > limit) {
            count += 1;
            product *= rng.uniform();
        }
    }
    for (unsigned i = 0; i < count; ++i)
        out.push_back(static_cast<unsigned>(rng.below(kLineBits)));
}

} // namespace sdpcm
