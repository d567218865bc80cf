#include "verify/faultinject.hh"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/args.hh"
#include "pcm/line.hh"

namespace sdpcm {

FaultSpec
FaultSpec::parse(const std::string& text)
{
    using Int = std::int64_t;
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
        // Numbers come from the flag parser's strict readers (integers
        // are base 0); each key then checks its own range.
        const auto in = [&key](auto v, decltype(v) lo, decltype(v) hi) {
            if (v >= lo && v <= hi)
                return v;
            std::ostringstream why;
            why << key << " must be " << (v < lo ? ">= " : "<= ")
                << (v < lo ? lo : hi);
            throw std::invalid_argument(why.str());
        };
        try {
            if (key == "stuck") {
                spec.stuckPerLine = in(ArgParser::parseDouble(value), 0.0,
                                       std::numeric_limits<double>::max());
            } else if (key == "ecp") {
                // A steal is a stuck cell drawn from the line's cells.
                spec.ecpSteal = static_cast<unsigned>(
                    in(ArgParser::parseInt(value), Int{0}, Int{kLineBits}));
            } else if (key == "wd") {
                spec.wdBoost = in(ArgParser::parseDouble(value), 0.0, 1.0);
            } else if (key == "seed") {
                spec.seed = static_cast<std::uint64_t>(
                    in(ArgParser::parseInt(value), Int{0},
                       std::numeric_limits<Int>::max()));
            } else {
                throw std::invalid_argument(
                    "unknown fault spec key '" + key +
                    "' (stuck, ecp, wd, seed)");
            }
        } catch (const std::invalid_argument& e) {
            throw std::invalid_argument("bad fault spec value '" + item +
                                        "': " + e.what());
        }
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
    if (spec_.stuckPerLine > 0.0)
        count += rng.poisson(spec_.stuckPerLine);
    for (unsigned i = 0; i < count; ++i)
        out.push_back(static_cast<unsigned>(rng.below(kLineBits)));
}

} // namespace sdpcm
