/**
 * @file
 * Deterministic fault injection at the PcmDevice boundary.
 *
 * The injector stresses the reliability machinery (VnC, LazyCorrection,
 * ECP, PreRead) with three seeded fault classes:
 *
 *  - stuck-at storms: extra stuck-at cells materialised per line on top
 *    of the aging model (`stuck=F`, mean cells per line);
 *  - ECP exhaustion: a fixed number of additional stuck cells per line
 *    that permanently claim ECP entries (`ecp=N`), starving
 *    LazyCorrection of free parking slots;
 *  - forced WD-flip bursts: an additive per-probe chance that a RESET
 *    pulse disturbs a vulnerable neighbour cell even when the thermal
 *    draw missed (`wd=F`). Forced flips go through the exact same
 *    vulnerability filter as natural disturbance, so the controller's
 *    verify-n-correct is responsible for catching every one of them.
 *
 * Determinism contract: stuck cells are a pure function of
 * (spec seed, bank, line key) — independent of access order — and the
 * WD-boost draws come from the injector's own RNG stream, so the
 * device's RNG sequence is untouched when the injector is detached and
 * any (spec, workload seed) pair replays bit-identically.
 */

#ifndef SDPCM_VERIFY_FAULTINJECT_HH
#define SDPCM_VERIFY_FAULTINJECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace sdpcm {

/** Parsed `--inject=` specification. */
struct FaultSpec
{
    /** Mean extra stuck-at cells per line (Poisson, per-line seeded). */
    double stuckPerLine = 0.0;
    /** ECP entries stolen per line by always-on stuck cells. */
    unsigned ecpSteal = 0;
    /** Additive chance that a disturbance probe force-flips its cell. */
    double wdBoost = 0.0;
    std::uint64_t seed = 1;

    bool
    any() const
    {
        return stuckPerLine > 0.0 || ecpSteal > 0 || wdBoost > 0.0;
    }

    bool operator==(const FaultSpec&) const = default;

    /**
     * Parse a comma-separated spec: "stuck=0.3,ecp=2,wd=0.02,seed=9".
     * Numbers are read as flags read them (ArgParser::parseDouble,
     * parseInt). Unknown keys, malformed values and values out of
     * range (stuck >= 0, ecp in [0, 512], wd in [0, 1], seed >= 0)
     * throw std::invalid_argument.
     */
    static FaultSpec parse(const std::string& text);

    /** Canonical one-line rendering (banner / report labels). */
    std::string describe() const;
};

/** Seeded fault source a PcmDevice consults (see file comment). */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultSpec& spec)
        : spec_(spec),
          rng_(mix64(spec.seed ^ 0xfa017ull))
    {}

    const FaultSpec& spec() const { return spec_; }

    /**
     * Stuck-cell positions for one line, appended to `out` (may contain
     * duplicates; the device skips positions already hard). Stateless in
     * everything but (seed, bank, line_key).
     */
    void stuckCellsFor(unsigned bank, std::uint64_t line_key,
                       std::vector<unsigned>& out) const;

    /** One forced-WD draw (own stream; device RNG untouched). */
    bool
    forceWdFlip()
    {
        if (spec_.wdBoost <= 0.0)
            return false;
        if (!rng_.chance(spec_.wdBoost))
            return false;
        forcedFlips_ += 1;
        return true;
    }

    std::uint64_t forcedFlips() const { return forcedFlips_; }

  private:
    FaultSpec spec_;
    Rng rng_;
    std::uint64_t forcedFlips_ = 0;
};

} // namespace sdpcm

#endif // SDPCM_VERIFY_FAULTINJECT_HH
