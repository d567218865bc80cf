/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behaviour in the simulator (disturbance draws, synthetic
 * workload generation, endurance variation, lazily-materialised memory
 * contents) flows through Rng so that runs are exactly reproducible from a
 * seed. The generator is xoshiro256** seeded through splitmix64, which is
 * both fast and statistically strong enough for Monte-Carlo use.
 */

#ifndef SDPCM_COMMON_RNG_HH
#define SDPCM_COMMON_RNG_HH

#include <array>
#include <cmath>
#include <cstdint>

namespace sdpcm {

/** splitmix64 step; used for seeding and for stateless address hashing. */
inline std::uint64_t
splitmix64(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Stateless 64-bit mix of a value; deterministic content hashing. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    return splitmix64(x);
}

/** xoshiro256** pseudo-random generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5dca11ab1e5eedULL)
    {
        reseed(seed);
    }

    /** Re-initialise the state from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t sm = seed;
        for (auto& word : state_)
            word = splitmix64(sm);
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free reduction is fine here:
        // the tiny modulo bias is irrelevant for simulation statistics.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next64()) * bound) >> 64);
    }

    /** Bernoulli draw with probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * chance(p) for a fixed p with the float work done once: it draws
     * exactly when chance(p) would and returns the same result, since
     * uniform() < p holds iff the 53-bit draw is below ceil(p * 2^53).
     */
    class Chance
    {
      public:
        explicit Chance(double p)
            : always_(p >= 1.0),
              draws_(!(p <= 0.0) && !always_),
              threshold_(p > 0.0 && p < 1.0
                             ? static_cast<std::uint64_t>(
                                   std::ceil(p * 0x1.0p53))
                             : 0)
        {}

        bool
        operator()(Rng& rng) const
        {
            if (!draws_)
                return always_;
            return (rng.next64() >> 11) < threshold_;
        }

      private:
        bool always_;
        bool draws_;
        std::uint64_t threshold_;
    };

    /** Geometric draw: number of failures before first success, prob p. */
    std::uint64_t
    geometric(double p)
    {
        if (p >= 1.0)
            return 0;
        if (p <= 0.0)
            return ~0ULL;
        return geometricLog(std::log1p(-p));
    }

    /**
     * geometric(p) for a fixed p with log1p(-p) taken once: it draws
     * exactly when geometric(p) would and returns the same value, since
     * every draw divides by the same double.
     */
    class Geometric
    {
      public:
        explicit Geometric(double p)
            : draws_(!(p >= 1.0) && !(p <= 0.0)),
              fixed_(p >= 1.0 ? 0 : ~0ULL),
              logQ_(draws_ ? std::log1p(-p) : 0.0)
        {}

        std::uint64_t
        operator()(Rng& rng) const
        {
            return draws_ ? rng.geometricLog(logQ_) : fixed_;
        }

      private:
        bool draws_;
        std::uint64_t fixed_; //!< the result when nothing is drawn
        double logQ_;         //!< log1p(-p)
    };

    /**
     * Poisson draw (Knuth's product of uniforms), for the small means
     * of stuck-cell counts. It draws once even when mean <= 0, so
     * callers that must leave the stream untouched skip the call.
     */
    unsigned
    poisson(double mean)
    {
        const double limit = std::exp(-mean);
        unsigned count = 0;
        double product = uniform();
        while (product > limit) {
            ++count;
            product *= uniform();
        }
        return count;
    }

  private:
    /** A geometric draw given log_q = log1p(-p), for 0 < p < 1. */
    std::uint64_t
    geometricLog(double log_q)
    {
        // Inverse-CDF sampling: floor(ln(u) / ln(1-p)).
        double u = uniform();
        if (u <= 0.0)
            u = 0x1.0p-53;
        return static_cast<std::uint64_t>(std::log(u) / log_q);
    }

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

} // namespace sdpcm

#endif // SDPCM_COMMON_RNG_HH
