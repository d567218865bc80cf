#include "common/rng.hh"

#include <cmath>

namespace sdpcm {

double
Rng::gaussian()
{
    if (cachedGaussianValid_) {
        cachedGaussianValid_ = false;
        return cachedGaussian_;
    }
    double u1 = uniform();
    double u2 = uniform();
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cachedGaussian_ = radius * std::sin(angle);
    cachedGaussianValid_ = true;
    return radius * std::cos(angle);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(gaussian(mu, sigma));
}

} // namespace sdpcm
