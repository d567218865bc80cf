#include "thermal/wd_model.hh"

#include <cmath>

#include "common/logging.hh"

namespace sdpcm {

namespace {

constexpr double kKelvinOffset = 273.15;
using Thermal = ThermalConfig;

} // namespace

WdModel::WdModel()
{
    static_assert(Thermal::resetElevationC > Thermal::calibElevationGstC,
                  "peak elevation must exceed calibration elevations");
    static_assert(Thermal::calibRateGst > Thermal::calibRateOxide,
                  "bit-line calibration rate must exceed word-line rate");

    // Fit the exponential decay so that a neighbour at the calibration
    // distance sees exactly the published elevation for each material.
    lambdaGstNm_ = Thermal::calibDistanceNm /
        std::log(Thermal::resetElevationC / Thermal::calibElevationGstC);
    lambdaOxideNm_ = Thermal::calibDistanceNm /
        std::log(Thermal::resetElevationC / Thermal::calibElevationOxideC);

    // Fit the Arrhenius law P(T) = A * exp(-B / T_K) through the two
    // published (elevation, rate) points.
    const double t1k =
        Thermal::calibElevationOxideC + Thermal::ambientC + kKelvinOffset;
    const double t2k =
        Thermal::calibElevationGstC + Thermal::ambientC + kKelvinOffset;
    arrheniusB_ = std::log(Thermal::calibRateGst / Thermal::calibRateOxide) /
        (1.0 / t1k - 1.0 / t2k);
    arrheniusA_ = Thermal::calibRateOxide * std::exp(arrheniusB_ / t1k);
}

double
WdModel::neighborElevation(double distance_nm, Material material) const
{
    SDPCM_ASSERT(distance_nm >= 0.0, "negative inter-cell distance");
    const double lambda = decayLengthNm(material);
    return Thermal::resetElevationC * std::exp(-distance_nm / lambda);
}

double
WdModel::errorRate(double elevation_c) const
{
    const double absolute_c = elevation_c + Thermal::ambientC;
    if (absolute_c < Thermal::crystallizationC)
        return 0.0;
    if (absolute_c >= Thermal::meltingC)
        return 1.0;
    const double tk = absolute_c + kKelvinOffset;
    const double rate = arrheniusA_ * std::exp(-arrheniusB_ / tk);
    return rate > 1.0 ? 1.0 : rate;
}

double
WdModel::wordLineErrorRate(const CellLayout& layout) const
{
    return wordLineErrorRateAt(layout, Thermal::featureNm);
}

double
WdModel::bitLineErrorRate(const CellLayout& layout) const
{
    return bitLineErrorRateAt(layout, Thermal::featureNm);
}

double
WdModel::wordLineErrorRateAt(const CellLayout& layout,
                             double feature_nm) const
{
    return rateAtPitch(layout.wordLinePitchF, feature_nm, Material::Oxide);
}

double
WdModel::bitLineErrorRateAt(const CellLayout& layout,
                            double feature_nm) const
{
    return rateAtPitch(layout.bitLinePitchF, feature_nm, Material::GST);
}

double
WdModel::decayLengthNm(Material material) const
{
    return material == Material::GST ? lambdaGstNm_ : lambdaOxideNm_;
}

double
WdModel::rateAtPitch(double pitch_f, double feature_nm,
                     Material material) const
{
    SDPCM_ASSERT(pitch_f >= 2.0, "pitch below the minimal 2F: ", pitch_f);
    const double distance_nm = pitch_f * feature_nm;
    return errorRate(neighborElevation(distance_nm, material));
}

} // namespace sdpcm
