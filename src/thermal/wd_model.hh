/**
 * @file
 * Thermal write-disturbance model.
 *
 * Reproduces the modelling pipeline of Section 2.2.2 of the SD-PCM paper:
 * a PCM cell thermal model (inter-cell temperature elevation during one
 * RESET), a cell scaling model (feature size -> physical pitch), and a
 * thermal disturbance model (temperature -> bit error rate).
 *
 * The paper relies on a finite-element model published with DIN (DSN'14);
 * we substitute an analytical model with the same observable behaviour:
 *
 *  - Heat decays exponentially with distance, with a longer decay length
 *    through the GST rail shared by cells of one bit-line (uTrench
 *    structure) than through the oxide separating word-line neighbours.
 *  - Crystallisation of an idle amorphous cell follows an Arrhenius law in
 *    absolute temperature, gated by the crystallisation threshold (a cell
 *    below ~300C cannot crystallise at all) and capped below melting.
 *
 * Both laws are calibrated from the paper's published operating points
 * (Table 1): at F = 20nm and minimal 2F pitch (40nm cell-to-cell), the
 * word-line neighbour reaches a 310C elevation and is disturbed with
 * probability 9.9%, while the bit-line neighbour reaches 320C and is
 * disturbed with probability 11.5%. The calibration is performed in the
 * constructor, so Table 1 is reproduced exactly by construction and other
 * geometries/feature sizes interpolate on the calibrated laws.
 */

#ifndef SDPCM_THERMAL_WD_MODEL_HH
#define SDPCM_THERMAL_WD_MODEL_HH

namespace sdpcm {

/** Inter-cell material along a disturbance path. */
enum class Material
{
    GST,   //!< chalcogenide rail along a bit-line (uTrench)
    Oxide, //!< dielectric between adjacent bit-lines (word-line direction)
};

/**
 * Physical cell layout expressed in units of the feature size F.
 *
 * The pitch is the centre-to-centre distance between adjacent cells in the
 * given direction; the minimal (densest) pitch is 2F.
 */
struct CellLayout
{
    double wordLinePitchF; //!< pitch between word-line neighbours, in F
    double bitLinePitchF;  //!< pitch between bit-line neighbours, in F

    /** Cell footprint in units of F^2 (pitch product). */
    double
    cellAreaF2() const
    {
        return wordLinePitchF * bitLinePitchF;
    }
};

/** Ideal super dense array, Figure 1(a): 4F^2/cell. */
inline constexpr CellLayout kLayoutSuperDense{2.0, 2.0};
/** DIN-enhanced array, Figure 1(c): dense word-lines only, 8F^2/cell. */
inline constexpr CellLayout kLayoutDin{2.0, 4.0};
/** WD-free prototype chip, Figure 1(b): 12F^2/cell. */
inline constexpr CellLayout kLayoutPrototype{3.0, 4.0};

/** Calibration and physical constants of the disturbance model. */
struct ThermalConfig
{
    static constexpr double featureNm = 20.0;        //!< technology node F
    static constexpr double ambientC = 30.0;         //!< die ambient
    static constexpr double crystallizationC = 300.0; //!< threshold
    static constexpr double meltingC = 600.0;        //!< GST melting point

    // Calibration points from Table 1 (40nm cell-to-cell distance).
    static constexpr double calibDistanceNm = 40.0;
    static constexpr double calibElevationOxideC = 310.0; //!< word-line
    static constexpr double calibElevationGstC = 320.0;   //!< bit-line
    static constexpr double calibRateOxide = 0.099; //!< SLC rate at 310C
    static constexpr double calibRateGst = 0.115;   //!< SLC rate at 320C

    /** Peak temperature elevation at the disturbing cell during RESET. */
    static constexpr double resetElevationC = 620.0;
};

/**
 * The combined thermal + scaling + disturbance model.
 *
 * All rates are per (RESET pulse, vulnerable neighbour cell): the neighbour
 * must be idle and hold bit '0' (fully amorphous) to be vulnerable at all;
 * callers apply that data-pattern gating (Section 2.2.1).
 */
class WdModel
{
  public:
    WdModel();

    /**
     * Temperature elevation (C above ambient) experienced by a neighbour
     * at centre-to-centre distance `distance_nm` through `material` while
     * the source cell is RESET.
     */
    double neighborElevation(double distance_nm, Material material) const;

    /**
     * Disturbance probability for an idle amorphous cell whose temperature
     * is elevated by `elevation_c` above ambient. Zero below the
     * crystallisation threshold; Arrhenius above it; 1.0 above melting
     * (the amorphous dome would fully collapse).
     */
    double errorRate(double elevation_c) const;

    /** Error rate for the word-line neighbour of a RESET cell. */
    double wordLineErrorRate(const CellLayout& layout) const;
    /** Error rate for the bit-line neighbour of a RESET cell. */
    double bitLineErrorRate(const CellLayout& layout) const;

    /** Same queries at an explicit feature size (scaling studies). */
    double wordLineErrorRateAt(const CellLayout& layout,
                               double feature_nm) const;
    double bitLineErrorRateAt(const CellLayout& layout,
                              double feature_nm) const;

    /** Exponential decay length through the material, nm. */
    double decayLengthNm(Material material) const;

  private:
    double rateAtPitch(double pitch_f, double feature_nm,
                       Material material) const;

    double lambdaGstNm_;   //!< decay length through GST
    double lambdaOxideNm_; //!< decay length through oxide
    double arrheniusA_;    //!< pre-exponential factor
    double arrheniusB_;    //!< activation ratio Ea/k, in Kelvin
};

} // namespace sdpcm

#endif // SDPCM_THERMAL_WD_MODEL_HH
