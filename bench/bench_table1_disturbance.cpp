/**
 * @file
 * Table 1: disturbance probability for 4F^2 cells — the calibrated
 * thermal model's temperature elevations and SLC error rates, plus the
 * Figure 1 cell-size variants and a technology-scaling sweep.
 */

#include <iostream>

#include "common/table.hh"
#include "thermal/wd_model.hh"

using namespace sdpcm;

int
main()
{
    WdModel model;
    constexpr double feature_nm = ThermalConfig::featureNm;

    std::cout << "=== Table 1: Disturbance probability for 4F^2 cells"
                 " (F = " << feature_nm << "nm) ===\n\n";

    TablePrinter t1({"Between two cells along", "Temp rise",
                     "Error rate (SLC)"});
    t1.addRow({"Word-line",
               TablePrinter::fmt(
                   model.neighborElevation(2 * feature_nm,
                                           Material::Oxide), 0) + " C",
               TablePrinter::pct(model.wordLineErrorRate(
                   kLayoutSuperDense))});
    t1.addRow({"Bit-line",
               TablePrinter::fmt(
                   model.neighborElevation(2 * feature_nm,
                                           Material::GST), 0) + " C",
               TablePrinter::pct(model.bitLineErrorRate(
                   kLayoutSuperDense))});
    t1.print(std::cout);

    std::cout << "\n--- Figure 1 cell-array variants ---\n\n";
    TablePrinter t2({"layout", "cell size", "WL rate", "BL rate"});
    const struct
    {
        const char* name;
        CellLayout layout;
    } variants[] = {
        {"super dense (Fig 1a)", kLayoutSuperDense},
        {"DIN-enhanced (Fig 1c)", kLayoutDin},
        {"prototype chip (Fig 1b)", kLayoutPrototype},
    };
    for (const auto& v : variants) {
        t2.addRow({v.name,
                   TablePrinter::fmt(v.layout.cellAreaF2(), 0) + "F^2",
                   TablePrinter::pct(model.wordLineErrorRate(v.layout)),
                   TablePrinter::pct(model.bitLineErrorRate(v.layout))});
    }
    t2.print(std::cout);

    std::cout << "\n--- Scaling sweep at minimal 2F pitch ---\n\n";
    TablePrinter t3({"node (nm)", "WL elevation", "BL elevation",
                     "WL rate", "BL rate"});
    for (const double f : {54.0, 40.0, 28.0, 24.0, 20.0, 16.0, 14.0}) {
        t3.addRow({TablePrinter::fmt(f, 0),
                   TablePrinter::fmt(
                       model.neighborElevation(2 * f, Material::Oxide),
                       0) + " C",
                   TablePrinter::fmt(
                       model.neighborElevation(2 * f, Material::GST),
                       0) + " C",
                   TablePrinter::pct(
                       model.wordLineErrorRateAt(kLayoutSuperDense, f)),
                   TablePrinter::pct(
                       model.bitLineErrorRateAt(kLayoutSuperDense, f))});
    }
    t3.print(std::cout);

    std::cout << "\nPaper reference: 310C -> 9.9% (word-line), "
                 "320C -> 11.5% (bit-line) at 20nm.\n";
    return 0;
}
