/**
 * @file
 * Figures 17 & 18: normalised lifetime of the data chips and of the ECP
 * chip under SD-PCM (LazyC, ECP-6).
 *
 * Model (documented in EXPERIMENTS.md):
 *  - data chips wear by programmed cells; corrections (and the DIN
 *    check-and-rewrite repairs) add `correctionCellWrites` on top of
 *    `normalCellWrites`:   L_data = normal / (normal + correction).
 *  - the ECP chip wears by the differential bit writes of entry updates
 *    (a fresh WD record touches up to 10 bits: 9 address + 1 value). Its
 *    non-WD baseline wear rate is taken as 1/10 of the data-chip rate
 *    (the paper: "without considering WD, ECP chip exhibits 10x longer
 *    lifetime than data chip"): L_ecp = base / (base + ecpBits).
 *
 * Paper reference: data chips ~0.04% degradation; ECP chip ~8% on
 * average; the DIMM lifetime stays data-chip-bound.
 */

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const auto [cfg, out] =
        start(args, "Figures 17/18: normalised lifetime "
                    "(data chips / ECP chip)");

    const auto all = runMatrix({SchemeConfig::lazyC()}, cfg);
    const auto& results = all.front();

    TablePrinter t({"workload", "data-chip lifetime", "ECP-chip lifetime",
                    "ECP/data wear headroom", "wd bits per write"});
    RunningStat data_all, ecp_all;
    for (const auto& name : workloadNames()) {
        const auto& d = results.at(name).device;
        const double normal = static_cast<double>(d.normalCellWrites);
        const double corr = static_cast<double>(d.correctionCellWrites);
        const double l_data = normal > 0 ? normal / (normal + corr) : 1.0;

        const double ecp_base = (normal + corr) / 10.0;
        const double ecp_bits = static_cast<double>(d.ecpBitsWritten);
        const double l_ecp = ecp_base > 0
            ? ecp_base / (ecp_base + ecp_bits) : 1.0;

        // Remaining headroom of the ECP chip over the data chips.
        const double headroom = ecp_bits + ecp_base > 0
            ? (normal + corr) / (ecp_bits + ecp_base) : 10.0;
        const double per_write = d.lineWrites
            ? ecp_bits / static_cast<double>(d.lineWrites) : 0.0;

        data_all.record(l_data);
        ecp_all.record(l_ecp);
        t.addRow({name, TablePrinter::pct(l_data, 3),
                  TablePrinter::pct(l_ecp, 1),
                  TablePrinter::fmt(headroom, 1) + "x",
                  TablePrinter::fmt(per_write, 1)});
    }
    t.addRow({"mean", TablePrinter::pct(data_all.mean(), 3),
              TablePrinter::pct(ecp_all.mean(), 1), "-", "-"});
    t.print(std::cout);

    std::cout << "\nThe DIMM stays data-chip-bound while the ECP/data "
                 "headroom stays above 1x.\n"
                 "Paper reference: data ~99.96%, ECP ~92% (see "
                 "EXPERIMENTS.md for the accounting discussion).\n";
    return finish(out, "bench_fig17_18", cfg, all);
}
