/**
 * @file
 * Figure 5: runtime overhead of basic VnC, attributed to verification
 * and correction.
 *
 * Three configurations isolate the attribution: full VnC; VnC whose
 * correction operations occupy the bank for zero cycles (leaving the
 * verification cost); and the WD-free DIN comparator. All run the same
 * functional protocol, only the charged latencies differ.
 *
 * Paper reference: ~19% verification overhead, ~28% correction overhead,
 * ~47% total performance loss.
 */

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const auto [cfg, out] = start(args, "Figure 5: VnC overhead at runtime");

    SchemeConfig verify_only = SchemeConfig::baselineVnc();
    verify_only.name = "VnC (verification cost only)";
    verify_only.chargeCorrectionOps = false;

    const auto results = runMatrix(
        {SchemeConfig::din8F2(), verify_only,
         SchemeConfig::baselineVnc()},
        cfg);
    const auto& din = results[0];
    const auto& verif = results[1];
    const auto& full = results[2];

    TablePrinter t({"workload", "perf w/ verification", "perf w/ VnC",
                    "verify ovh", "correction ovh", "total ovh"});
    std::vector<double> v_perf, f_perf;
    for (const auto& name : workloadNames()) {
        const double din_cpi = din.at(name).meanCpi;
        const double pv = din_cpi / verif.at(name).meanCpi;
        const double pf = din_cpi / full.at(name).meanCpi;
        v_perf.push_back(pv);
        f_perf.push_back(pf);
        t.addRow({name, TablePrinter::fmt(pv, 3),
                  TablePrinter::fmt(pf, 3), TablePrinter::pct(1.0 - pv),
                  TablePrinter::pct(pv - pf),
                  TablePrinter::pct(1.0 - pf)});
    }
    const double gv = geomean(v_perf);
    const double gf = geomean(f_perf);
    t.addRow({"gmean", TablePrinter::fmt(gv, 3),
              TablePrinter::fmt(gf, 3), TablePrinter::pct(1.0 - gv),
              TablePrinter::pct(gv - gf), TablePrinter::pct(1.0 - gf)});
    t.print(std::cout);

    std::cout << "\n(performance normalised to the WD-free DIN design; "
                 "paper: ~19% verify + ~28% correction = ~47% loss)\n";
    return finish(out, "bench_fig5", cfg, results);
}
