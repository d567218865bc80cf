/**
 * @file
 * Figure 14: performance degradation across the DIMM lifetime. As the
 * DIMM ages, stuck-at cells claim ECP entries (hard errors have
 * priority), leaving LazyCorrection fewer slots to park WD errors and
 * forcing more correction writes.
 *
 * Paper reference: ~0.2% degradation as the DIMM approaches its lifetime
 * limit — negligible against the capacity loss of an aging DIMM.
 */

#include <cmath>

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const auto [cfg, out] =
        start(args, "Figure 14: performance across the DIMM lifetime (LazyC)");

    const std::vector<double> ages = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
    const auto workloads = standardWorkloads();

    TablePrinter t({"lifetime consumed", "gmean CPI",
                    "normalised performance", "corrections/write",
                    "hard errors materialised"});
    double fresh_cpi = 0.0;
    std::vector<SchemeResults> results;
    for (const double age : ages) {
        RunnerConfig aged = cfg;
        aged.aging.ageFraction = age;
        // One label per age (as fig15 labels WQ-32): report runs stay
        // unique.
        SchemeConfig scheme = SchemeConfig::lazyC();
        scheme.name += "-age" + std::to_string(std::lround(age * 100.0));
        if (logEnabled(LogLevel::Info))
            std::fprintf(stderr, "running age %.0f%%", age * 100.0);
        results.push_back(runScheme(scheme, workloads, aged));
        if (logEnabled(LogLevel::Info))
            std::fprintf(stderr, " done\n");
        const SchemeResults& res = results.back();

        std::vector<double> cpis;
        double corr = 0.0;
        std::uint64_t hard = 0;
        for (const auto& [name, m] : res.byWorkload) {
            cpis.push_back(m.meanCpi);
            corr += m.correctionsPerWrite();
            hard += m.device.hardErrors;
        }
        const double gm = geomean(cpis);
        if (age == 0.0)
            fresh_cpi = gm;
        t.addRow({TablePrinter::pct(age, 0), TablePrinter::fmt(gm, 3),
                  TablePrinter::fmt(fresh_cpi / gm, 4),
                  TablePrinter::fmt(corr / res.byWorkload.size(), 4),
                  std::to_string(hard)});
    }
    t.print(std::cout);

    std::cout << "\n(paper: ~0.2% degradation at end of life; hard "
                 "errors consume ECP entries, shrinking LazyC's parking "
                 "space)\n";
    return finish(out, "bench_fig14", cfg, results);
}
