/**
 * @file
 * Figure 4: WD errors when writing a PCM line in super dense PCM
 * (4F^2/cell) with differential write + DIN.
 *
 *   (a) manifested errors within the same word-line (avg/max per write)
 *   (b) manifested errors in one adjacent PCM line (avg/max per write)
 *
 * Paper reference: word-line errors well mitigated (avg ~0.4); one write
 * produces up to 9 WD errors in one adjacent 64B line (avg ~2), which is
 * why plain ECC is hopeless and VnC is needed.
 */

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const auto [cfg, out] =
        start(args, "Figure 4: WD errors per line write (diff-write + DIN)");

    const auto all = runMatrix({SchemeConfig::baselineVnc()}, cfg);
    const auto& results = all.front();

    TablePrinter t({"workload", "word-line avg", "word-line max",
                    "adjacent-line avg", "adjacent-line max",
                    "P(adj >= 5)"});
    RunningStat wl_all, bl_all;
    for (const auto& name : workloadNames()) {
        const auto& m = results.at(name);
        const auto& wl = m.device.wlErrorsPerWrite;
        const auto& bl = m.device.blErrorsPerAdjacentLine;
        wl_all.merge(wl);
        bl_all.merge(bl);
        t.addRow({name, TablePrinter::fmt(wl.mean(), 2),
                  TablePrinter::fmt(wl.max(), 0),
                  TablePrinter::fmt(bl.mean(), 2),
                  TablePrinter::fmt(bl.max(), 0),
                  TablePrinter::pct(
                      m.device.blErrorHistogram.tailFraction(5), 2)});
    }
    t.addRow({"ALL", TablePrinter::fmt(wl_all.mean(), 2),
              TablePrinter::fmt(wl_all.max(), 0),
              TablePrinter::fmt(bl_all.mean(), 2),
              TablePrinter::fmt(bl_all.max(), 0), "-"});
    t.print(std::cout);

    std::cout << "\nPaper reference: (a) word-line avg ~0.4; (b) up to 9 "
                 "errors in one adjacent 64B line.\n";
    return finish(out, "bench_fig4", cfg, all);
}
