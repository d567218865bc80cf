/**
 * @file
 * Figure 19: integrating SD-PCM with write cancellation (Qureshi et al.,
 * HPCA'10). A real read may cancel an in-flight write or pre-write read;
 * the partially programmed line re-queues and its disturbance stays.
 *
 * Paper reference: WC alone improves basic VnC only modestly (VnC writes
 * are long and repeats add disturbance); WC+LazyC lifts LazyC's ~21%
 * gain to ~31% — the two exploit different effects.
 */

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const auto [cfg, out] =
        start(args, "Figure 19: LazyC with write cancellation");

    SchemeConfig wc = SchemeConfig::baselineVnc();
    wc.name = "WC";
    wc.writeCancellation = true;

    SchemeConfig wc_lazy = SchemeConfig::lazyC();
    wc_lazy.name = "WC+LazyC";
    wc_lazy.writeCancellation = true;

    const std::vector<SchemeConfig> schemes = {
        SchemeConfig::baselineVnc(), wc, SchemeConfig::lazyC(), wc_lazy};
    const auto results = runMatrix(schemes, cfg);
    const auto& baseline = results[0];

    std::vector<std::string> headers = {"workload"};
    for (const auto& s : schemes)
        headers.push_back(s.name);
    headers.push_back("cancels (WC+LazyC)");
    TablePrinter t(headers);
    for (const auto& name : workloadNames()) {
        std::vector<std::string> row = {name};
        for (const auto& r : results) {
            row.push_back(TablePrinter::fmt(
                baseline.at(name).meanCpi / r.at(name).meanCpi, 3));
        }
        row.push_back(std::to_string(
            results[3].at(name).ctrl.writeCancellations));
        t.addRow(row);
    }
    std::vector<std::string> grow = {"gmean"};
    for (const auto& r : results)
        grow.push_back(TablePrinter::fmt(
            speedups(baseline, r).at("gmean"), 3));
    grow.push_back("-");
    t.addRow(grow);
    t.print(std::cout);

    std::cout << "\n(normalised to basic VnC; paper: VnC 1.0, WC a bit "
                 "above, LazyC ~1.21, WC+LazyC ~1.31)\n";
    return finish(out, "bench_fig19", cfg, results);
}
