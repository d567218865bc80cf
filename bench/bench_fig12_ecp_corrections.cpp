/**
 * @file
 * Figure 12: correction operations per write as the number of ECP
 * entries available to LazyCorrection grows.
 *
 * Paper reference: ECP-0 (= basic VnC) triggers ~1.8 corrections per
 * write; ECP-4 only ~0.14; ECP-6 is sufficient for everything except a
 * residual on mcf; gemsFDTD changes few bits per write and sits lowest.
 */

#include "bench_common.hh"

#include "analysis/wd_analytic.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const auto [cfg, out] =
        start(args, "Figure 12: ECP entries vs correction operations");

    const std::vector<unsigned> entries = {0, 2, 4, 6, 8, 10};
    std::vector<SchemeConfig> schemes;
    for (const unsigned n : entries) {
        SchemeConfig s = SchemeConfig::lazyC(n);
        s.name = "ECP-" + std::to_string(n);
        schemes.push_back(s);
    }
    const auto results = runMatrix(schemes, cfg);

    std::vector<std::string> headers = {"workload"};
    for (const auto& s : schemes)
        headers.push_back(s.name);
    TablePrinter t(headers);
    std::vector<RunningStat> agg(entries.size());
    for (const auto& name : workloadNames()) {
        std::vector<std::string> row = {name};
        for (std::size_t i = 0; i < results.size(); ++i) {
            const double c = results[i].at(name).correctionsPerWrite();
            agg[i].record(c);
            row.push_back(TablePrinter::fmt(c, 3));
        }
        t.addRow(row);
    }
    std::vector<std::string> arow = {"mean"};
    for (const auto& a : agg)
        arow.push_back(TablePrinter::fmt(a.mean(), 3));
    t.addRow(arow);

    // Closed-form cross-check: ~30 RESETs/write, victims rewritten
    // about as often as aggressors (hot pages cluster).
    const WdAnalytic analytic(30.0, 0.115, 0.5, 512, 0.5);
    std::vector<std::string> anrow = {"analytic"};
    for (const unsigned n : entries)
        anrow.push_back(TablePrinter::fmt(
            analytic.correctionsPerWrite(n), 3));
    t.addRow(anrow);
    t.print(std::cout);

    std::cout << "\n(corrections per completed data write; paper: ~1.8 "
                 "at ECP-0 falling to ~0.14 at ECP-4;\n the analytic row "
                 "is the Markov model of analysis/wd_analytic.hh)\n";
    return finish(out, "bench_fig12", cfg, results, "REPORT_fig12.json");
}
