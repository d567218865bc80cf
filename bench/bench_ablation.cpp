/**
 * @file
 * Ablation studies for the modelling choices DESIGN.md calls out:
 *
 *  1. write-driver organisation: fixed per-position windows (default)
 *     vs pooled drivers;
 *  2. the DIN word-line encoder: modelled full-DIN efficacy vs the
 *     group-inversion encoder alone (residual factor 1.0);
 *  3. the cost charged for LazyCorrection's ECP chip update: overlapped
 *     (0 cycles) vs a serialised RESET pulse (400);
 *  4. the drain low watermark: drain-until-empty vs half-queue.
 *
 * Run on a write-heavy subset (gemsFDTD, lbm, zeusmp, mcf) where the
 * choices matter.
 */

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

namespace {

std::vector<WorkloadSpec>
writeHeavy()
{
    return {workloadFromProfile("gemsFDTD"), workloadFromProfile("lbm"),
            workloadFromProfile("zeusmp"), workloadFromProfile("mcf")};
}

double
gmeanCpi(const SchemeResults& r)
{
    std::vector<double> cpis;
    for (const auto& [name, m] : r.byWorkload)
        cpis.push_back(m.meanCpi);
    return geomean(cpis);
}

} // namespace

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const auto [cfg, out] =
        start(args, "Ablation studies (write-heavy subset)", 6000);
    const auto workloads = writeHeavy();

    TablePrinter t({"variant", "gmean CPI (DIN)", "gmean CPI (baseline)",
                    "gmean CPI (LazyC)", "baseline/DIN",
                    "avg BL err/adj-line"});

    // Every run is kept for finish(). A variant's runs are labelled
    // "<scheme>-<tag>" (as fig15 labels WQ-32), so report runs stay
    // unique; the default model's runs keep the plain scheme names.
    std::vector<SchemeResults> results;
    const auto run = [&](SchemeConfig scheme, const std::string& tag,
                         const RunnerConfig& variant) {
        if (!tag.empty())
            scheme.name += "-" + tag;
        results.push_back(runScheme(scheme, workloads, variant));
        return gmeanCpi(results.back());
    };
    auto run_variant = [&](const std::string& name, const std::string& tag,
                           const RunnerConfig& variant) {
        if (logEnabled(LogLevel::Info))
            std::fprintf(stderr, "variant %-32s", name.c_str());
        const double din = run(SchemeConfig::din8F2(), tag, variant);
        const double base = run(SchemeConfig::baselineVnc(), tag, variant);
        RunningStat bl;
        for (const auto& [wname, m] : results.back().byWorkload)
            bl.record(m.device.blErrorsPerAdjacentLine.mean());
        const double lazy = run(SchemeConfig::lazyC(), tag, variant);
        if (logEnabled(LogLevel::Info))
            std::fprintf(stderr, " done\n");
        t.addRow({name, TablePrinter::fmt(din, 2),
                  TablePrinter::fmt(base, 2), TablePrinter::fmt(lazy, 2),
                  TablePrinter::fmt(base / din, 2),
                  TablePrinter::fmt(bl.mean(), 2)});
        return std::make_pair(base, lazy);
    };

    // The controller-knob table below compares against these runs.
    const auto [base_default, lazy_default] =
        run_variant("default model", "", cfg);
    {
        RunnerConfig v = cfg;
        v.timing.windowed = false;
        run_variant("pooled write drivers", "pooled", v);
    }
    {
        RunnerConfig v = cfg;
        v.din.modeledResidualFactor = 1.0;
        run_variant("inversion-only DIN (no modelled residual)",
                    "inversion-only", v);
    }
    {
        RunnerConfig v = cfg;
        v.din.groupBits = 8;
        v.din.vulnWeight = 4;
        run_variant("DIN 8-bit groups, weight 4", "din8w4", v);
    }
    t.print(std::cout);

    // Scheme-level knobs (ECP update cost, drain watermark).
    std::cout << "\n--- controller knobs (LazyC / baseline) ---\n\n";
    TablePrinter t2({"variant", "gmean CPI", "vs default"});
    t2.addRow({"LazyC, overlapped ECP update (default)",
               TablePrinter::fmt(lazy_default, 2), "1.000"});
    {
        SchemeConfig s = SchemeConfig::lazyC();
        s.ecpUpdateCycles = 400;
        const double v = run(s, "ecp400", cfg);
        t2.addRow({"LazyC, serialised ECP update (400cyc)",
                   TablePrinter::fmt(v, 2),
                   TablePrinter::fmt(lazy_default / v, 3)});
    }
    t2.addRow({"baseline, 16-write drain bursts (default)",
               TablePrinter::fmt(base_default, 2), "1.000"});
    for (const unsigned burst : {4u, 64u}) {
        SchemeConfig s = SchemeConfig::baselineVnc();
        s.drainBurstWrites = burst;
        const double v =
            run(s, "burst" + std::to_string(burst), cfg);
        t2.addRow({"baseline, " + std::to_string(burst) +
                       "-write drain bursts",
                   TablePrinter::fmt(v, 2),
                   TablePrinter::fmt(base_default / v, 3)});
    }
    t2.print(std::cout);
    return finish(out, "bench_ablation", cfg, results);
}
