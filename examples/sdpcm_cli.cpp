/**
 * @file
 * Command-line frontend for one-off simulations: pick a scheme and a
 * workload, tweak the knobs, and get the full statistics dump. Also
 * captures and replays trace files so a reference stream can be frozen
 * and compared across schemes or library versions.
 *
 * Examples:
 *   sdpcm_cli --scheme=lazyc+preread --workload=mcf --refs=20000
 *   sdpcm_cli --scheme=nm --n=2 --m=3 --workload=lbm
 *   sdpcm_cli --capture=mcf.trace --workload=mcf --refs=50000
 *   sdpcm_cli --replay=mcf.trace --scheme=baseline
 *   sdpcm_cli --scheme=sdpcm --workload=mcf \
 *             --trace=sdpcm.trace.json --epoch=100000 \
 *             --epoch-csv=sdpcm.epochs.csv
 */

#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/args.hh"
#include "common/table.hh"
#include "obs/heatmap.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "sim/parallel.hh"
#include "sim/runner.hh"
#include "workload/generators.hh"
#include "workload/trace_file.hh"

using namespace sdpcm;

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    if (args.has("help")) {
        std::cout <<
            "sdpcm_cli — run one SD-PCM simulation\n"
            "  --scheme=NAME     din|baseline|lazyc|lazyc+preread|nm|all"
            "|sdpcm|fnw\n"
            "                    (sdpcm = LazyC+PreRead+(n:m); fnw = "
            "basic VnC with\n"
            "                    Flip-N-Write instead of DIN — no WL "
            "suppression)\n"
            "  --workload=NAME   Table 3 profile (default mcf), or "
            "'all' to run\n"
            "                    every Table 3 workload as a parallel "
            "matrix\n"
            "                    (--trace, --telemetry, "
            "--telemetry-prom,\n"
            "                    --epoch-csv, --epoch-json and "
            "--heatmap* are\n"
            "                    for one run only)\n"
            "  --refs=N --seed=N --cores=N\n"
            "  --jobs=N          concurrent runs for --workload=all "
            "(0 = all\n"
            "                    host cores; results are bit-identical "
            "for any N)\n"
            "  --ecp=N --wq=N --wc=0|1 --n=N --m=M --age=F\n"
            "  --max-cancels=N   cancellation cap per write (default 4)\n"
            "  --drain-burst=N   writes retired per drain burst (clamped "
            "to\n"
            "                    [1, wq/2])\n"
            "  --capture=FILE    write the workload's trace and exit\n"
            "  --replay=FILE     run from a captured trace file\n"
            "\n"
            "observability:\n"
            "  --trace=FILE      write a Chrome trace-event JSON of bank\n"
            "                    activity (open in https://ui.perfetto.dev"
            " or\n"
            "                    chrome://tracing; ts/dur are sim ticks)\n"
            "  --epoch=N         sample controller counters every N ticks"
            "\n"
            "  --epoch-csv=FILE  write the epoch series as CSV\n"
            "  --epoch-json=FILE write the epoch series as JSON\n"
            "                    (with --epoch but no file, CSV goes to "
            "stdout)\n"
            "  --report=FILE     write a machine-readable run report "
            "(JSON;\n"
            "                    compare across runs with report_diff)\n"
            "  --spans[=FILE]    per-request span attribution: decompose"
            " every\n"
            "                    read/write latency into lifecycle phases"
            "; with\n"
            "                    FILE, write the per-phase blame summary "
            "as JSON\n"
            "  --spans-folded=FILE\n"
            "                    write collapsed stacks "
            "(scheme;kind;phase count)\n"
            "                    for flamegraph tooling (implies --spans)"
            "\n"
            "  --spans-top=N     print the top-N phases by critical "
            "cycles to\n"
            "                    stderr (implies --spans)\n"
            "  --profile[=FILE]  host-time self-profiler: hierarchical "
            "wall-clock\n"
            "                    blame for the simulator's own hot paths"
            "; prof.*\n"
            "                    metrics land in the report and FILE "
            "gets the\n"
            "                    profile JSON (tree + per-phase table)\n"
            "  --profile-top=N   print the top-N host phases by "
            "exclusive time\n"
            "                    to stderr (implies --profile)\n"
            "  --profile-folded=FILE\n"
            "                    write the profile as collapsed stacks "
            "for\n"
            "                    flamegraph tooling (implies --profile)\n"
            "  --profile-sample=N\n"
            "                    time 1 of every N root scope trees "
            "(power of\n"
            "                    two, default 64; 1 = exact, higher "
            "overhead)\n"
            "  --telemetry=FILE  stream JSONL telemetry frames during "
            "the run\n"
            "                    (summarise with telemetry_tail)\n"
            "  --telemetry-interval=N\n"
            "                    frame interval in ticks (default 100000 "
            "when any\n"
            "                    telemetry flag is given)\n"
            "  --telemetry-prom=FILE\n"
            "                    dump final Prometheus text exposition\n"
            "  --telemetry-window=N\n"
            "                    sliding-window width in frames for "
            "windowed\n"
            "                    percentiles (default 8)\n"
            "  --monitor=RULES   ';'-separated SLO rules, e.g.\n"
            "                    p99r:p99(ctrl.readLatency)<=30000;"
            "wq:gauge(ctrl.writeQueued)<=200\n"
            "                    (see obs/monitor.hh for the grammar); "
            "breaches\n"
            "                    print as warnings and land in the "
            "report\n"
            "  --watchdog=N      flag a stall when no request retires "
            "for N\n"
            "                    ticks while work is pending\n"
            "  --wd-ledger[=FILE]\n"
            "                    disturbance-provenance ledger: record "
            "every WD\n"
            "                    flip aggressor -> victim -> outcome "
            "chain; wd.*\n"
            "                    metrics land in the report and FILE "
            "gets the\n"
            "                    aggregated JSON export\n"
            "  --wd-top=N        print the top-N aggressor lines by "
            "victim flips\n"
            "                    to stderr (implies --wd-ledger)\n"
            "  --endurance=F     per-cell write endurance for the "
            "projected\n"
            "                    lifetime estimate (default 1e8; needs\n"
            "                    --line-counters or --heatmap)\n"
            "  --quiet           silence progress output (warnings, "
            "breaches and\n"
            "                    the stats dump still print)\n"
            "  --lax-flags       downgrade the unknown-option fatal to "
            "a warning\n"
            "  --line-counters   track per-line wear/WD counters\n"
            "  --heatmap=KIND    export a spatial heatmap (implies "
            "--line-counters);\n"
            "                    KIND: writes|wd|wd_absorbed|wd_corrected"
            "|ecp|wear\n"
            "  --heatmap-csv=FILE --heatmap-pgm=FILE\n"
            "                    output paths (default "
            "heatmap_<kind>.csv/.pgm)\n"
            "  --heatmap-bins=N  max row bins per bank (default 64)\n"
            "\n"
            "verification:\n"
            "  --verify-oracle   shadow every line and check all reads,\n"
            "                    verify buffers, commits and the final "
            "drain\n"
            "                    state; nonzero exit on any mismatch\n"
            "  --inject=SPEC     deterministic fault injection, SPEC is\n"
            "                    comma-separated key=value pairs:\n"
            "                    stuck=F (mean stuck cells/line), ecp=N\n"
            "                    (ECP entries stolen/line), wd=F (forced\n"
            "                    WD-flip chance), seed=N\n"
            "                    e.g. --inject=stuck=0.3,ecp=2,wd=0.02\n"
            "  --workload=qstress adversarial queue-stress mix that\n"
            "                    maximises PreRead/forwarding races\n";
        return 0;
    }

    CliRun cli = parseCliRun(args);
    RunnerConfig& cfg = cli.flags.config;
    const RunOutputs& out = cli.flags.outputs;
    const SchemeConfig& scheme = cli.scheme;
    const std::string& workload_name = cli.workload;
    const std::string capture_path = args.getString("capture", "");
    const std::string replay_path = args.getString("replay", "");
    cfg.tracePath = args.getString("trace", "");
    cfg.epochTicks = args.get<Tick>("epoch", 0);
    const std::string epoch_csv_path = args.getString("epoch-csv", "");
    const std::string epoch_json_path = args.getString("epoch-json", "");
    const bool want_heatmap = args.has("heatmap");
    cfg.lineCounters = args.getBool("line-counters", false) || want_heatmap;
    HeatmapKind heatmap_kind = HeatmapKind::Writes;
    try {
        heatmap_kind =
            heatmapKindByName(args.getString("heatmap", "writes"));
    } catch (const std::invalid_argument& e) {
        SDPCM_FATAL(e.what());
    }
    const std::string heatmap_base =
        "heatmap_" + std::string(heatmapKindName(heatmap_kind));
    const std::string heatmap_csv =
        args.getString("heatmap-csv", heatmap_base + ".csv");
    const std::string heatmap_pgm =
        args.getString("heatmap-pgm", heatmap_base + ".pgm");
    const auto heatmap_bins = args.get<unsigned>("heatmap-bins", 64, 1);

    // All supported flags have been read; a typo'd option fails fast
    // here instead of silently no-oping.
    args.finishParsing();

    if (args.has("capture")) {
        const WorkloadSpec spec = workloadFromProfile(workload_name);
        auto stream = spec.makeStream(0, cfg.seed);
        TraceFileWriter writer(capture_path);
        const auto written = writer.capture(*stream, cfg.refsPerCore);
        std::cout << "captured " << written << " records of '"
                  << workload_name << "' to " << capture_path << "\n";
        return 0;
    }

    // --report=FILE: one run per workload, as the benches write it.
    const auto write_report = [&](const OutputGroup& group) {
        if (out.report.value_or("").empty())
            return;
        RunReport report;
        report.bench = "sdpcm_cli";
        report.config = cfg;
        for (const RunMetrics* m : group.runs)
            report.addRun(*m);
        writeOutputFile(*out.report, "report",
                        [&](std::ostream& os) { report.write(os); });
    };

    if (workload_name == "all" && !args.has("replay")) {
        // Matrix mode: the scheme over every Table 3 workload, fanned
        // out across --jobs workers with ordered progress on stderr.
        for (const char* flag :
             {"trace", "telemetry", "telemetry-prom", "epoch-csv",
              "epoch-json", "heatmap", "heatmap-csv", "heatmap-pgm",
              "heatmap-bins"}) {
            if (args.has(flag)) {
                SDPCM_FATAL("--", flag, " is for one run; --workload=all "
                            "runs one per workload");
            }
        }
        const auto workloads = standardWorkloads();
        if (logEnabled(LogLevel::Info)) {
            std::cout << "scheme " << scheme.name << ", "
                      << workloads.size() << " workloads, " << cfg.cores
                      << " cores x " << cfg.refsPerCore << " refs, "
                      << resolveJobs(cfg.jobs) << " jobs\n\n";
        }
        const auto results = runMatrix(
            {scheme}, workloads, cfg, [](const MatrixProgress& p) {
                if (!logEnabled(LogLevel::Info))
                    return;
                std::fprintf(stderr, "[%3zu/%3zu] %s\n", p.done,
                             p.total, p.workload.c_str());
            });
        TablePrinter t({"workload", "meanCpi", "writes", "corrections",
                        "corr/write", "p99 read lat"});
        std::uint64_t oracle_mismatches = 0;
        for (const auto& w : workloads) {
            const RunMetrics& m = results.front().at(w.name);
            oracle_mismatches += m.oracle.mismatches;
            t.addRow({w.name, TablePrinter::fmt(m.meanCpi, 3),
                      TablePrinter::fmt(
                          static_cast<double>(m.ctrl.writesCompleted), 0),
                      TablePrinter::fmt(
                          static_cast<double>(m.ctrl.correctionWrites),
                          0),
                      TablePrinter::fmt(m.correctionsPerWrite(), 4),
                      TablePrinter::fmt(
                          m.ctrl.readLatency.percentile(0.99), 0)});
        }
        t.print(std::cout);
        const std::string label = scheme.name + "/all";
        OutputGroup all{label, scheme.name, {}};
        for (const auto& w : workloads)
            all.runs.push_back(&results.front().at(w.name));
        writeObserverOutputs(out, cfg, "sdpcm_cli", label, {all}, true);
        write_report(all);
        if (cfg.verifyOracle) {
            std::cout << "\noracle: " << oracle_mismatches
                      << " mismatch(es) across " << workloads.size()
                      << " workloads\n";
            if (oracle_mismatches > 0)
                return 1;
        }
        return 0;
    }

    WorkloadSpec spec;
    if (args.has("replay")) {
        spec.name = "replay:" + replay_path;
        spec.makeStream = [replay_path](unsigned, std::uint64_t) {
            return std::make_unique<TraceFileStream>(replay_path);
        };
    } else {
        spec = workloadFromProfile(workload_name);
    }

    if (logEnabled(LogLevel::Info)) {
        std::cout << "scheme " << scheme.name << ", workload "
                  << spec.name << ", " << cfg.cores << " cores x "
                  << cfg.refsPerCore << " refs";
        if (cfg.faults.any())
            std::cout << ", inject " << cfg.faults.describe();
        std::cout << "\n\n";
    }
    const RunMetrics m = runOne(scheme, spec, cfg);
    m.toSnapshot().dump(std::cout);

    if (!cfg.tracePath.empty()) {
        SDPCM_PROGRESS("trace written to ", cfg.tracePath,
                       " (load in https://ui.perfetto.dev)");
    }
    if (m.telemetry.enabled) {
        std::cout << "\ntelemetry: " << m.telemetry.frames
                  << " frames every " << m.telemetry.intervalTicks
                  << " ticks, " << m.telemetry.breaches
                  << " SLO breach(es), " << m.telemetry.watchdogStalls
                  << " watchdog stall(s)\n";
        if (!cfg.telemetry.path.empty()) {
            SDPCM_PROGRESS("telemetry stream written to ",
                           cfg.telemetry.path);
        }
        if (!cfg.telemetry.promPath.empty()) {
            SDPCM_PROGRESS("prometheus exposition written to ",
                           cfg.telemetry.promPath);
        }
    }
    if (m.epochs.enabled()) {
        const std::string what = "epoch series (" +
            std::to_string(m.epochs.samples.size()) + " samples)";
        writeOutputFile(epoch_csv_path, what,
                        [&](std::ostream& os) { m.epochs.dumpCsv(os); });
        writeOutputFile(epoch_json_path, what,
                        [&](std::ostream& os) { m.epochs.dumpJson(os); });
        if (epoch_csv_path.empty() && epoch_json_path.empty()) {
            std::cout << "\n";
            m.epochs.dumpCsv(std::cout);
        }
    }
    if (want_heatmap) {
        const Heatmap map = buildHeatmap(
            m.lines, heatmap_kind, DimmGeometry::banks(),
            DimmGeometry::linesPerRow(), heatmap_bins);
        std::ostringstream what;
        what << "heatmap (" << heatmapKindName(heatmap_kind) << ", "
             << map.banks << " banks x " << map.rowBins << " row bins x "
             << map.lines << " lines)";
        writeOutputFile(heatmap_csv, what.str(), [&](std::ostream& os) {
            writeHeatmapCsv(map, os);
        });
        writeOutputFile(heatmap_pgm, "heatmap image", [&](std::ostream& os) {
            writeHeatmapPgm(map, os);
        });
    }
    const std::string label = scheme.name + "/" + spec.name;
    const OutputGroup run{label, scheme.name, {&m}};
    writeObserverOutputs(out, cfg, "sdpcm_cli", label, {run}, true);
    if (cfg.wdLedger) {
        std::cout << "\nwd ledger: " << m.wd.flips() << " flips ("
                  << m.wd.flipsWl << " wl / " << m.wd.flipsBl
                  << " bl), " << m.wd.flipsFromCorrection
                  << " by corrections, " << m.wd.outstanding
                  << " outstanding, " << m.wd.blame.size()
                  << " aggressor line(s)\n";
    }
    write_report(run);
    if (m.oracle.enabled) {
        std::cout << "\noracle: " << m.oracle.mismatches
                  << " mismatch(es); checked " << m.oracle.readsChecked
                  << " reads, " << m.oracle.commitsChecked
                  << " commits, " << m.oracle.finalLinesChecked
                  << " final lines\n";
        if (m.oracle.mismatches > 0) {
            std::cout << "(re-run with --trace=FILE for per-mismatch "
                         "oracle_mismatch instants)\n";
            return 1;
        }
    }
    return 0;
}
