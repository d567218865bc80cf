/**
 * @file
 * Tests for the parallel run-matrix executor: serial degeneration,
 * index coverage, exception propagation, bit-identical matrix results at
 * any jobs value, and a determinism regression guard that runs the same
 * configuration twice concurrently.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "sim/parallel.hh"
#include "sim/runner.hh"

namespace sdpcm {
namespace {

TEST(ParallelFor, JobsOneDegeneratesToSerialOrder)
{
    std::vector<std::size_t> order;
    parallelFor(1, 10, [&order](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, CoversAllIndicesAndPropagates)
{
    std::vector<std::atomic<int>> hits(100);
    parallelFor(4, hits.size(),
                [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);

    // Every index is attempted: the 7 that do not throw all run before
    // the first exception is rethrown.
    std::vector<std::atomic<int>> ran(8);
    EXPECT_THROW(parallelFor(4, ran.size(),
                             [&ran](std::size_t i) {
                                 if (i == 3)
                                     throw std::runtime_error("boom");
                                 ran[i].fetch_add(1);
                             }),
                 std::runtime_error);
    for (std::size_t i = 0; i < ran.size(); ++i)
        EXPECT_EQ(ran[i].load(), i == 3 ? 0 : 1) << i;
}

TEST(ParallelMatrix, BitIdenticalToSerial)
{
    RunnerConfig cfg;
    cfg.refsPerCore = 600;
    cfg.cores = 2;
    const std::vector<SchemeConfig> schemes = {
        SchemeConfig::baselineVnc(), SchemeConfig::lazyCPreRead(),
        SchemeConfig::sdpcm()};
    const std::vector<WorkloadSpec> workloads = {
        workloadFromProfile("mcf"), workloadFromProfile("wrf"),
        workloadFromProfile("xalan"), workloadFromProfile("stream")};

    cfg.jobs = 1;
    const auto serial = runMatrix(schemes, workloads, cfg);
    cfg.jobs = 4;
    const auto parallel = runMatrix(schemes, workloads, cfg);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
        EXPECT_EQ(serial[s].scheme, parallel[s].scheme);
        for (const auto& w : workloads) {
            const auto a = serial[s].at(w.name).toSnapshot();
            const auto b = parallel[s].at(w.name).toSnapshot();
            EXPECT_EQ(a.values(), b.values())
                << "scheme " << serial[s].scheme << " workload "
                << w.name << " diverged between jobs=1 and jobs=4";
        }
    }
}

TEST(ParallelMatrix, ProgressIsOrderedAndComplete)
{
    RunnerConfig cfg;
    cfg.refsPerCore = 300;
    cfg.cores = 1;
    cfg.jobs = 4;
    const std::vector<SchemeConfig> schemes = {
        SchemeConfig::din8F2(), SchemeConfig::baselineVnc()};
    const std::vector<WorkloadSpec> workloads = {
        workloadFromProfile("wrf"), workloadFromProfile("xalan"),
        workloadFromProfile("leslie3d")};

    std::vector<std::pair<std::string, std::string>> reported;
    std::size_t last_done = 0;
    runMatrix(schemes, workloads, cfg, [&](const MatrixProgress& p) {
        // Callbacks arrive strictly in matrix order, already serialised.
        EXPECT_EQ(p.done, last_done + 1);
        EXPECT_EQ(p.total, schemes.size() * workloads.size());
        last_done = p.done;
        reported.emplace_back(p.scheme, p.workload);
    });
    ASSERT_EQ(reported.size(), schemes.size() * workloads.size());
    std::size_t idx = 0;
    for (const auto& s : schemes) {
        for (const auto& w : workloads) {
            EXPECT_EQ(reported[idx].first, s.name);
            EXPECT_EQ(reported[idx].second, w.name);
            ++idx;
        }
    }
}

// Determinism regression guard: two concurrent runs of the same
// (scheme, workload, seed) must produce identical StatSnapshots. Any
// accidentally-introduced shared mutable state (a global RNG, a static
// lookup table written at runtime) makes this flaky-fail.
TEST(ParallelDeterminism, ConcurrentIdenticalRunsMatch)
{
    const SchemeConfig scheme = SchemeConfig::sdpcm();
    const WorkloadSpec workload = workloadFromProfile("mcf");
    RunnerConfig cfg;
    cfg.refsPerCore = 800;
    cfg.cores = 2;
    cfg.seed = 42;

    std::vector<RunMetrics> runs(4);
    parallelFor(4, runs.size(), [&](std::size_t i) {
        runs[i] = runOne(scheme, workload, cfg);
    });

    const auto reference = runs.front().toSnapshot();
    EXPECT_GT(reference.get("ctrl.writesCompleted"), 0.0);
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(reference.values(), runs[i].toSnapshot().values())
            << "concurrent run " << i << " diverged — shared mutable "
            << "state somewhere in System";
    }
}

} // namespace
} // namespace sdpcm
