/**
 * @file
 * Ablations of STATS' design choices (beyond the paper's figures):
 *
 *  A. Producer re-execution (the paper's central "exploit the
 *     nondeterminism" mechanism, section 3.1): sweep the re-execution
 *     budget R on the comparison-based benchmarks and measure match
 *     rate and speedup. R = 0 degenerates to single-state checking
 *     (Fast Track's weakness); R >= 1 lets the comparison set grow.
 *  B. Auxiliary input window k: too small a window cannot reproduce
 *     the state (aborts), too large a window wastes work — the
 *     "short memory" property made quantitative.
 *  C. Group size G: the speculation granularity's throughput/recovery
 *     tradeoff.
 *
 * Each ablation fixes every other dimension at the benchmark's
 * defaults and runs on the simulated 28-core platform.
 */

#include <iostream>

#include "common/experiment.hpp"
#include "support/statistics.hpp"

using namespace stats;
using namespace stats::benchmarks;

namespace {

struct Cell
{
    double speedup = 0.0;
    double matchRate = 0.0;
    double aborts = 0.0;
};

Cell
runWith(Benchmark &bench, double seq_time, const char *dim,
        std::int64_t index, int threads,
        std::int64_t aux_window_index = -1)
{
    const auto space = bench.stateSpace(threads);
    tradeoff::Configuration config = space.defaultConfiguration();
    space.set(config, dim, index);
    if (aux_window_index >= 0)
        space.set(config, dims::kAuxWindow, aux_window_index);

    RunRequest request;
    request.mode = Mode::SeqStats;
    request.config = config;
    request.threads = threads;
    request.machine = benchx::paperMachine();

    Cell cell;
    constexpr int kReps = 10;
    for (int rep = 0; rep < kReps; ++rep) {
        const RunResult run = bench.run(request);
        cell.speedup += seq_time / run.virtualSeconds;
        cell.matchRate += run.engineStats.matchRate();
        cell.aborts += static_cast<double>(run.engineStats.aborts);
    }
    cell.speedup /= kReps;
    cell.matchRate /= kReps;
    cell.aborts /= kReps;
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    benchx::Harness harness(argc, argv);
    benchx::printHeader(
        "Ablations", "Design-choice ablations: R, k, and G",
        "re-execution (R >= 1) rescues mismatches that single-state "
        "checking aborts on; the auxiliary window must cover the "
        "state's memory; group size trades throughput vs recovery "
        "cost");

    constexpr int kThreads = 28;

    // --- A: re-execution budget, comparison-based benchmarks. ------
    // The auxiliary window is deliberately stressed (one notch below
    // the state's memory) so first-check mismatches occur; the sweep
    // shows how re-executing the nondeterministic producer rescues
    // them, which single-state checking (R = 0) cannot.
    std::cout << "\n[A] re-execution budget R (Seq. STATS, 28 threads, "
                 "stressed auxiliary window)\n";
    support::TextTable table_r({"benchmark", "R", "speedup",
                                "match rate", "aborts"});
    for (const std::string name : {"bodytrack", "facedet"}) {
        auto bench = createBenchmark(name);
        const double seq = benchx::sequentialTime(*bench);
        for (std::int64_t r_index = 0;
             r_index < static_cast<std::int64_t>(reexecValues().size());
             ++r_index) {
            const Cell cell = runWith(*bench, seq, dims::kReexecs,
                                      r_index, kThreads,
                                      /* k index: 3 inputs */ 2);
            table_r.addRow(
                {name,
                 std::to_string(
                     reexecValues()[static_cast<std::size_t>(r_index)]),
                 support::TextTable::formatDouble(cell.speedup, 2),
                 support::TextTable::formatDouble(cell.matchRate, 2),
                 support::TextTable::formatDouble(cell.aborts, 2)});
        }
    }
    table_r.print(std::cout);

    // --- B: auxiliary window k. -------------------------------------
    std::cout << "\n[B] auxiliary input window k (Seq. STATS, "
                 "28 threads)\n";
    support::TextTable table_k({"benchmark", "k", "speedup",
                                "match rate", "aborts"});
    for (const std::string name : {"bodytrack", "facedet"}) {
        auto bench = createBenchmark(name);
        const double seq = benchx::sequentialTime(*bench);
        for (std::int64_t k_index = 0;
             k_index <
             static_cast<std::int64_t>(auxWindowValues().size());
             ++k_index) {
            const Cell cell = runWith(*bench, seq, dims::kAuxWindow,
                                      k_index, kThreads);
            table_k.addRow(
                {name,
                 std::to_string(auxWindowValues()[static_cast<
                     std::size_t>(k_index)]),
                 support::TextTable::formatDouble(cell.speedup, 2),
                 support::TextTable::formatDouble(cell.matchRate, 2),
                 support::TextTable::formatDouble(cell.aborts, 2)});
        }
    }
    table_k.print(std::cout);

    // --- C: group size G. --------------------------------------------
    std::cout << "\n[C] group size G (Seq. STATS, 28 threads)\n";
    support::TextTable table_g({"benchmark", "G", "speedup",
                                "match rate"});
    for (const std::string name : {"swaptions", "streamcluster"}) {
        auto bench = createBenchmark(name);
        const double seq = benchx::sequentialTime(*bench);
        for (std::int64_t g_index = 0;
             g_index <
             static_cast<std::int64_t>(groupSizeValues().size());
             ++g_index) {
            const Cell cell = runWith(*bench, seq, dims::kGroupSize,
                                      g_index, kThreads);
            table_g.addRow(
                {name,
                 std::to_string(groupSizeValues()[static_cast<
                     std::size_t>(g_index)]),
                 support::TextTable::formatDouble(cell.speedup, 2),
                 support::TextTable::formatDouble(cell.matchRate, 2)});
        }
    }
    table_g.print(std::cout);
    return harness.finish();
}
