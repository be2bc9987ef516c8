/**
 * @file
 * Shared machinery of the per-figure benchmark harnesses.
 *
 * Every figure/table binary in bench/ regenerates one table or figure
 * of the paper's evaluation (section 4): it prints the measured
 * rows/series plus a JSON blob for replotting, and a note stating the
 * paper's expected shape. Reproduction targets shapes, not absolute
 * numbers (see DESIGN.md section 2).
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "benchmarks/common/benchmark.hpp"
#include "profiler/profiler.hpp"
#include "replay/run_session.hpp"
#include "sim/machine.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace stats::benchx {

/** The paper's platform: dual-socket 14-core Haswell, HT off. */
sim::MachineConfig paperMachine();

/** Single socket, optionally with 2-way HT (Figure 14's setup). */
sim::MachineConfig singleSocketMachine(bool hyper_threading);

/** Hardware-thread sweep of Figure 12: 2, 4, ..., 28. */
const std::vector<int> &threadSweep();

/** Sequential baseline: the out-of-the-box program on one core. */
double sequentialTime(benchmarks::Benchmark &benchmark);

/** One tuned configuration and its measured run time. */
struct TunedPoint
{
    tradeoff::Configuration config;
    double seconds = 0.0;
    double energyJoules = 0.0;
    autotuner::TuneResult tuning;
};

/** Autotune a benchmark at one (mode, threads) point. */
TunedPoint tuneAt(benchmarks::Benchmark &benchmark, benchmarks::Mode mode,
                  int threads, const sim::MachineConfig &machine,
                  int budget,
                  profiler::Objective objective = profiler::Objective::Time,
                  std::uint64_t seed = 1,
                  benchmarks::WorkloadKind workload =
                      benchmarks::WorkloadKind::Representative);

/** A run-time curve over the thread sweep. */
struct ModeCurve
{
    std::vector<double> times; ///< Seconds per sweep entry.
    double bestTime = 0.0;     ///< Minimum over the sweep.
};

/** Out-of-the-box curve: default configuration, original TLP only. */
ModeCurve originalCurve(benchmarks::Benchmark &benchmark,
                        const sim::MachineConfig &machine,
                        const std::vector<int> &threads);

/**
 * Autotuned curve for one mode: configurations are tuned at pivot
 * thread counts (4, 14, 28) and reused at the nearest pivot for the
 * other sweep points (the paper tunes per core count; pivots bound
 * the harness's run time).
 */
ModeCurve tunedCurve(benchmarks::Benchmark &benchmark,
                     benchmarks::Mode mode,
                     const sim::MachineConfig &machine,
                     const std::vector<int> &threads, int budget);

/** Figure 12 data of one benchmark. */
struct Scalability
{
    std::string name;
    double seqTime = 0.0;
    ModeCurve original;
    ModeCurve seqStats;
    ModeCurve parStats; ///< Best of the Seq and Par searches.
};

/**
 * Measure the three curves of Figure 12 for one benchmark. The Par.
 * STATS curve takes the better of the Seq- and Par-mode searches at
 * each point: Seq. STATS configurations are points of the Par. STATS
 * state space (inner threads = 1), so the combined search is what
 * the paper's single Par search explores.
 */
Scalability measureScalability(benchmarks::Benchmark &benchmark,
                               int budget = 36);

/** Speedups of a curve against a sequential baseline. */
std::vector<double> speedups(const ModeCurve &curve, double seq_time);

/** Print the harness banner: figure id, caption, expectation. */
void printHeader(const std::string &figure, const std::string &caption,
                 const std::string &paper_expectation);

/**
 * The command line and run session of one figure harness. A harness
 * takes the run-session options (replay/run_session.hpp) and nothing
 * else; any other word is a usage error (exit 1) before any work
 * runs. Construct it first thing in main and return finish() from
 * main. Session notes and the trace summary go to stderr; stdout
 * carries the figure's own tables and JSON.
 *
 * A recording stores the harness path and the seed. A nonzero
 * effective seed pins the process PRVGs for the whole run, which is
 * what makes two recordings of the same harness byte-identical.
 */
class Harness
{
  public:
    Harness(int argc, char **argv);

    /** Export, save or judge the run; main's exit code. */
    int finish() { return _session.finish(); }

  private:
    replay::RunSession _session;
    std::optional<support::ScopedDeterministicSeeds> _pinned;
};

} // namespace stats::benchx
