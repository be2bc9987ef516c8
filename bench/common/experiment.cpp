#include "common/experiment.hpp"

#include <algorithm>
#include <iostream>

#include "common/command_line.hpp"
#include "support/statistics.hpp"

namespace stats::benchx {

sim::MachineConfig
paperMachine()
{
    sim::MachineConfig config;
    config.sockets = 2;
    config.coresPerSocket = 14;
    config.hyperThreading = false;
    return config;
}

sim::MachineConfig
singleSocketMachine(bool hyper_threading)
{
    sim::MachineConfig config;
    config.sockets = 1;
    config.coresPerSocket = 14;
    config.hyperThreading = hyper_threading;
    config.placement = sim::MachineConfig::Placement::SingleSocketFirst;
    return config;
}

const std::vector<int> &
threadSweep()
{
    static const std::vector<int> sweep{2,  4,  6,  8,  10, 12, 14,
                                        16, 18, 20, 22, 24, 26, 28};
    return sweep;
}

double
sequentialTime(benchmarks::Benchmark &benchmark)
{
    benchmarks::RunRequest request;
    request.threads = 1;
    request.mode = benchmarks::Mode::Original;
    request.machine = paperMachine();
    double total = 0.0;
    constexpr int kReps = 2;
    for (int rep = 0; rep < kReps; ++rep)
        total += benchmark.run(request).virtualSeconds;
    return total / kReps;
}

TunedPoint
tuneAt(benchmarks::Benchmark &benchmark, benchmarks::Mode mode,
       int threads, const sim::MachineConfig &machine, int budget,
       profiler::Objective objective, std::uint64_t seed,
       benchmarks::WorkloadKind workload)
{
    const auto tuned = profiler::tuneBenchmark(
        benchmark, mode, threads, machine, objective, budget, seed,
        workload);
    TunedPoint point;
    point.config = tuned.config;
    point.seconds = tuned.measurement.seconds;
    point.energyJoules = tuned.measurement.energyJoules;
    point.tuning = tuned.tuning;
    return point;
}

namespace {

double
measure(benchmarks::Benchmark &benchmark, benchmarks::Mode mode,
        const tradeoff::Configuration &config, int threads,
        const sim::MachineConfig &machine, int reps = 3)
{
    benchmarks::RunRequest request;
    request.mode = mode;
    request.config = config;
    request.threads = threads;
    request.machine = machine;
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep)
        times.push_back(benchmark.run(request).virtualSeconds);
    // Median: robust against an occasional abort-and-recover run.
    return support::median(std::move(times));
}

} // namespace

ModeCurve
originalCurve(benchmarks::Benchmark &benchmark,
              const sim::MachineConfig &machine,
              const std::vector<int> &threads)
{
    ModeCurve curve;
    for (int t : threads) {
        curve.times.push_back(measure(
            benchmark, benchmarks::Mode::Original, {}, t, machine));
    }
    curve.bestTime =
        *std::min_element(curve.times.begin(), curve.times.end());
    return curve;
}

ModeCurve
tunedCurve(benchmarks::Benchmark &benchmark, benchmarks::Mode mode,
           const sim::MachineConfig &machine,
           const std::vector<int> &threads, int budget)
{
    static const std::vector<int> pivots{4, 14, 28};
    std::vector<TunedPoint> tuned;
    for (int pivot : pivots)
        tuned.push_back(
            tuneAt(benchmark, mode, pivot, machine, budget));

    ModeCurve curve;
    for (int t : threads) {
        // Evaluate every pivot's best configuration at this thread
        // count and keep the fastest: the paper's per-core-count
        // searches share one results store, so a configuration found
        // at any pivot is available everywhere.
        double best = 1e300;
        for (const auto &point : tuned) {
            best = std::min(best, measure(benchmark, mode,
                                          point.config, t, machine));
        }
        curve.times.push_back(best);
    }
    curve.bestTime =
        *std::min_element(curve.times.begin(), curve.times.end());
    return curve;
}

Scalability
measureScalability(benchmarks::Benchmark &benchmark, int budget)
{
    const auto machine = paperMachine();
    const auto &threads = threadSweep();

    Scalability result;
    result.name = benchmark.name();
    result.seqTime = sequentialTime(benchmark);
    result.original = originalCurve(benchmark, machine, threads);
    result.seqStats = tunedCurve(benchmark, benchmarks::Mode::SeqStats,
                                 machine, threads, budget);
    const ModeCurve par = tunedCurve(
        benchmark, benchmarks::Mode::ParStats, machine, threads, budget);

    // Par. STATS explores both TLP sources; take the better search
    // outcome per point.
    result.parStats.times.resize(threads.size());
    for (std::size_t i = 0; i < threads.size(); ++i) {
        result.parStats.times[i] =
            std::min(par.times[i], result.seqStats.times[i]);
    }
    result.parStats.bestTime =
        *std::min_element(result.parStats.times.begin(),
                          result.parStats.times.end());
    return result;
}

std::vector<double>
speedups(const ModeCurve &curve, double seq_time)
{
    std::vector<double> out;
    out.reserve(curve.times.size());
    for (double t : curve.times)
        out.push_back(seq_time / t);
    return out;
}

void
printHeader(const std::string &figure, const std::string &caption,
            const std::string &paper_expectation)
{
    std::cout << "==========================================================\n";
    std::cout << "STATS reproduction | " << figure << "\n";
    std::cout << caption << "\n";
    std::cout << "Paper expectation: " << paper_expectation << "\n";
    std::cout << "==========================================================\n";
}

Harness::Harness(int argc, char **argv)
    : _session(parseOptions(
          argc, argv, replay::RunSession::options(),
          "[--trace=FILE] [--metrics=FILE] [--seed=N] [--record=FILE] "
          "[--replay=FILE] [--faults=PLAN]"))
{
    const std::uint64_t seed = _session.start(0);
    _session.setMetadata("harness", argc > 0 ? argv[0] : "");
    _session.setMetadata("seed", std::to_string(seed));
    if (seed != 0)
        _pinned.emplace(seed);
}

} // namespace stats::benchx
