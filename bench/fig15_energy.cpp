/**
 * @file
 * Figure 15: system-wide energy consumption.
 *
 * Compares the energy of STATS binaries (autotuned for time, and
 * autotuned for energy) against the peak-performing original.
 * "When targeting time, STATS saves 61.98% of the baseline energy
 * ... and even more (71.35%) in energy mode by avoiding extra cores
 * whose additional performance is not significant."
 */

#include <iostream>

#include "common/experiment.hpp"
#include "platform/energy_model.hpp"
#include "support/statistics.hpp"

using namespace stats;
using namespace stats::benchmarks;

int
main(int argc, char **argv)
{
    benchx::Harness harness(argc, argv);
    benchx::printHeader(
        "Figure 15", "System-wide energy, relative to the original",
        "time-tuned STATS saves ~62% energy; energy-tuned STATS saves "
        "~71%");

    const auto machine = benchx::paperMachine();
    support::TextTable table({"benchmark", "original J",
                              "STATS(time) %", "STATS(energy) %"});
    std::vector<double> time_ratios, energy_ratios;
    support::JsonWriter json(std::cout, false);
    json.beginObject().field("figure", "fig15").key("rows").beginArray();

    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);

        // Peak-performing original: best thread count by time.
        double best_original_energy = 0.0;
        double best_original_time = 1e300;
        for (int t : benchx::threadSweep()) {
            RunRequest request;
            request.threads = t;
            request.mode = Mode::Original;
            request.machine = machine;
            const RunResult run = bench->run(request);
            if (run.virtualSeconds < best_original_time) {
                best_original_time = run.virtualSeconds;
                best_original_energy = run.energyJoules;
            }
        }

        const auto time_tuned = benchx::tuneAt(
            *bench, Mode::ParStats, 28, machine, 36,
            profiler::Objective::Time);
        const auto energy_tuned = benchx::tuneAt(
            *bench, Mode::ParStats, 28, machine, 36,
            profiler::Objective::Energy);

        const double time_pct =
            100.0 * time_tuned.energyJoules / best_original_energy;
        const double energy_pct =
            100.0 * energy_tuned.energyJoules / best_original_energy;
        time_ratios.push_back(time_pct / 100.0);
        energy_ratios.push_back(energy_pct / 100.0);

        table.addRow(name,
                     {best_original_energy, time_pct, energy_pct}, 1);
        json.beginObject()
            .field("name", name)
            .field("originalJoules", best_original_energy)
            .field("timeTunedPct", time_pct)
            .field("energyTunedPct", energy_pct)
            .endObject();
    }

    const double geo_time = 100.0 * support::geomean(time_ratios);
    const double geo_energy = 100.0 * support::geomean(energy_ratios);
    table.addRow("geo. mean", {0.0, geo_time, geo_energy}, 1);
    json.endArray()
        .field("geomeanTimeTunedPct", geo_time)
        .field("geomeanEnergyTunedPct", geo_energy)
        .endObject();

    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nEnergy saved: time mode "
              << support::TextTable::formatDouble(100.0 - geo_time, 1)
              << "% (paper: 61.98%), energy mode "
              << support::TextTable::formatDouble(100.0 - geo_energy, 1)
              << "% (paper: 71.35%).\n";
    return harness.finish();
}
