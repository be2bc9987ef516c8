/**
 * @file
 * Figure 3: highest speedup of the out-of-the-box (traditionally
 * parallelized) benchmarks on the 28-core platform — the "parallelism
 * plateau" motivating STATS.
 */

#include <iostream>

#include "common/experiment.hpp"
#include "support/statistics.hpp"

using namespace stats;
using namespace stats::benchmarks;

int
main(int argc, char **argv)
{
    benchx::Harness harness(argc, argv);
    benchx::printHeader(
        "Figure 3",
        "Highest speedup of the original benchmarks (28 cores)",
        "all far from the ideal 28x; geometric mean around 7.75x "
        "(paper section 4.3)");

    support::TextTable table({"benchmark", "best speedup", "at threads"});
    std::vector<double> bests;
    support::JsonWriter json(std::cout, false);
    std::vector<std::pair<std::string, double>> rows;

    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        const double seq = benchx::sequentialTime(*bench);
        const auto curve = benchx::originalCurve(
            *bench, benchx::paperMachine(), benchx::threadSweep());
        const auto speeds = benchx::speedups(curve, seq);
        std::size_t best = 0;
        for (std::size_t i = 1; i < speeds.size(); ++i) {
            if (speeds[i] > speeds[best])
                best = i;
        }
        table.addRow(
            {name, support::TextTable::formatDouble(speeds[best], 2),
             std::to_string(benchx::threadSweep()[best])});
        bests.push_back(speeds[best]);
        rows.emplace_back(name, speeds[best]);
    }
    table.addRow({"geo. mean",
                  support::TextTable::formatDouble(
                      support::geomean(bests), 2),
                  ""});
    table.print(std::cout);
    std::cout << "\n(The distance from the ideal 28x shows the need for "
                 "scavenging additional TLP.)\n";

    std::cout << "\nJSON:\n";
    json.beginObject().field("figure", "fig03").key("bestSpeedup");
    json.beginObject();
    for (const auto &[name, value] : rows)
        json.field(name, value);
    json.endObject()
        .field("geomean", support::geomean(bests))
        .endObject();
    return harness.finish();
}
