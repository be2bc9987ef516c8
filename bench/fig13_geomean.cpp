/**
 * @file
 * Figure 13: geometric mean of the Figure 12 speedups — the paper's
 * headline curve (Original vs Par. STATS across thread counts).
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
        "Figure 13",
        "Geometric mean of per-benchmark speedups vs hardware threads",
        "Par. STATS's curve keeps climbing well past where the "
        "original TLP's flattens (7.75x -> 20.01x at 28 cores in the "
        "paper)");

    const auto &threads = benchx::threadSweep();
    std::vector<std::vector<double>> original_all, par_all;

    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        const auto data = benchx::measureScalability(*bench, 24);
        original_all.push_back(
            benchx::speedups(data.original, data.seqTime));
        par_all.push_back(benchx::speedups(data.parStats, data.seqTime));
    }

    std::vector<double> geo_original, geo_par;
    for (std::size_t i = 0; i < threads.size(); ++i) {
        std::vector<double> o, p;
        for (std::size_t b = 0; b < original_all.size(); ++b) {
            o.push_back(original_all[b][i]);
            p.push_back(par_all[b][i]);
        }
        geo_original.push_back(support::geomean(o));
        geo_par.push_back(support::geomean(p));
    }

    support::TextTable table({"threads", "Original", "Par. STATS"});
    for (std::size_t i = 0; i < threads.size(); ++i) {
        table.addRow(std::to_string(threads[i]),
                     {geo_original[i], geo_par[i]}, 2);
    }
    table.print(std::cout);

    std::cout << "\nJSON:\n";
    support::JsonWriter json(std::cout, false);
    std::vector<double> thread_values(threads.begin(), threads.end());
    json.beginObject()
        .field("figure", "fig13")
        .field("threads", thread_values)
        .field("original", geo_original)
        .field("parStats", geo_par)
        .endObject();
    return harness.finish();
}
