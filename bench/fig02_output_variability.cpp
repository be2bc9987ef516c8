/**
 * @file
 * Figure 2: output variability of the nondeterministic benchmarks.
 *
 * Runs each benchmark repeatedly with entropy-seeded PRVGs and
 * measures its domain quality metric against the oracle. The paper
 * plots per-benchmark variability on a log scale, split into
 * race-condition-induced (fluidanimate, canneal) and PRVG-induced
 * nondeterminism. canneal appears here (as in the paper's Figure 2)
 * but in no other experiment: STATS cannot target it because its
 * input count depends on the evolution of the computation state.
 */

#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "benchmarks/canneal/canneal.hpp"
#include "common/experiment.hpp"
#include "support/statistics.hpp"

using namespace stats;
using namespace stats::benchmarks;

namespace {

/** Scientific notation: Figure 2 spans ~9 orders of magnitude. */
std::string
sci(double v)
{
    std::ostringstream out;
    out << std::scientific << std::setprecision(2) << v;
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    benchx::Harness harness(argc, argv);
    benchx::printHeader(
        "Figure 2", "Output variability over repeated runs (log scale)",
        "several benchmarks exhibit high variability; fluidanimate's "
        "(race-induced) is orders of magnitude below the PRVG-induced "
        "ones");

    constexpr int kRuns = 30;
    support::TextTable table({"benchmark", "nondeterminism", "mean",
                              "min", "max", "stddev"});
    support::JsonWriter json(std::cout, false);

    struct Row
    {
        std::string name;
        std::vector<double> values;
    };
    std::vector<Row> rows;

    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        const auto oracle =
            bench->oracleSignature(WorkloadKind::Representative, 1);
        support::RunningStat stat;
        Row row{name, {}};
        for (int run = 0; run < kRuns; ++run) {
            RunRequest request;
            request.threads = 1;
            request.mode = Mode::Original;
            request.runSeed = 0; // Entropy: the real nondeterminism.
            const double quality =
                bench->quality(bench->run(request).signature, oracle);
            stat.add(quality);
            row.values.push_back(quality);
        }
        const bool race_induced = name == "fluidanimate";
        table.addRow({name,
                      race_induced ? "race conditions"
                                   : "random generators",
                      sci(stat.mean()), sci(stat.min()),
                      sci(stat.max()), sci(stat.stddev())});
        rows.push_back(std::move(row));
    }

    // canneal: variability of the final wire length across runs,
    // relative to the mean (it cannot run under STATS, so there is no
    // oracle-producing configuration; the paper's Figure 2 includes
    // it on the same basis).
    {
        using namespace stats::benchmarks::canneal;
        const Netlist netlist = makeNetlist(1);
        std::vector<double> costs;
        for (int run = 0; run < kRuns; ++run) {
            support::Xoshiro256 rng(support::entropySeed());
            costs.push_back(anneal(netlist, rng).finalCost);
        }
        const double mean_cost = support::mean(costs);
        support::RunningStat stat;
        Row row{"canneal", {}};
        for (double cost : costs) {
            const double rel = std::abs(cost - mean_cost) / mean_cost;
            stat.add(rel);
            row.values.push_back(rel);
        }
        table.addRow({"canneal", "race conditions", sci(stat.mean()),
                      sci(stat.min()), sci(stat.max()),
                      sci(stat.stddev())});
        rows.push_back(std::move(row));
    }

    table.print(std::cout);
    std::cout << "\n(canneal is shown for variability only; STATS "
                 "cannot target it — its input count depends on the "
                 "evolution of the computation state.)\n";
    std::cout << "\nJSON:\n";
    json.beginObject().field("figure", "fig02").key("benchmarks");
    json.beginArray();
    for (const auto &row : rows) {
        json.beginObject()
            .field("name", row.name)
            .field("variability", row.values)
            .endObject();
    }
    json.endArray().endObject();
    return harness.finish();
}
