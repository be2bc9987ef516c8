/**
 * @file
 * Figure 17: STATS vs related approaches (ALTER-like, QuickStep-like,
 * HELIX-UP-like, Fast Track), in Seq and Par flavors.
 *
 * "Only STATS takes advantage of non-trivial state dependences: they
 * require the auxiliary code only STATS generates." Prior approaches
 * help only swaptions (its state is a register-cloneable reduction
 * variable); Fast Track always aborts. A baseline's speedup counts
 * only while its output stays within the original variability.
 */

#include <iostream>

#include "baselines/baseline.hpp"
#include "common/experiment.hpp"
#include "support/statistics.hpp"

using namespace stats;
using namespace stats::baselines;
using namespace stats::benchmarks;

int
main(int argc, char **argv)
{
    benchx::Harness harness(argc, argv);
    benchx::printHeader(
        "Figure 17", "Related-work comparison on state dependences",
        "prior approaches speed up only swaptions; Fast Track always "
        "aborts; STATS wins everywhere it applies");

    const auto machine = benchx::paperMachine();
    constexpr int kThreads = 28;

    support::JsonWriter json(std::cout, false);
    json.beginObject().field("figure", "fig17").key("rows").beginArray();

    support::TextTable table({"benchmark", "approach", "Seq speedup",
                              "Par speedup", "notes"});

    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        const double seq_time = benchx::sequentialTime(*bench);
        const auto oracle =
            bench->oracleSignature(WorkloadKind::Representative, 1);

        // The output-variability gate: the worst original quality.
        double variability_gate = 0.0;
        for (std::uint64_t run = 0; run < 5; ++run) {
            RunRequest request;
            request.threads = 1;
            request.mode = Mode::Original;
            const double q =
                bench->quality(bench->run(request).signature, oracle);
            variability_gate = std::max(variability_gate, q);
        }
        variability_gate = variability_gate * 1.5 + 1e-9;

        for (const auto kind : allBaselines()) {
            double seq_speedup = 1.0, par_speedup = 1.0;
            std::string note;
            for (const bool parallel : {false, true}) {
                const auto result = runBaseline(kind, *bench, parallel,
                                                kThreads, machine);
                double speedup = seq_time / result.virtualSeconds;
                // Quality gate (paper: "kept the highest speedups
                // obtained without exceeding the original output
                // variability").
                if (result.usedSpeculation &&
                    result.quality > variability_gate) {
                    note = "quality-gated to original";
                    RunRequest fallback;
                    fallback.mode = Mode::Original;
                    fallback.threads = parallel ? kThreads : 1;
                    fallback.machine = machine;
                    speedup =
                        seq_time / bench->run(fallback).virtualSeconds;
                } else if (!result.usedSpeculation) {
                    note = "not applicable (complex state)";
                } else if (result.engineStats.aborts > 0) {
                    note = "speculation aborted";
                }
                (parallel ? par_speedup : seq_speedup) = speedup;
            }
            table.addRow({name, baselineName(kind),
                          support::TextTable::formatDouble(seq_speedup,
                                                           2),
                          support::TextTable::formatDouble(par_speedup,
                                                           2),
                          note});
            json.beginObject()
                .field("name", name)
                .field("approach", baselineName(kind))
                .field("seq", seq_speedup)
                .field("par", par_speedup)
                .endObject();
        }

        // STATS itself.
        const auto stats_seq =
            benchx::tuneAt(*bench, Mode::SeqStats, kThreads, machine, 30);
        const auto stats_par =
            benchx::tuneAt(*bench, Mode::ParStats, kThreads, machine, 30);
        const double stats_seq_speedup = seq_time / stats_seq.seconds;
        const double stats_par_speedup =
            seq_time / std::min(stats_par.seconds, stats_seq.seconds);
        table.addRow(
            {name, "STATS",
             support::TextTable::formatDouble(stats_seq_speedup, 2),
             support::TextTable::formatDouble(stats_par_speedup, 2),
             "auxiliary code + state cloning"});
        json.beginObject()
            .field("name", name)
            .field("approach", "STATS")
            .field("seq", stats_seq_speedup)
            .field("par", stats_par_speedup)
            .endObject();
    }
    json.endArray().endObject();
    std::cout << "\n";
    table.print(std::cout);
    return harness.finish();
}
