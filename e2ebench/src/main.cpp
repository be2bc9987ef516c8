/**
 * @file
 * e2ebench: the end-to-end benchmark of STATS on real cores.
 *
 *   e2ebench --workload sdi-coarse|sdi-misspec|serve-mix --seed N
 *            --seconds S --trace 0|1 [--work-dir DIR]
 *   e2ebench --selftest [--seed N]
 *
 * The last line of standard output is one JSON object: correctness,
 * operations attempted and failed, and the end-to-end metrics
 * (--trace 0) or the per-layer metrics of a traced run (--trace 1).
 * A traced run keeps its spans in memory and writes them to
 * DIR/trace-<workload>.json at exit. --selftest checks that both
 * correctness checks fire on wrong outputs.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "engine.hpp"
#include "serve.hpp"

namespace {

int
usage(const char *problem)
{
    std::fprintf(stderr,
                 "e2ebench: %s\n"
                 "usage: e2ebench --workload sdi-coarse|sdi-misspec|"
                 "serve-mix --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n"
                 "       e2ebench --selftest [--seed N]\n",
                 problem);
    return 2;
}

int
selftest(std::uint64_t seed)
{
    int failures = 0;
    for (const auto &[name, problem] :
         {std::pair{"engine quality band",
                    e2ebench::checkEngineBandRejectsBadOutput(seed)},
          std::pair{"served result check",
                    e2ebench::checkServeVerifierRejectsCorruptBlob(seed)}}) {
        std::printf("%s: %s\n", name,
                    problem.empty() ? "ok" : problem.c_str());
        failures += problem.empty() ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, work_dir = ".";
    std::uint64_t seed = 1;
    double seconds = -1.0;
    int trace = -1;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest") {
            self_test = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--seed")
            seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            trace = value == "1" ? 1 : value == "0" ? 0 : -1;
        else if (arg == "--work-dir")
            work_dir = value;
        else
            return usage(("unknown argument " + arg).c_str());
    }
    if (self_test)
        return selftest(seed);
    if (workload != "sdi-coarse" && workload != "sdi-misspec" &&
        workload != "serve-mix")
        return usage("unknown workload");
    if (!(seconds > 0.0) || trace < 0)
        return usage("--seconds must be positive and --trace 0 or 1");

    e2ebench::SpanLog spans;
    e2ebench::SpanLog *traced = trace ? &spans : nullptr;
    e2ebench::Report report =
        workload == "serve-mix"
            ? e2ebench::runServeWorkload(seed, seconds, work_dir, traced)
            : e2ebench::runEngineWorkload(workload, seed, seconds, traced);
    if (traced) {
        e2ebench::addServingStageSplit(seed, report);
        const std::string path = work_dir + "/trace-" + workload + ".json";
        if (!spans.writeChrome(path))
            std::fprintf(stderr, "e2ebench: cannot write %s\n",
                         path.c_str());
    }
    const std::string problem = e2ebench::printResult(report, traced);
    if (!problem.empty()) {
        std::fprintf(stderr, "e2ebench: %s\n", problem.c_str());
        return 1;
    }
    return 0;
}
