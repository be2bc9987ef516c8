#include "testing/fuzzer.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>

#include "replay/session.hpp"

namespace stats::testing {

namespace {

/** Write `text` to dir/name; returns the path ("" on failure). */
std::string
writeArtifact(const std::string &dir, const std::string &name,
              const std::string &text, std::ostream &log)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + name;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        log << "  ! cannot write " << path << "\n";
        return "";
    }
    out << text;
    return path;
}

/**
 * Re-run a failing case inside a recording session and hand back the
 * log of its engine runs (the automatic repro capture).
 */
replay::RecordLog
captureRecording(const FuzzCase &fuzz_case, const OracleOptions &options)
{
    replay::ReplaySession session;
    session.startRecording(fuzz_case.scenario.seed);
    session.setMetadata("fuzz.case", fuzz_case.name);
    session.setMetadata("fuzz.matcher",
                        matcherKindName(fuzz_case.scenario.matcher));
    runOracle(fuzz_case, options, session);
    return session.finishRecording();
}

} // namespace

CampaignSummary
runCampaign(const CampaignOptions &options, std::ostream &log)
{
    CampaignSummary summary;
    log << "fuzz campaign: seed=" << options.seed
        << " runs=" << options.runs << "\n";
    for (int i = 0; i < options.runs; ++i) {
        const FuzzCase fuzz_case = generateCase(
            options.seed, std::uint64_t(i), options.generator);
        ++summary.cases;
        const OracleResult result = runOracle(fuzz_case, options.oracle);
        if (result.ok) {
            if (result.rejected)
                ++summary.rejected;
            else
                ++summary.passed;
            if (result.faulted)
                ++summary.faultRuns;
            summary.mismatches += result.cleanStats.mismatches;
            summary.reexecutions += result.cleanStats.reexecutions;
            summary.aborts += result.cleanStats.aborts;
            summary.validations += result.cleanStats.validations;
            if (options.verbose) {
                log << "  [" << i << "] " << fuzz_case.name << ": "
                    << (result.rejected ? "rejected at " : "ok at ")
                    << result.stage << "\n";
            }
            continue;
        }

        CampaignFailure failure;
        failure.name = fuzz_case.name;
        failure.stage = result.stage;
        failure.failKind = result.failKind;
        failure.detail = result.detail;
        log << "  [" << i << "] FAIL " << fuzz_case.name << " ("
            << result.failKind << " at " << result.stage << "): "
            << result.detail << "\n";

        if (!options.artifactsDir.empty()) {
            if (auto path =
                    writeArtifact(options.artifactsDir,
                                  fuzz_case.name + ".ir",
                                  serializeCase(fuzz_case), log);
                !path.empty())
                failure.artifacts.push_back(path);

            const replay::RecordLog record =
                captureRecording(fuzz_case, options.oracle);
            if (auto path = writeArtifact(options.artifactsDir,
                                          fuzz_case.name + ".strl",
                                          record.saveToString(), log);
                !path.empty())
                failure.artifacts.push_back(path);

            if (options.shrink) {
                ShrinkOptions shrink_options;
                shrink_options.maxEvaluations =
                    options.shrinkEvaluations;
                shrink_options.oracle = options.oracle;
                const ShrinkResult shrunk =
                    shrinkCase(fuzz_case, shrink_options);
                log << "    shrink: " << shrunk.evaluations
                    << " evaluations, "
                    << shrunk.minimized.module.instructionCount()
                    << " instructions, "
                    << shrunk.minimized.scenario.inputs << " inputs\n";
                if (auto path = writeArtifact(
                        options.artifactsDir,
                        fuzz_case.name + ".min.ir",
                        serializeCase(shrunk.minimized), log);
                    !path.empty())
                    failure.artifacts.push_back(path);
            }
        }
        summary.failures.push_back(std::move(failure));
        if (int(summary.failures.size()) >= options.maxFailures) {
            log << "  stopping after " << summary.failures.size()
                << " failures\n";
            break;
        }
    }
    log << "fuzz campaign done: " << summary.cases << " cases, "
        << summary.passed << " passed, " << summary.rejected
        << " rejected, " << summary.failures.size() << " failed ("
        << summary.validations << " validations, "
        << summary.mismatches << " mismatches, "
        << summary.reexecutions << " reexecutions, " << summary.aborts
        << " aborts)\n";
    return summary;
}

OracleResult
replayCaseFile(const std::string &path, const OracleOptions &options,
               std::ostream &log)
{
    std::string error;
    const auto fuzz_case = loadCaseFile(path, error);
    if (!fuzz_case) {
        OracleResult result;
        result.ok = false;
        result.stage = "parse";
        result.failKind = "case-unreadable";
        result.detail = error;
        log << path << ": " << error << "\n";
        return result;
    }
    const OracleResult result = runOracle(*fuzz_case, options);
    log << fuzz_case->name << ": "
        << (result.ok
                ? (result.rejected ? "rejected at " + result.stage
                                   : "ok at " + result.stage)
                : "FAIL " + result.failKind + " at " + result.stage +
                      ": " + result.detail)
        << "\n";
    return result;
}

} // namespace stats::testing
