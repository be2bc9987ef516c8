/**
 * @file
 * The fuzzing campaign driver: generate -> oracle -> (on failure)
 * record + shrink + write artifacts.
 *
 * A campaign is a pure function of its root seed: the same seed and
 * run count always generate the same cases and reach the same
 * verdicts (`statscc fuzz --seed S --runs N` twice == byte-identical
 * reports). On an oracle failure the driver re-runs the case inside a
 * recording session and writes three artifacts to the artifact
 * directory: the full failing case (`<name>.ir`), the shrunk
 * reproducer (`<name>.min.ir`, the form `tests/corpus/` checks in),
 * and the RecordLog of the failing engine runs (`<name>.strl`,
 * inspectable with `statscc log inspect`).
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "testing/generator.hpp"
#include "testing/oracle.hpp"
#include "testing/shrinker.hpp"

namespace stats::testing {

struct CampaignOptions
{
    std::uint64_t seed = 1;
    int runs = 100;

    GeneratorOptions generator;
    OracleOptions oracle;

    /** Shrink failing cases before writing them out. */
    bool shrink = true;
    int shrinkEvaluations = 400;

    /** Where failure artifacts go ("" = don't write artifacts). */
    std::string artifactsDir = "fuzz-artifacts";

    /** Stop after this many failing cases. */
    int maxFailures = 8;

    /** Log every case, not only failures. */
    bool verbose = false;
};

/** One failing case, as the campaign captured it. */
struct CampaignFailure
{
    std::string name;
    std::string stage;
    std::string failKind;
    std::string detail;
    std::vector<std::string> artifacts; ///< Files written for it.
};

struct CampaignSummary
{
    int cases = 0;
    int passed = 0;
    int rejected = 0; ///< Near-misses correctly rejected.
    int faultRuns = 0;
    std::vector<CampaignFailure> failures;

    /** Aggregate engine statistics across clean runs. */
    long long mismatches = 0;
    long long reexecutions = 0;
    long long aborts = 0;
    long long validations = 0;

    bool ok() const { return failures.empty(); }
};

/** Run a campaign; progress and verdicts go to `log`. */
CampaignSummary runCampaign(const CampaignOptions &options,
                            std::ostream &log);

/**
 * Re-run one case file through the oracle (the corpus-replay path).
 * Returns the oracle result; `log` receives a one-line verdict.
 */
OracleResult replayCaseFile(const std::string &path,
                            const OracleOptions &options,
                            std::ostream &log);

} // namespace stats::testing
