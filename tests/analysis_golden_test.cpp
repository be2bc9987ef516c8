/**
 * @file
 * Golden-file tests of the analyzer's exact output. Each seeded-bad
 * module under examples/ir/bad/ exercises one pass; the goldens under
 * tests/golden/ pin both renderers byte-for-byte, so any change to
 * the diagnostic format, rule wording, or pass behavior shows up as a
 * readable diff.
 *
 * Goldens are regenerated from the repo root with:
 *   build/statscc analyze examples/ir/bad/<name>.ir > tests/golden/<name>.txt
 *   build/statscc analyze --analysis-format=json ... > tests/golden/<name>.json
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lint.hpp"
#include "ir/parser.hpp"

#include "repo_files.hpp"

namespace {

using namespace stats;
using namespace stats::repo_files;
using namespace stats::analysis;

struct BadModule
{
    const char *name;
    std::vector<const char *> rules; ///< Expected distinct rule IDs.
    bool errors = true; ///< false: the designed rules only warn.
};

const std::vector<BadModule> &
badModules()
{
    static const std::vector<BadModule> modules = {
        {"bad_divergent_clone", {"AUD03", "AUD04"}},
        {"bad_impure_clone", {"ESC01"}},
        {"bad_missing_cast", {"FRZ03"}},
        {"bad_phi_mismatch", {"VER01"}},
        {"bad_range_abuse", {"RNG01", "RNG02", "RNG03"}, false},
        {"bad_unfrozen_tradeoff", {"FRZ01"}},
    };
    return modules;
}

/** The goldens carry the repo-relative path the analyzer was run with. */
std::string
relativeIrPath(const std::string &name)
{
    return "examples/ir/bad/" + name + ".ir";
}

std::vector<Diagnostic>
analyzeBadModule(const std::string &name)
{
    const std::string source = readRepoFile(relativeIrPath(name));
    return runAnalyses(ir::parseModule(source));
}

TEST(AnalysisGolden, EachBadModuleTriggersItsDesignedRules)
{
    for (const auto &bad : badModules()) {
        const auto diags = analyzeBadModule(bad.name);
        if (bad.errors)
            EXPECT_TRUE(hasErrors(diags)) << bad.name;
        else
            EXPECT_FALSE(diags.empty()) << bad.name;
        std::vector<std::string> seen;
        for (const auto &diag : diags)
            seen.push_back(diag.rule);
        std::sort(seen.begin(), seen.end());
        seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
        std::vector<std::string> expected(bad.rules.begin(),
                                          bad.rules.end());
        EXPECT_EQ(seen, expected) << bad.name;
    }
}

TEST(AnalysisGolden, TextReportsMatchGoldens)
{
    for (const auto &bad : badModules()) {
        const auto diags = analyzeBadModule(bad.name);
        std::ostringstream out;
        writeDiagnosticsText(out, relativeIrPath(bad.name), diags);
        const std::string golden = readRepoFile(
            std::string("tests/golden/") + bad.name + ".txt");
        EXPECT_EQ(out.str(), golden) << bad.name;
    }
}

TEST(AnalysisGolden, JsonReportsMatchGoldens)
{
    for (const auto &bad : badModules()) {
        const auto diags = analyzeBadModule(bad.name);
        std::ostringstream out;
        writeDiagnosticsJson(out, bad.name, relativeIrPath(bad.name),
                             diags);
        const std::string golden = readRepoFile(
            std::string("tests/golden/") + bad.name + ".json");
        EXPECT_EQ(out.str(), golden) << bad.name;
    }
}

/** Every diagnostic in the goldens points at a real source line. */
TEST(AnalysisGolden, DiagnosticsCarrySourceLines)
{
    for (const auto &bad : badModules()) {
        for (const auto &diag : analyzeBadModule(bad.name))
            EXPECT_GT(diag.line, 0u)
                << bad.name << ": " << diag.rule << " " << diag.message;
    }
}

} // namespace
