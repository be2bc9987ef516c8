/**
 * @file
 * Replays every checked-in fuzzer find under tests/corpus/ through
 * the differential oracle (ctest label: fuzz). Each corpus file is a
 * minimized case the fuzzer once failed, annotated with its
 * root cause; replaying them keeps the underlying fixes honest.
 *
 * Also keeps docs/TESTING.md's tier table in lockstep with the ctest
 * labels this directory actually registers.
 */

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/fuzz_case.hpp"
#include "testing/oracle.hpp"

#include "repo_files.hpp"

namespace {

// gtest owns `::testing`, so the subsystem keeps its full name here.
namespace st = stats::testing;
namespace fs = std::filesystem;
using namespace stats::repo_files;

std::vector<fs::path>
corpusFiles()
{
    const fs::path dir =
        fs::path(STATS_SOURCE_DIR) / "tests" / "corpus";
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".ir")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(FuzzCorpus, EveryCaseReplaysClean)
{
    const auto files = corpusFiles();
    ASSERT_FALSE(files.empty());
    for (const auto &path : files) {
        SCOPED_TRACE(path.filename().string());
        std::string error;
        const auto fuzz_case = st::loadCaseFile(path.string(), error);
        ASSERT_TRUE(fuzz_case.has_value()) << error;
        // Corpus cases memorialize a fixed bug: each must say why.
        EXPECT_FALSE(fuzz_case->rootCause.empty())
            << "corpus case without a `; root-cause:` line";
        const st::OracleResult result = st::runOracle(*fuzz_case);
        EXPECT_TRUE(result.ok) << result.failKind << " at "
                               << result.stage << ": " << result.detail;
        if (fuzz_case->expect == st::Expectation::Reject) {
            EXPECT_TRUE(result.rejected);
        }
    }
}

// ---------------------------------------------------------------------
// docs/TESTING.md lockstep
// ---------------------------------------------------------------------

/** LABELS registered by tests/CMakeLists.txt (`LABELS <name>`). */
std::vector<std::string>
registeredLabels()
{
    const std::string cmake = readRepoFile("tests/CMakeLists.txt");
    std::vector<std::string> labels;
    std::size_t pos = 0;
    while ((pos = cmake.find("LABELS ", pos)) != std::string::npos) {
        pos += 7;
        std::string label;
        while (pos < cmake.size() &&
               (std::isalnum(cmake[pos]) || cmake[pos] == '_' ||
                cmake[pos] == '-'))
            label += cmake[pos++];
        if (!label.empty() &&
            std::find(labels.begin(), labels.end(), label) ==
                labels.end())
            labels.push_back(label);
    }
    return labels;
}

TEST(TestingDocs, TierTableCoversEveryRegisteredLabel)
{
    const std::string docs = readRepoFile("docs/TESTING.md");
    // Every ctest label in use must appear as a documented tier
    // (backticked in the tier table), and the doc's core tiers must
    // keep existing. Adding a new LABELS value without documenting it
    // fails here.
    for (const auto &label : registeredLabels()) {
        EXPECT_NE(docs.find(backticked(label)), std::string::npos)
            << "ctest label '" << label
            << "' is not documented in docs/TESTING.md";
    }
    for (const char *tier : {"unit", "golden", "property", "stress",
                             "fuzz"}) {
        EXPECT_NE(docs.find(backticked(tier)),
                  std::string::npos)
            << "tier '" << tier << "' missing from docs/TESTING.md";
    }
}

} // namespace
