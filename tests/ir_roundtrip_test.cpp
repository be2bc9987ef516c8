/**
 * @file
 * Print/parse round-trip over every shipped example module: printing
 * a parsed module and re-parsing the result must reproduce the exact
 * same text. This pins the textual format both directions — parser
 * accepting what the printer emits and the printer being a fixed
 * point — including tradeoff/statedep/auxclone metadata and the bad/
 * modules (ill-formed semantically, but syntactically valid).
 */

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/parser.hpp"

#include "repo_files.hpp"

namespace {

namespace fs = std::filesystem;
using namespace stats;
using namespace stats::repo_files;

std::vector<fs::path>
exampleModules()
{
    std::vector<fs::path> paths;
    const fs::path root = fs::path(STATS_SOURCE_DIR) / "examples" / "ir";
    for (const auto &entry : fs::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && entry.path().extension() == ".ir")
            paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

TEST(IrRoundTrip, ExamplesDirectoryIsPopulated)
{
    // pipeline, loop_phi, aux_cloned + the five seeded-bad modules.
    EXPECT_GE(exampleModules().size(), 8u);
}

TEST(IrRoundTrip, PrintParsePrintIsByteIdentical)
{
    for (const auto &path : exampleModules()) {
        const std::string source = readFile(path);
        const std::string printed =
            ir::printModule(ir::parseModule(source));
        const std::string reprinted =
            ir::printModule(ir::parseModule(printed));
        EXPECT_EQ(reprinted, printed) << path;
        // Parsing must preserve everything the printer renders.
        EXPECT_FALSE(printed.empty()) << path;
    }
}

/**
 * aux_cloned.ir is machine-generated (`statscc pipeline --emit=midend`)
 * and therefore exactly in the printer's canonical form; this keeps
 * the checked-in file from drifting when the printer changes.
 */
TEST(IrRoundTrip, GeneratedExampleIsCanonical)
{
    const fs::path path =
        fs::path(STATS_SOURCE_DIR) / "examples" / "ir" / "aux_cloned.ir";
    const std::string source = readFile(path);
    EXPECT_EQ(ir::printModule(ir::parseModule(source)), source);
}

} // namespace
