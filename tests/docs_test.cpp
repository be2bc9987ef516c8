/**
 * @file
 * Repository-wide documentation lockstep: the user-facing docs name
 * only commands that exist. `statscc` is the one offline driver and
 * `statsd` the one daemon, so no doc may send a reader to a removed
 * binary or subcommand.
 */

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "repo_files.hpp"

namespace {

namespace fs = std::filesystem;
using namespace stats::repo_files;

/** The user-facing docs: top-level guides plus every docs/ page. */
std::vector<std::string>
userDocs()
{
    std::vector<std::string> docs = {"README.md", "DESIGN.md",
                                     "EXPERIMENTS.md", "tools/README.md",
                                     "e2ebench/README.md"};
    for (const auto &entry : fs::directory_iterator(sourcePath("docs"))) {
        if (entry.path().extension() == ".md")
            docs.push_back(
                (fs::path("docs") / entry.path().filename()).string());
    }
    return docs;
}

TEST(DocsLockstep, NoDocNamesARemovedCommand)
{
    for (const auto &doc : userDocs()) {
        const std::string text = readRepoFile(doc);
        for (const char *removed :
             {"stats-lint", "stats-fuzz", "stats-replay",
              "stats-trace-dump", "statscc serve"}) {
            EXPECT_EQ(text.find(removed), std::string::npos)
                << doc << " names the removed command '" << removed
                << "'";
        }
    }
}

} // namespace
