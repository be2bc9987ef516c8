/**
 * @file
 * Shared helpers for the tests that read checked-in repository files:
 * the docs-lockstep checks and the golden-file comparisons. Each such
 * test target defines STATS_SOURCE_DIR (tests/CMakeLists.txt).
 */

#pragma once

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace stats::repo_files {

/** Whole contents of `path`; a test failure when it cannot be read. */
inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Absolute path of a file given relative to the repository root. */
inline std::string
sourcePath(const std::string &relative)
{
    return std::string(STATS_SOURCE_DIR) + "/" + relative;
}

/** Contents of a file given relative to the repository root. */
inline std::string
readRepoFile(const std::string &relative)
{
    return readFile(sourcePath(relative));
}

/** `name` in backticks, the way the docs mark code names. */
inline std::string
backticked(const std::string &name)
{
    std::string quoted = "`";
    quoted += name;
    quoted += '`';
    return quoted;
}

} // namespace stats::repo_files
