/**
 * @file
 * Golden-file tests of the `statscc log diff` renderer
 * (replay/log_render.hpp). The goldens under tests/golden/ pin the
 * diff output byte-for-byte — `statscc log diff` prints exactly
 * `renderDiff(a, b).text`, so these tests freeze the driver's output
 * format for the three interesting outcomes: a mid-stream record
 * difference, identical logs, and skewed headers with a record-count
 * difference.
 *
 * To regenerate after an intentional format change, print the
 * corresponding renderDiff(...).text for the fixture logs below into
 * tests/golden/replay_diff_<name>.txt.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "replay/log_render.hpp"
#include "replay/record_log.hpp"

#include "repo_files.hpp"

namespace {

using namespace stats;
using namespace stats::repo_files;
using replay::Record;
using replay::RecordKind;
using replay::RecordLog;

Record
record(RecordKind kind, std::uint32_t epoch, std::int32_t group,
       std::int64_t a = 0, std::int64_t b = 0)
{
    Record rec;
    rec.kind = kind;
    rec.run = 0;
    rec.epoch = epoch;
    rec.group = group;
    rec.a = a;
    rec.b = b;
    return rec;
}

/** A small but representative engine run: begin, verdicts, end. */
RecordLog
baseLog()
{
    RecordLog log;
    log.rootSeed = 41;

    replay::RunConfigRecord config;
    config.useAuxiliary = 1;
    config.groupSize = 4;
    config.auxWindow = 2;
    config.maxReexecutions = 1;
    config.rollbackDepth = 2;
    config.sdThreads = 8;
    config.innerThreads = 1;
    config.inputCount = 16;
    Record begin = record(RecordKind::RunBegin, 0, -1);
    begin.payload = replay::encodeConfig(config);
    log.records.push_back(begin);

    log.records.push_back(record(RecordKind::Commit, 1, 0));
    log.records.push_back(
        record(RecordKind::MatchVerdict, 2, 1, /* verdict */ 0));
    log.records.push_back(record(RecordKind::Commit, 3, 1));

    replay::RunStatsRecord stats;
    stats.validations = 3;
    stats.mismatches = 0;
    stats.reexecutions = 0;
    stats.aborts = 0;
    stats.squashedGroups = 0;
    stats.invocations = 16;
    Record end = record(RecordKind::RunEnd, 4, -1);
    end.payload = replay::encodeStats(stats);
    log.records.push_back(end);
    return log;
}

TEST(ReplayDiffGolden, MismatchedVerdictRendersBothSides)
{
    const RecordLog a = baseLog();
    RecordLog b = baseLog();
    // The same choice point decided differently: a fault-forced
    // mismatch verdict in place of the match.
    b.records[2] =
        record(RecordKind::MatchVerdict, 2, 1, -1, /* forced */ 1);

    const replay::DiffRender render = replay::renderDiff(a, b);
    EXPECT_FALSE(render.identical);
    EXPECT_EQ(render.text,
              readRepoFile("tests/golden/replay_diff_mismatch.txt"));
}

TEST(ReplayDiffGolden, IdenticalLogsSaySo)
{
    const replay::DiffRender render =
        replay::renderDiff(baseLog(), baseLog());
    EXPECT_TRUE(render.identical);
    EXPECT_EQ(render.text,
              readRepoFile("tests/golden/replay_diff_identical.txt"));
}

TEST(ReplayDiffGolden, SeedSkewAndTruncationBothReported)
{
    const RecordLog a = baseLog();
    RecordLog b = baseLog();
    b.rootSeed = 43;
    b.records.pop_back(); // Truncated: no RunEnd.

    const replay::DiffRender render = replay::renderDiff(a, b);
    EXPECT_FALSE(render.identical);
    EXPECT_EQ(render.text,
              readRepoFile("tests/golden/replay_diff_seed_skew.txt"));
}

/** The diff renderer and the save/load round trip must agree. */
TEST(ReplayDiffGolden, RoundTrippedLogIsIdenticalToItself)
{
    const RecordLog a = baseLog();
    std::string error;
    std::istringstream in(a.saveToString());
    const auto loaded = RecordLog::load(in, error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_TRUE(replay::renderDiff(a, *loaded).identical);
}

} // namespace
