/**
 * @file
 * Unit tests of the generative-testing subsystem (src/testing/): the
 * generator's determinism contract, the case serialization round
 * trip, the oracle's verdicts on known-good and known-bad cases, and
 * the shrinker's guarantees (failure kind preserved, result smaller).
 */

#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "ir/verifier.hpp"
#include "replay/session.hpp"
#include "testing/fuzz_case.hpp"
#include "testing/generator.hpp"
#include "testing/oracle.hpp"
#include "testing/shrinker.hpp"

namespace {

using namespace stats;
using namespace stats::testing;

// ---------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------

TEST(FuzzGenerator, SameSeedAndIndexIsByteIdentical)
{
    const FuzzCase a = generateCase(5, 3);
    const FuzzCase b = generateCase(5, 3);
    EXPECT_EQ(serializeCase(a), serializeCase(b));
}

TEST(FuzzGenerator, DifferentIndicesDiffer)
{
    EXPECT_NE(serializeCase(generateCase(5, 3)),
              serializeCase(generateCase(5, 4)));
    EXPECT_NE(serializeCase(generateCase(5, 3)),
              serializeCase(generateCase(6, 3)));
}

TEST(FuzzGenerator, ValidCasesPassTheVerifier)
{
    for (std::uint64_t index : {0u, 1u, 2u, 4u, 5u, 9u, 12u}) {
        const FuzzCase fuzz_case = generateCase(17, index);
        ASSERT_EQ(fuzz_case.expect, Expectation::Pass) << index;
        EXPECT_TRUE(ir::verifyModule(fuzz_case.module).empty())
            << "case " << index;
        EXPECT_FALSE(fuzz_case.module.stateDeps.empty()) << index;
    }
}

TEST(FuzzGenerator, NearMissCadenceProducesRejectCases)
{
    GeneratorOptions options;
    options.nearMissEvery = 8;
    // Indices 7, 15, 23, ... are near-misses; everything else passes.
    std::set<std::string> stages;
    for (std::uint64_t index : {7u, 15u, 23u, 31u, 39u}) {
        const FuzzCase fuzz_case = generateCase(17, index, options);
        ASSERT_EQ(fuzz_case.expect, Expectation::Reject) << index;
        ASSERT_FALSE(fuzz_case.expectStage.empty()) << index;
        EXPECT_TRUE(fuzz_case.scenario.faults.empty()) << index;
        stages.insert(fuzz_case.expectStage);
    }
    for (const auto &stage : stages)
        EXPECT_TRUE(stage == "verify" || stage == "analysis") << stage;
}

TEST(FuzzGenerator, FaultCadenceAttachesFaultPlans)
{
    GeneratorOptions options;
    options.faultsEvery = 4;
    options.nearMissEvery = 0;
    const FuzzCase with = generateCase(17, 3, options);
    const FuzzCase without = generateCase(17, 4, options);
    EXPECT_FALSE(with.scenario.faults.empty());
    EXPECT_TRUE(without.scenario.faults.empty());
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

TEST(FuzzCaseFormat, SerializeParseRoundTripIsExact)
{
    for (std::uint64_t index : {0u, 3u, 7u}) {
        const FuzzCase original = generateCase(23, index);
        const std::string text = serializeCase(original);
        std::string error;
        const auto parsed = parseCase(text, error);
        ASSERT_TRUE(parsed.has_value()) << error;
        EXPECT_EQ(serializeCase(*parsed), text) << "index " << index;
    }
}

TEST(FuzzCaseFormat, BadScenarioTokensAreRejected)
{
    std::string error;
    EXPECT_FALSE(parseCase("; fuzz-case: v1\n; bogus=1\n\nmodule \"m\"\n",
                           error)
                     .has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseCase("module \"m\"\n", error).has_value());
}

// ---------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------

TEST(FuzzOracle, GeneratedPassCasesHoldTheDifferentialProperty)
{
    for (std::uint64_t index : {0u, 1u, 2u}) {
        const FuzzCase fuzz_case = generateCase(29, index);
        const OracleResult result = runOracle(fuzz_case);
        EXPECT_TRUE(result.ok)
            << "case " << index << ": " << result.failKind << " at "
            << result.stage << ": " << result.detail;
        EXPECT_FALSE(result.sequentialFinals.empty());
    }
}

TEST(FuzzOracle, VerdictsAreDeterministic)
{
    const FuzzCase fuzz_case = generateCase(31, 3);
    const OracleResult a = runOracle(fuzz_case);
    const OracleResult b = runOracle(fuzz_case);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.sequentialFinals, b.sequentialFinals);
    EXPECT_EQ(a.cleanStats.validations, b.cleanStats.validations);
    EXPECT_EQ(a.cleanStats.aborts, b.cleanStats.aborts);
}

TEST(FuzzOracle, NearMissCasesAreRejectedAtTheirStage)
{
    bool saw_reject = false;
    for (std::uint64_t index : {7u, 15u, 23u}) {
        const FuzzCase fuzz_case = generateCase(29, index);
        if (fuzz_case.expect != Expectation::Reject)
            continue;
        const OracleResult result = runOracle(fuzz_case);
        EXPECT_TRUE(result.ok) << result.detail;
        EXPECT_TRUE(result.rejected);
        EXPECT_EQ(result.stage, fuzz_case.expectStage);
        saw_reject = true;
    }
    EXPECT_TRUE(saw_reject);
}

TEST(FuzzOracle, AcceptedNearMissIsAFailure)
{
    // A valid module marked reject must yield missed-rejection: the
    // oracle's own failure path, which the shrinker test reuses.
    FuzzCase fuzz_case = generateCase(29, 0);
    fuzz_case.expect = Expectation::Reject;
    fuzz_case.expectStage = "verify";
    const OracleResult result = runOracle(fuzz_case);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.failKind, "missed-rejection");
}

/** One oracle run recorded into a private session of its own. */
struct RecordedOracle
{
    OracleResult result;
    std::string log;
    std::size_t runs = 0;   ///< RunEnd records.
    std::size_t faults = 0; ///< FaultInjected records.
};

RecordedOracle
recordOracle(const FuzzCase &fuzz_case)
{
    replay::ReplaySession session;
    session.startRecording(fuzz_case.scenario.seed);
    RecordedOracle run;
    run.result = runOracle(fuzz_case, {}, session);
    const replay::RecordLog log = session.finishRecording();
    run.log = log.saveToString();
    for (const replay::Record &record : log.records) {
        run.runs += record.kind == replay::RecordKind::RunEnd;
        run.faults += record.kind == replay::RecordKind::FaultInjected;
    }
    return run;
}

void
expectSameStats(const sdi::EngineStats &a, const sdi::EngineStats &b)
{
    EXPECT_EQ(a.groups, b.groups);
    EXPECT_EQ(a.auxTasks, b.auxTasks);
    EXPECT_EQ(a.validations, b.validations);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_EQ(a.reexecutions, b.reexecutions);
    EXPECT_EQ(a.aborts, b.aborts);
    EXPECT_EQ(a.squashedGroups, b.squashedGroups);
    EXPECT_EQ(a.sequentialInputs, b.sequentialInputs);
    EXPECT_EQ(a.invocations, b.invocations);
}

TEST(FuzzOracle, ConcurrentPrivateSessionsMatchSoloRuns)
{
    // Two fault-storm cases, each recorded into its own session: run
    // concurrently, neither sees the other's fault plan or records.
    GeneratorOptions options;
    options.faultsEvery = 1;
    options.nearMissEvery = 0;
    const std::vector<FuzzCase> cases = {generateCase(43, 5, options),
                                         generateCase(43, 8, options)};
    std::vector<RecordedOracle> solo;
    for (const FuzzCase &fuzz_case : cases) {
        ASSERT_FALSE(fuzz_case.scenario.faults.empty());
        solo.push_back(recordOracle(fuzz_case));
        ASSERT_TRUE(solo.back().result.ok) << solo.back().result.detail;
        ASSERT_TRUE(solo.back().result.faulted);
        // Both engine runs (clean, storm) reported to the session,
        // and the storm injected faults.
        EXPECT_EQ(solo.back().runs, 2u);
        EXPECT_GT(solo.back().faults, 0u);
    }
    ASSERT_NE(solo[0].log, solo[1].log);

    for (int round = 0; round < 3; ++round) {
        std::vector<RecordedOracle> concurrent(cases.size());
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < cases.size(); ++i)
            threads.emplace_back(
                [&, i] { concurrent[i] = recordOracle(cases[i]); });
        for (auto &thread : threads)
            thread.join();
        for (std::size_t i = 0; i < cases.size(); ++i) {
            EXPECT_EQ(concurrent[i].log, solo[i].log) << "case " << i;
            expectSameStats(concurrent[i].result.cleanStats,
                            solo[i].result.cleanStats);
            expectSameStats(concurrent[i].result.faultStats,
                            solo[i].result.faultStats);
        }
    }

    const auto &global = replay::ReplaySession::global();
    EXPECT_EQ(global.mode(), replay::Mode::Off);
    EXPECT_FALSE(global.faultsActive());
}

TEST(FuzzOracle, NoiseModelIsPureAndGated)
{
    EXPECT_EQ(noiseFor(9, 4, 1, 50, 3), noiseFor(9, 4, 1, 50, 3));
    EXPECT_EQ(noiseFor(9, 4, 1, 0, 3), 0);
    for (int attempt = 0; attempt < 16; ++attempt) {
        const long long noise = noiseFor(9, 4, attempt, 100, 3);
        EXPECT_GE(noise, 0);
        EXPECT_LE(noise, 3);
    }
}

TEST(FuzzOracle, WrapStateConfinesToDomain)
{
    EXPECT_EQ(wrapState(0), 0);
    EXPECT_EQ(wrapState((1LL << 20) + 5), 5);
    EXPECT_GE(wrapState(-3), 0);
    EXPECT_LT(wrapState(-3), 1LL << 20);
}

TEST(FuzzOracle, LegalAttemptsTracksReexecutionBudget)
{
    Scenario scenario;
    scenario.config.maxReexecutions = 0;
    EXPECT_EQ(legalAttempts(scenario), 2);
    scenario.config.maxReexecutions = 3;
    EXPECT_EQ(legalAttempts(scenario), 5);
}

// ---------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------

TEST(FuzzShrinker, PreservesFailureKindAndReducesTheCase)
{
    FuzzCase failing = generateCase(37, 2);
    failing.expect = Expectation::Reject; // Valid module: must fail.
    failing.expectStage = "verify";

    ShrinkOptions options;
    options.maxEvaluations = 120;
    const ShrinkResult result = shrinkCase(failing, options);
    EXPECT_EQ(result.failKind, "missed-rejection");
    EXPECT_LE(result.minimized.scenario.inputs,
              failing.scenario.inputs);
    EXPECT_LE(result.minimized.module.instructionCount(),
              failing.module.instructionCount());
    // The minimized case still fails the same way.
    const OracleResult check = runOracle(result.minimized);
    EXPECT_FALSE(check.ok);
    EXPECT_EQ(check.failKind, "missed-rejection");
}

TEST(FuzzShrinker, PassingCaseIsReturnedUnchanged)
{
    const FuzzCase passing = generateCase(37, 0);
    const ShrinkResult result = shrinkCase(passing);
    EXPECT_FALSE(result.changed);
    EXPECT_TRUE(result.failKind.empty());
    EXPECT_EQ(serializeCase(result.minimized), serializeCase(passing));
}

} // namespace
