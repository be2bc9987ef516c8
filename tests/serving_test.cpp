/**
 * @file
 * The serving subsystem (src/serving/, docs/SERVING.md): execution
 * plans, admission control, the WDRR scheduler with cross-request
 * batching, the plan runner, the in-process server, the wire
 * protocol, and the socket daemon end to end.
 *
 * Also the docs-lockstep suite for docs/SERVING.md — the reject
 * reasons, wire message types, and plan text keys named there must
 * match the code — and the byte-exact goldens pinning the plan's
 * binary and text encodings (tests/golden/serving_plan.stpl / .txt).
 * To regenerate after an intentional schema change, write
 * `goldenPlan().saveToString()` / `goldenPlan().toText()` to those
 * files and bump kPlanSchemaVersion.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "observability/metrics.hpp"
#include "replay/record_log.hpp"
#include "replay/session.hpp"
#include "serving/admission.hpp"
#include "serving/client.hpp"
#include "serving/daemon.hpp"
#include "serving/execution_plan.hpp"
#include "serving/protocol.hpp"
#include "serving/runner.hpp"
#include "serving/scheduler.hpp"
#include "serving/server.hpp"

#include "repo_files.hpp"
#include "serving_test_util.hpp"

namespace {

using namespace stats;
using namespace stats::repo_files;
using serving::AdmissionController;
using serving::AdmissionVerdict;
using serving::ExecutionPlan;
using serving::JobKind;
using serving::PlanResult;
using serving::PlanRunner;
using serving::PlanScheduler;
using serving::QueuedPlan;
using serving::RejectReason;
using serving::RequestState;
using serving::Server;
using serving::TenantQuota;

/** A minimal valid module: one state dependence, pure arithmetic. */
const char *const kFixtureModule =
    "module \"serving_fixture\"\n"
    "statedep SD0 compute=@computeOutput\n"
    "\n"
    "func @computeOutput(i64 %input, i64 %state) -> i64 {\n"
    "entry:\n"
    "  %a = add i64 %state, %input\n"
    "  ret i64 %a\n"
    "}\n";

/** A second program with the fixture's signature. */
const char *const kAffineModule =
    "module \"serving_affine\"\n"
    "statedep SD0 compute=@computeOutput\n"
    "\n"
    "func @computeOutput(i64 %input, i64 %state) -> i64 {\n"
    "entry:\n"
    "  %a = mul i64 %state, 3\n"
    "  %b = add i64 %a, %input\n"
    "  ret i64 %b\n"
    "}\n";

/** Runnable, but its auxiliary code calls an effectful builtin: the
 *  lint rejects it, a server without the lint admits it. */
const char *const kImpureAuxModule =
    "module \"serving_impure_aux\"\n"
    "statedep SD0 compute=@computeOutput aux=@computeOutput__aux0\n"
    "auxclone computeOutput__aux0 origin=@computeOutput "
    "statedep=SD0\n"
    "\n"
    "func @computeOutput(i64 %input, i64 %state) -> i64 {\n"
    "entry:\n"
    "  %a = add i64 %state, %input\n"
    "  ret i64 %a\n"
    "}\n"
    "\n"
    "func @computeOutput__aux0(i64 %input, i64 %state) -> i64 {\n"
    "entry:\n"
    "  %noise = call f64 @rand_uniform\n"
    "  %a = add i64 %state, %input\n"
    "  ret i64 %a\n"
    "}\n";

/** The fixture program with its increment set to `n`: a distinct
 *  module per `n`. */
std::string
numberedModule(std::size_t n)
{
    return "module \"serving_numbered\"\n"
           "statedep SD0 compute=@computeOutput\n"
           "\n"
           "func @computeOutput(i64 %input, i64 %state) -> i64 {\n"
           "entry:\n"
           "  %a = add i64 %state, " +
           std::to_string(n) +
           "\n"
           "  %b = add i64 %a, %input\n"
           "  ret i64 %b\n"
           "}\n";
}

/** A sequential plan over the fixture module. */
ExecutionPlan
seqPlan(std::uint64_t seed = 7, const std::string &tenant = "alpha")
{
    ExecutionPlan plan;
    plan.kind = JobKind::IrSequential;
    plan.tenant = tenant;
    plan.moduleText = kFixtureModule;
    plan.rootSeed = seed;
    plan.inputs = 12;
    plan.noisyPercent = 25;
    plan.maxNoise = 2;
    return plan;
}

/** A speculative plan (engine-backed, records choice points). */
ExecutionPlan
specPlan(std::uint64_t seed = 7)
{
    ExecutionPlan plan = seqPlan(seed);
    plan.kind = JobKind::IrSpeculative;
    return plan;
}

/** The fixed plan behind the byte-exact goldens: every field set. */
ExecutionPlan
goldenPlan()
{
    ExecutionPlan plan;
    plan.tenant = "golden";
    plan.priority = -3;
    plan.kind = JobKind::IrSequential;
    plan.moduleText = kFixtureModule;
    plan.tradeoffIndices = {{"aux::T_42", 4}, {"aux::T_43", 1}};
    plan.limits.useAuxiliary = true;
    plan.limits.groupSize = 5;
    plan.limits.auxWindow = 3;
    plan.limits.maxReexecutions = 1;
    plan.limits.rollbackDepth = 1;
    plan.limits.sdThreads = 6;
    plan.limits.innerThreads = 2;
    plan.limits.auxBatchGroups = 2;
    plan.stepBudget = 250000;
    plan.execTier = ir::ExecTier::Bytecode;
    plan.batchLanes = 4;
    plan.rootSeed = 20260808;
    plan.inputs = 16;
    plan.initialState = 11;
    plan.noisyPercent = 50;
    plan.maxNoise = 2;
    plan.faults = "mismatch@g3";
    plan.recordChoices = false;
    plan.noCache = true;
    return plan;
}

/** Server options with quotas that never push back. */
Server::Options
openOptions(bool run_analysis)
{
    Server::Options options;
    options.runAnalysis = run_analysis;
    options.defaultQuota.ratePerSec = 1e9;
    options.defaultQuota.burst = 1e9;
    options.defaultQuota.maxQueued = 1 << 20;
    return options;
}

/** Every module under examples/ir/, clean and bad/, in path order. */
std::vector<std::string>
exampleModules()
{
    std::vector<std::string> paths;
    for (const char *dir : {"examples/ir", "examples/ir/bad"})
        for (const auto &entry :
             std::filesystem::directory_iterator(sourcePath(dir)))
            if (entry.path().extension() == ".ir")
                paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> modules;
    for (const auto &path : paths)
        modules.push_back(readFile(path));
    return modules;
}

std::int64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

QueuedPlan
queued(const ExecutionPlan &plan, std::uint64_t request_id = 0)
{
    QueuedPlan item;
    item.requestId = request_id;
    item.plan = std::make_shared<const ExecutionPlan>(plan);
    return item;
}

// ===================================================== ExecutionPlan

TEST(ExecutionPlanTest, BinaryRoundTripPreservesEveryField)
{
    const ExecutionPlan plan = goldenPlan();
    std::string error;
    const auto loaded = ExecutionPlan::load(plan.saveToString(), error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(plan, *loaded);
}

TEST(ExecutionPlanTest, TextRoundTripPreservesEveryField)
{
    const ExecutionPlan plan = goldenPlan();
    std::string error;
    const auto parsed = ExecutionPlan::fromText(plan.toText(), error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(plan, *parsed);
}

TEST(ExecutionPlanTest, BenchmarkKindRoundTrips)
{
    ExecutionPlan plan;
    plan.kind = JobKind::Benchmark;
    plan.moduleRef = "swaptions";
    plan.benchMode = "seq";
    plan.benchThreads = 4;
    plan.benchWorkload = "bad";
    std::string error;
    const auto binary = ExecutionPlan::load(plan.saveToString(), error);
    ASSERT_TRUE(binary.has_value()) << error;
    EXPECT_EQ(plan, *binary);
    const auto text = ExecutionPlan::fromText(plan.toText(), error);
    ASSERT_TRUE(text.has_value()) << error;
    EXPECT_EQ(plan, *text);
}

TEST(ExecutionPlanTest, BinaryGoldenIsByteExact)
{
    EXPECT_EQ(goldenPlan().saveToString(),
              readRepoFile("tests/golden/serving_plan.stpl"));
}

TEST(ExecutionPlanTest, TextGoldenIsByteExact)
{
    EXPECT_EQ(goldenPlan().toText(),
              readRepoFile("tests/golden/serving_plan.txt"));
}

TEST(ExecutionPlanTest, VersionSkewIsRejectedNotGuessed)
{
    // Magic + varint(schema+1): a plan from a future build.
    std::string bytes = "STPL";
    bytes.push_back(
        static_cast<char>(serving::kPlanSchemaVersion + 1));
    std::string error;
    EXPECT_FALSE(ExecutionPlan::load(bytes, error).has_value());
    EXPECT_NE(error.find("unsupported plan schema"),
              std::string::npos)
        << error;
}

TEST(ExecutionPlanTest, BadMagicAndTruncationFailCleanly)
{
    std::string error;
    EXPECT_FALSE(ExecutionPlan::load("NOPE", error).has_value());
    const std::string good = goldenPlan().saveToString();
    for (const std::size_t cut : {std::size_t(5), good.size() / 2,
                                  good.size() - 1})
        EXPECT_FALSE(
            ExecutionPlan::load(good.substr(0, cut), error)
                .has_value())
            << "cut at " << cut;
    // Trailing garbage is also an error, not silently ignored.
    EXPECT_FALSE(ExecutionPlan::load(good + "x", error).has_value());
}

TEST(ExecutionPlanTest, HugeDeclaredStringLengthFailsCleanly)
{
    // Regression: a string-length varint near UINT64_MAX used to
    // wrap the decoder's `pos + size` bounds check. The decoder must
    // fail fast, not proceed on a wrapped cursor.
    std::string bytes = "STPL";
    replay::putVarint(bytes, serving::kPlanSchemaVersion);
    // Tenant string claiming UINT64_MAX bytes, none present.
    replay::putVarint(bytes, ~std::uint64_t{0});
    std::string error;
    EXPECT_FALSE(ExecutionPlan::load(bytes, error).has_value());
}

TEST(ExecutionPlanTest, TextParserRejectsUnknownKeysWithLineNumbers)
{
    const std::string header =
        "plan v" + std::to_string(serving::kPlanSchemaVersion);
    std::string error;
    EXPECT_FALSE(ExecutionPlan::fromText(
                     header + "\nflavor vanilla\n", error)
                     .has_value());
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_FALSE(
        ExecutionPlan::fromText("kind ir-seq\n", error).has_value());
    EXPECT_NE(error.find("missing the '" + header + "' header"),
              std::string::npos)
        << error;
}

TEST(ExecutionPlanTest, CompatibilityKeySeparatesPrograms)
{
    const ExecutionPlan a = seqPlan(1);
    ExecutionPlan b = seqPlan(2); // Seed differs: still compatible.
    EXPECT_EQ(a.compatibilityKey(), b.compatibilityKey());
    EXPECT_TRUE(a.canBatchWith(b));

    b.stepBudget += 1;
    EXPECT_NE(a.compatibilityKey(), b.compatibilityKey());
    EXPECT_FALSE(a.canBatchWith(b));

    ExecutionPlan c = seqPlan(3);
    c.batchLanes = 1; // Fusion disabled for this plan.
    EXPECT_FALSE(a.canBatchWith(c));
    EXPECT_FALSE(a.canBatchWith(specPlan()));
}

/** Forces every plan onto one compatibility key while alive. */
class ForcedKeyCollision
{
  public:
    ForcedKeyCollision()
    {
        serving::testonly::forceCompatibilityKey(0x5eed);
    }
    ~ForcedKeyCollision()
    {
        serving::testonly::forceCompatibilityKey(std::nullopt);
    }
};

TEST(ExecutionPlanTest, KeyCollisionNeitherSharesACompiledModuleNorFuses)
{
    const ExecutionPlan add = seqPlan(5);
    ExecutionPlan affine = seqPlan(5);
    affine.moduleText = kAffineModule;
    const PlanResult add_alone = PlanRunner().runPlan(add);
    const PlanResult affine_alone = PlanRunner().runPlan(affine);
    ASSERT_TRUE(add_alone.ok && affine_alone.ok);
    ASSERT_NE(add_alone.resultBlob, affine_alone.resultBlob);

    const ForcedKeyCollision collision;
    ASSERT_EQ(add.compatibilityKey(), affine.compatibilityKey());
    EXPECT_FALSE(add.canBatchWith(affine));

    PlanScheduler scheduler;
    scheduler.enqueue(1, std::make_shared<const ExecutionPlan>(add));
    scheduler.enqueue(2, std::make_shared<const ExecutionPlan>(affine));
    EXPECT_EQ(scheduler.nextBatch().size(), 1u);
    EXPECT_EQ(scheduler.nextBatch().size(), 1u);

    PlanRunner runner;
    EXPECT_EQ(runner.runPlan(add).resultBlob, add_alone.resultBlob);
    EXPECT_EQ(runner.runPlan(affine).resultBlob,
              affine_alone.resultBlob);
    EXPECT_EQ(runner.cacheSize(), 2u);
    EXPECT_EQ(runner.cacheHits(), 0u);

    Server server;
    const auto first = server.submitPlan(add);
    const auto second = server.submitPlan(affine);
    ASSERT_TRUE(first.admitted() && second.admitted());
    server.drain();
    const auto add_served = server.status(first.requestId);
    const auto affine_served = server.status(second.requestId);
    EXPECT_EQ(add_served.result.resultBlob, add_alone.resultBlob);
    EXPECT_EQ(affine_served.result.resultBlob,
              affine_alone.resultBlob);
    EXPECT_EQ(add_served.result.batchedLanes, 1);
    EXPECT_EQ(affine_served.result.batchedLanes, 1);
}

// ========================================================= Admission

TEST(AdmissionTest, ValidatesInlineIrThroughTheCompilerGates)
{
    EXPECT_TRUE(
        AdmissionController::validate(seqPlan(), true).admitted());

    ExecutionPlan bad_parse = seqPlan();
    bad_parse.moduleText = "module \"x\"\nfunc @f( {\n";
    EXPECT_EQ(AdmissionController::validate(bad_parse, true).reason,
              RejectReason::ParseError);

    ExecutionPlan no_dep = seqPlan();
    no_dep.moduleText =
        "module \"x\"\n"
        "func @f(i64 %a, i64 %b) -> i64 {\nentry:\n  ret i64 %a\n}\n";
    const auto verdict = AdmissionController::validate(no_dep, true);
    EXPECT_EQ(verdict.reason, RejectReason::VerifyError);
    EXPECT_NE(verdict.detail.find("no state dependence"),
              std::string::npos);
}

TEST(AdmissionTest, LintRunsAtAdmissionUnlessDisabled)
{
    ExecutionPlan impure = seqPlan();
    impure.moduleText =
        readRepoFile("examples/ir/bad/bad_impure_clone.ir");
    EXPECT_EQ(AdmissionController::validate(impure, true).reason,
              RejectReason::AnalysisError);
    // statsd --no-analysis skips exactly this stage.
    EXPECT_TRUE(
        AdmissionController::validate(impure, false).admitted());
}

TEST(AdmissionTest, ConfigurationPointMustBindToRealTradeoffs)
{
    ExecutionPlan plan = seqPlan();
    plan.moduleText = readRepoFile("examples/ir/pipeline.ir");

    plan.tradeoffIndices = {{"aux::T_42", 4}};
    EXPECT_TRUE(AdmissionController::validate(plan, true).admitted());

    plan.tradeoffIndices = {{"aux::T_99", 0}};
    auto verdict = AdmissionController::validate(plan, true);
    EXPECT_EQ(verdict.reason, RejectReason::VerifyError);
    EXPECT_NE(verdict.detail.find("unknown tradeoff"),
              std::string::npos);

    // aux::T_42 has size 10: valid indices are [0, 10).
    plan.tradeoffIndices = {{"aux::T_42", 10}};
    verdict = AdmissionController::validate(plan, true);
    EXPECT_EQ(verdict.reason, RejectReason::VerifyError);
    EXPECT_NE(verdict.detail.find("out of range"), std::string::npos);
}

TEST(AdmissionTest, UnknownBenchmarkAndBadFaultSpecAreRejected)
{
    ExecutionPlan bench;
    bench.kind = JobKind::Benchmark;
    bench.moduleRef = "no-such-benchmark";
    EXPECT_EQ(AdmissionController::validate(bench, true).reason,
              RejectReason::UnknownModule);

    ExecutionPlan faulty = seqPlan();
    faulty.faults = "not a fault spec";
    EXPECT_EQ(AdmissionController::validate(faulty, true).reason,
              RejectReason::MalformedPlan);
}

TEST(AdmissionTest, ServerVerdictsEqualStaticValidateOnEverySubmit)
{
    // Every example module under the plain and speculative fixture
    // plans and under both serving goldens, plus the goldens as
    // checked in.
    std::string error;
    std::vector<ExecutionPlan> bases = {seqPlan(), specPlan()};
    const auto golden_binary = ExecutionPlan::load(
        readRepoFile("tests/golden/serving_plan.stpl"), error);
    const auto golden_text = ExecutionPlan::fromText(
        readRepoFile("tests/golden/serving_plan.txt"), error);
    ASSERT_TRUE(golden_binary && golden_text) << error;
    bases.push_back(*golden_binary);
    bases.push_back(*golden_text);
    std::vector<ExecutionPlan> plans = {*golden_binary, *golden_text};
    // A lint-failing module under a bad tradeoff index: the binding
    // check ranks first.
    ExecutionPlan lint_and_index = seqPlan();
    lint_and_index.moduleText = readRepoFile(
        "examples/ir/bad/bad_divergent_clone.ir");
    lint_and_index.tradeoffIndices = {{"aux::T_9", 1000}};
    ASSERT_EQ(AdmissionController::validate(lint_and_index, true).reason,
              RejectReason::VerifyError);
    plans.push_back(lint_and_index);
    for (const std::string &module : exampleModules())
        for (ExecutionPlan plan : bases) {
            plan.moduleText = module;
            plans.push_back(plan);
        }

    Server server(openOptions(true));
    for (int round = 0; round < 2; ++round)
        for (std::size_t i = 0; i < plans.size(); ++i) {
            const AdmissionVerdict expected =
                AdmissionController::validate(plans[i], true);
            const AdmissionVerdict served =
                server.submitPlan(plans[i]).verdict;
            EXPECT_EQ(served.reason, expected.reason)
                << "plan " << i << ", round " << round;
            EXPECT_EQ(served.detail, expected.detail)
                << "plan " << i << ", round " << round;
        }
    server.drain();
}

TEST(AdmissionTest, PlanChecksRunAgainstACachedModule)
{
    Server server(openOptions(true));
    ExecutionPlan good = seqPlan();
    good.moduleText = readRepoFile("examples/ir/pipeline.ir");
    good.tradeoffIndices = {{"aux::T_42", 4}};
    ASSERT_TRUE(server.submitPlan(good).admitted());

    ExecutionPlan bad_index = good;
    bad_index.tradeoffIndices = {{"aux::T_42", 10}};
    ExecutionPlan unknown = good;
    unknown.tradeoffIndices = {{"aux::T_99", 0}};
    ExecutionPlan bad_faults = good;
    bad_faults.faults = "not a fault spec";
    const std::int64_t hits_before =
        counterValue("serving.admission.module_hits");
    for (const ExecutionPlan *plan : {&bad_index, &unknown, &bad_faults}) {
        const AdmissionVerdict expected =
            AdmissionController::validate(*plan, true);
        const AdmissionVerdict served = server.submitPlan(*plan).verdict;
        EXPECT_EQ(served.reason, expected.reason);
        EXPECT_EQ(served.detail, expected.detail);
    }
    EXPECT_EQ(server.submitPlan(bad_index).verdict.reason,
              RejectReason::VerifyError);
    EXPECT_EQ(server.submitPlan(bad_faults).verdict.reason,
              RejectReason::MalformedPlan);
    // All five were judged against the module admitted first.
    EXPECT_EQ(counterValue("serving.admission.module_hits") -
                  hits_before,
              5);
    server.drain();
}

TEST(AdmissionTest, ServersWithAndWithoutLintNeverShareAVerdict)
{
    ExecutionPlan plan = seqPlan();
    plan.moduleText = kImpureAuxModule;
    ASSERT_EQ(AdmissionController::validate(plan, true).reason,
              RejectReason::AnalysisError);
    ASSERT_TRUE(AdmissionController::validate(plan, false).admitted());

    Server linting(openOptions(true));
    Server trusting(openOptions(false));
    for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(linting.submitPlan(plan).verdict.reason,
                  RejectReason::AnalysisError)
            << "round " << round;
        EXPECT_TRUE(trusting.submitPlan(plan).admitted())
            << "round " << round;
    }
    linting.drain();
    trusting.drain();
}

TEST(AdmissionTest, AdmittedModuleTableIsBoundedAndSharesEntries)
{
    serving::AdmittedModuleTable table(true);
    const auto first = table.admit(kFixtureModule);
    ASSERT_TRUE(first->verdict.admitted()) << first->verdict.detail;
    EXPECT_EQ(table.admit(kFixtureModule), first);
    for (std::size_t n = 0; n < serving::kAdmittedModuleCapacity + 8;
         ++n) {
        ASSERT_TRUE(table.admit(numberedModule(n))->verdict.admitted());
        ASSERT_LE(table.size(), serving::kAdmittedModuleCapacity);
    }
    // Evicted: admitted afresh, to the same verdict.
    const auto again = table.admit(kFixtureModule);
    EXPECT_NE(again, first);
    EXPECT_TRUE(again->verdict.admitted());
}

TEST(AdmissionTest, TokenBucketEnforcesRateAndRefillsOverTime)
{
    double now = 0.0;
    TenantQuota quota;
    quota.ratePerSec = 1.0;
    quota.burst = 2.0;
    AdmissionController admission(quota, [&now] { return now; });

    EXPECT_TRUE(admission.admitQuota("t", 0).admitted());
    EXPECT_TRUE(admission.admitQuota("t", 0).admitted());
    const auto rejected = admission.admitQuota("t", 0);
    EXPECT_EQ(rejected.reason, RejectReason::QuotaExceeded);
    EXPECT_GT(rejected.retryAfterSeconds, 0.0);
    EXPECT_TRUE(serving::isBackpressure(rejected.reason));

    now += rejected.retryAfterSeconds; // One token has refilled.
    EXPECT_TRUE(admission.admitQuota("t", 0).admitted());
    EXPECT_EQ(admission.admitQuota("t", 0).reason,
              RejectReason::QuotaExceeded);
}

TEST(AdmissionTest, QueueBoundIsPerTenant)
{
    double now = 0.0;
    TenantQuota quota;
    quota.maxQueued = 2;
    AdmissionController admission(quota, [&now] { return now; });
    EXPECT_TRUE(admission.admitQuota("t", 1).admitted());
    const auto full = admission.admitQuota("t", 2);
    EXPECT_EQ(full.reason, RejectReason::QueueFull);
    EXPECT_TRUE(serving::isBackpressure(full.reason));
    // Another tenant's queue is independent.
    EXPECT_TRUE(admission.admitQuota("u", 0).admitted());
}

// ========================================================= Scheduler

TEST(SchedulerTest, WeightedDeficitRoundRobinIsProportional)
{
    PlanScheduler scheduler(1.0);
    scheduler.setWeight("a", 2);
    scheduler.setWeight("b", 1);

    ExecutionPlan a = seqPlan(1, "a");
    ExecutionPlan b = seqPlan(2, "b");
    a.batchLanes = 1; // Keep dispatch units at one plan each.
    b.batchLanes = 1;
    for (std::uint64_t i = 0; i < 6; ++i)
        scheduler.enqueue(100 + i,
                          std::make_shared<const ExecutionPlan>(a));
    for (std::uint64_t i = 0; i < 3; ++i)
        scheduler.enqueue(200 + i,
                          std::make_shared<const ExecutionPlan>(b));

    std::vector<std::string> order;
    while (!scheduler.empty()) {
        const auto batch = scheduler.nextBatch();
        ASSERT_EQ(batch.size(), 1u);
        order.push_back(batch.front().plan->tenant);
    }
    // Weight 2:1 with unit quantum: a, a, b repeating.
    const std::vector<std::string> expected = {"a", "a", "b", "a", "a",
                                              "b", "a", "a", "b"};
    EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, PriorityOrdersWithinATenantFifoWithinALevel)
{
    PlanScheduler scheduler;
    ExecutionPlan low = seqPlan(1);
    ExecutionPlan high = seqPlan(2);
    ExecutionPlan high2 = seqPlan(3);
    low.batchLanes = high.batchLanes = high2.batchLanes = 1;
    low.priority = 0;
    high.priority = 5;
    high2.priority = 5;
    scheduler.enqueue(1, std::make_shared<const ExecutionPlan>(low));
    scheduler.enqueue(2, std::make_shared<const ExecutionPlan>(high));
    scheduler.enqueue(3, std::make_shared<const ExecutionPlan>(high2));

    EXPECT_EQ(scheduler.nextBatch().front().requestId, 2u);
    EXPECT_EQ(scheduler.nextBatch().front().requestId, 3u);
    EXPECT_EQ(scheduler.nextBatch().front().requestId, 1u);
}

TEST(SchedulerTest, FusesCompatiblePlansAcrossTenants)
{
    PlanScheduler scheduler;
    ExecutionPlan a = seqPlan(1, "a");
    ExecutionPlan b = seqPlan(2, "b");
    ExecutionPlan other = seqPlan(3, "a");
    other.stepBudget += 1; // Different program: incompatible.
    a.batchLanes = b.batchLanes = other.batchLanes = 4;

    scheduler.enqueue(1, std::make_shared<const ExecutionPlan>(a));
    scheduler.enqueue(2, std::make_shared<const ExecutionPlan>(other));
    scheduler.enqueue(3, std::make_shared<const ExecutionPlan>(a));
    scheduler.enqueue(4, std::make_shared<const ExecutionPlan>(b));

    const auto batch = scheduler.nextBatch();
    ASSERT_EQ(batch.size(), 3u); // 1 + 3 (own queue) + 4 (tenant b).
    EXPECT_EQ(batch[0].requestId, 1u);
    EXPECT_EQ(batch[1].requestId, 3u);
    EXPECT_EQ(batch[2].requestId, 4u);

    // The incompatible plan dispatches on its own afterwards.
    const auto rest = scheduler.nextBatch();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest.front().requestId, 2u);
    EXPECT_TRUE(scheduler.empty());
}

TEST(SchedulerTest, BatchCapIsTheSmallestMemberLaneCount)
{
    PlanScheduler scheduler;
    ExecutionPlan wide = seqPlan(1);
    wide.batchLanes = 8;
    ExecutionPlan narrow = seqPlan(2);
    narrow.batchLanes = 2;
    scheduler.enqueue(1, std::make_shared<const ExecutionPlan>(wide));
    scheduler.enqueue(2,
                      std::make_shared<const ExecutionPlan>(narrow));
    scheduler.enqueue(3, std::make_shared<const ExecutionPlan>(wide));

    // narrow joins (cap drops to 2), so the third plan must wait.
    EXPECT_EQ(scheduler.nextBatch().size(), 2u);
    EXPECT_EQ(scheduler.nextBatch().size(), 1u);
}

TEST(SchedulerTest, LateNarrowPlanCannotJoinAnOversizedBatch)
{
    // Regression: a candidate seen only after the batch had already
    // grown past the candidate's own batchLanes used to be admitted
    // anyway (the cap shrank only after the size check), giving a
    // batch larger than one member's lane cap.
    PlanScheduler scheduler;
    ExecutionPlan wide = seqPlan(1);
    wide.batchLanes = 8;
    ExecutionPlan narrow = seqPlan(2);
    narrow.batchLanes = 2;
    scheduler.enqueue(1, std::make_shared<const ExecutionPlan>(wide));
    scheduler.enqueue(2, std::make_shared<const ExecutionPlan>(wide));
    scheduler.enqueue(3,
                      std::make_shared<const ExecutionPlan>(narrow));

    // The two wides fuse; narrow (cap 2) must not become lane 3.
    const auto batch = scheduler.nextBatch();
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].requestId, 1u);
    EXPECT_EQ(batch[1].requestId, 2u);
    const auto rest = scheduler.nextBatch();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest.front().requestId, 3u);
}

// ============================================================ Runner

TEST(RunnerTest, FusedLanesAreByteIdenticalToSoloRuns)
{
    PlanRunner solo;
    const PlanResult a = solo.runPlan(seqPlan(11));
    const PlanResult b = solo.runPlan(seqPlan(12));
    const PlanResult c = solo.runPlan(seqPlan(13));
    ASSERT_TRUE(a.ok && b.ok && c.ok);
    EXPECT_NE(a.resultBlob, b.resultBlob); // Seeds differ.

    PlanRunner fused;
    const auto results = fused.runBatch(
        {queued(seqPlan(11)), queued(seqPlan(12)),
         queued(seqPlan(13))});
    ASSERT_EQ(results.size(), 3u);
    for (const auto &result : results) {
        ASSERT_TRUE(result.ok) << result.error;
        EXPECT_EQ(result.batchedLanes, 3);
    }
    EXPECT_EQ(results[0].resultBlob, a.resultBlob);
    EXPECT_EQ(results[1].resultBlob, b.resultBlob);
    EXPECT_EQ(results[2].resultBlob, c.resultBlob);
    EXPECT_EQ(results[0].finalState, a.finalState);
    // One compiled program served every lane and the solo runs alike.
    EXPECT_EQ(fused.cacheSize(), 1u);
}

TEST(RunnerTest, CompileCacheIsKeyedByCompatibility)
{
    PlanRunner runner;
    EXPECT_TRUE(runner.runPlan(seqPlan(1)).ok);
    EXPECT_TRUE(runner.runPlan(seqPlan(2)).ok);
    EXPECT_EQ(runner.cacheSize(), 1u);
    EXPECT_GE(runner.cacheHits(), 1u);

    ExecutionPlan bytecode = seqPlan(1);
    bytecode.execTier = ir::ExecTier::Bytecode;
    EXPECT_TRUE(runner.runPlan(bytecode).ok);
    EXPECT_EQ(runner.cacheSize(), 2u); // Tier is part of the key.
}

TEST(RunnerTest, CompileCacheIsBoundedAndRecompilesIdentically)
{
    PlanRunner runner;
    const PlanResult first = runner.runPlan(seqPlan(3));
    ASSERT_TRUE(first.ok) << first.error;
    for (std::size_t n = 0; n < serving::kCompileCacheCapacity + 8;
         ++n) {
        ExecutionPlan other = seqPlan(3);
        other.moduleText = numberedModule(n);
        ASSERT_TRUE(runner.runPlan(other).ok);
        ASSERT_LE(runner.cacheSize(), serving::kCompileCacheCapacity);
    }
    // The first module was evicted: this run recompiles it.
    const std::uint64_t hits = runner.cacheHits();
    const PlanResult again = runner.runPlan(seqPlan(3));
    EXPECT_EQ(runner.cacheHits(), hits);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.resultBlob, first.resultBlob);
    EXPECT_EQ(again.recordLog, first.recordLog);
    EXPECT_EQ(again.finalState, first.finalState);
}

TEST(RunnerTest, ConcurrentMissesOnOneKeyCompileOnce)
{
    PlanRunner runner;
    std::vector<PlanResult> results(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < results.size(); ++i)
        threads.emplace_back(
            [&, i] { results[i] = runner.runPlan(specPlan(8)); });
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(runner.cacheSize(), 1u);
    EXPECT_EQ(runner.cacheHits(), results.size() - 1);
    for (const auto &result : results) {
        ASSERT_TRUE(result.ok) << result.error;
        EXPECT_EQ(result.resultBlob, results.front().resultBlob);
    }
}

TEST(RunnerTest, MismatchedComputeSignatureFailsTheRun)
{
    // The unfrozen-tradeoff example passes admission, but its compute
    // function takes one argument: the run fails instead of
    // panicking the interpreter.
    ExecutionPlan plan = seqPlan();
    plan.moduleText = readRepoFile(
        "examples/ir/bad/bad_unfrozen_tradeoff.ir");
    ASSERT_TRUE(AdmissionController::validate(plan, true).admitted());
    const PlanResult result = PlanRunner().runPlan(plan);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("must take (input, state)"),
              std::string::npos)
        << result.error;
}

TEST(RunnerTest, ExecTierDoesNotChangeResultBytes)
{
    PlanRunner runner;
    ExecutionPlan ast = seqPlan(5);
    ast.execTier = ir::ExecTier::Ast;
    ExecutionPlan bytecode = seqPlan(5);
    bytecode.execTier = ir::ExecTier::Bytecode;
    const PlanResult a = runner.runPlan(ast);
    const PlanResult b = runner.runPlan(bytecode);
    ASSERT_TRUE(a.ok && b.ok) << a.error << b.error;
    EXPECT_EQ(a.resultBlob, b.resultBlob);
    EXPECT_EQ(a.finalState, b.finalState);
}

TEST(RunnerTest, SpeculativeRunsAreDeterministic)
{
    PlanRunner runner;
    const PlanResult a = runner.runPlan(specPlan(21));
    const PlanResult b = runner.runPlan(specPlan(21));
    ASSERT_TRUE(a.ok && b.ok) << a.error << b.error;
    EXPECT_EQ(a.resultBlob, b.resultBlob);
    EXPECT_EQ(a.recordLog, b.recordLog);
    EXPECT_FALSE(a.recordLog.empty());
    EXPECT_GT(a.invocations, 0);

    const PlanResult c = runner.runPlan(specPlan(22));
    ASSERT_TRUE(c.ok);
    EXPECT_NE(a.resultBlob, c.resultBlob);

    // aux-batch=2 fuses the two initial aux windows into one lockstep
    // task (one task record fewer). The batched auxiliary is
    // bit-identical to the scalar one, so the bytes do not move; the
    // run is as deterministic, and its log replays with zero
    // divergence.
    ExecutionPlan batched = specPlan(21);
    batched.limits.auxBatchGroups = 2;
    auto &records =
        obs::MetricsRegistry::global().counter("engine.arena.records");
    const std::int64_t before = records.value();
    runner.runPlan(specPlan(21));
    const std::int64_t scalar = records.value() - before;
    const PlanResult d = runner.runPlan(batched);
    EXPECT_EQ(records.value() - before - scalar, scalar - 1);
    const PlanResult e = runner.runPlan(batched);
    ASSERT_TRUE(d.ok && e.ok) << d.error << e.error;
    EXPECT_EQ(d.resultBlob, a.resultBlob);
    EXPECT_EQ(d.resultBlob, e.resultBlob);
    EXPECT_EQ(d.recordLog, e.recordLog);

    std::istringstream stream(d.recordLog);
    std::string error;
    const auto log = replay::RecordLog::load(stream, error);
    ASSERT_TRUE(log.has_value()) << error;
    batched.recordChoices = false;
    replay::ReplaySession session;
    session.startReplay(*log);
    const PlanResult replayed = runner.runPlan(batched, session);
    const replay::ReplayReport report = session.finishReplay();
    ASSERT_TRUE(replayed.ok) << replayed.error;
    EXPECT_FALSE(report.diverged) << report.first.describe();
    EXPECT_EQ(report.recordsMatched, log->records.size());
    EXPECT_EQ(replayed.resultBlob, d.resultBlob);
}

TEST(RunnerTest, ServedRecordLogReplaysWithZeroDivergence)
{
    PlanRunner runner;
    const ExecutionPlan recorded = specPlan(33);
    const PlanResult first = runner.runPlan(recorded);
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_FALSE(first.recordLog.empty());

    std::istringstream stream(first.recordLog);
    std::string error;
    const auto log = replay::RecordLog::load(stream, error);
    ASSERT_TRUE(log.has_value()) << error;
    ASSERT_FALSE(log->records.empty());

    // Re-run the same plan under replay: every engine choice point
    // must match the served log — the byte-identical-reproducibility
    // contract of docs/SERVING.md §5.
    ExecutionPlan again = recorded;
    again.recordChoices = false;
    auto &session = replay::ReplaySession::global();
    session.startReplay(*log);
    const PlanResult second = runner.runPlan(again);
    const replay::ReplayReport report = session.finishReplay();
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_FALSE(report.diverged) << report.first.describe();
    EXPECT_EQ(report.recordsMatched, log->records.size());
    EXPECT_EQ(second.resultBlob, first.resultBlob);
}

// ============================================================ Server

TEST(ServerTest, ServedRunsAreByteIdenticalAcrossSubmissions)
{
    Server server;
    const auto first = server.submitPlan(specPlan(44));
    const auto second = server.submitPlan(specPlan(44));
    ASSERT_TRUE(first.admitted()) << first.verdict.detail;
    ASSERT_TRUE(second.admitted()) << second.verdict.detail;
    server.drain();

    const auto a = server.status(first.requestId);
    const auto b = server.status(second.requestId);
    ASSERT_EQ(a.state, RequestState::Done) << a.result.error;
    ASSERT_EQ(b.state, RequestState::Done) << b.result.error;
    EXPECT_EQ(a.result.resultBlob, b.result.resultBlob);
    EXPECT_EQ(a.result.finalState, b.result.finalState);
    EXPECT_EQ(server.replayLog(first.requestId),
              server.replayLog(second.requestId));
    EXPECT_FALSE(server.replayLog(first.requestId).empty());
}

TEST(ServerTest, SubmitClassifiesVersionSkewSeparately)
{
    Server server;
    EXPECT_EQ(server.submit("garbage").verdict.reason,
              RejectReason::MalformedPlan);
    std::string future = "STPL";
    future.push_back(
        static_cast<char>(serving::kPlanSchemaVersion + 1));
    EXPECT_EQ(server.submit(future).verdict.reason,
              RejectReason::VersionSkew);
    EXPECT_TRUE(
        server.submit(seqPlan().saveToString()).admitted());
    server.drain();
}

TEST(ServerTest, QuotaRejectionsAreGracefulBackpressure)
{
    double now = 0.0;
    Server::Options options;
    options.clock = [&now] { return now; };
    options.defaultQuota.ratePerSec = 1.0;
    options.defaultQuota.burst = 1.0;
    Server server(options);

    EXPECT_TRUE(server.submitPlan(seqPlan(1)).admitted());
    const auto rejected = server.submitPlan(seqPlan(2));
    EXPECT_EQ(rejected.verdict.reason, RejectReason::QuotaExceeded);
    EXPECT_GT(rejected.verdict.retryAfterSeconds, 0.0);

    now += 1.5;
    EXPECT_TRUE(server.submitPlan(seqPlan(3)).admitted());
    server.drain();
}

TEST(ServerTest, DrainCompletesQueuedWorkAndRejectsNewSubmits)
{
    Server server;
    const auto admitted = server.submitPlan(seqPlan(1));
    ASSERT_TRUE(admitted.admitted());
    const std::uint64_t completed = server.drain();
    EXPECT_GE(completed, 1u);
    EXPECT_EQ(server.status(admitted.requestId).state,
              RequestState::Done);

    const auto late = server.submitPlan(seqPlan(2));
    EXPECT_EQ(late.verdict.reason, RejectReason::Draining);
    EXPECT_TRUE(serving::isBackpressure(late.verdict.reason));
}

TEST(ServerTest, RuntimeFailuresLandInFailedStateWithDetail)
{
    Server server;
    ExecutionPlan plan = seqPlan();
    plan.kind = JobKind::IrSpeculative;
    plan.faults = "bogus spec"; // Passes nothing: reject up front.
    EXPECT_EQ(server.submitPlan(plan).verdict.reason,
              RejectReason::MalformedPlan);
    server.drain();
}

TEST(ServerTest, StatusObservesAsynchronousCompletion)
{
    // The worker pool completes requests without drain(): status()
    // must transition to Done on its own, observed via the shared
    // poll helper rather than a free-running sleep.
    Server server;
    const auto outcome = server.submitPlan(seqPlan(91));
    ASSERT_TRUE(outcome.admitted()) << outcome.verdict.detail;
    EXPECT_TRUE(serving_testing::pollUntil([&] {
        return server.status(outcome.requestId).state ==
               RequestState::Done;
    }));
    EXPECT_FALSE(server.draining()); // No drain was needed.
    server.drain();
}

TEST(ServerTest, FinishedRequestRegistryIsBounded)
{
    Server::Options options;
    options.maxRetainedResults = 2;
    Server server(std::move(options));
    std::vector<std::uint64_t> ids;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto outcome = server.submitPlan(seqPlan(seed));
        ASSERT_TRUE(outcome.admitted()) << outcome.verdict.detail;
        ids.push_back(outcome.requestId);
    }
    server.drain();

    // Only the two newest finished requests stay queryable; the
    // oldest were evicted so a long-lived server stays bounded.
    // Evicted ids answer the distinct Expired state — they *were*
    // served — while ids never issued stay Unknown.
    EXPECT_EQ(server.status(ids[0]).state, RequestState::Expired);
    EXPECT_EQ(server.status(ids[1]).state, RequestState::Expired);
    EXPECT_EQ(server.status(ids[2]).state, RequestState::Done);
    EXPECT_EQ(server.status(ids[3]).state, RequestState::Done);
    EXPECT_EQ(server.status(0).state, RequestState::Unknown);
    EXPECT_EQ(server.status(ids[3] + 1).state, RequestState::Unknown);
    EXPECT_EQ(server.completedCount(), 4u);
}

// ========================================================== Protocol

TEST(ProtocolTest, BodyCodecsRoundTrip)
{
    AdmissionVerdict verdict;
    verdict.reason = RejectReason::QuotaExceeded;
    verdict.detail = "tenant 'x' is over its admission rate";
    verdict.retryAfterSeconds = 1.25;
    AdmissionVerdict decoded;
    ASSERT_TRUE(serving::decodeSubmitRejected(
        serving::encodeSubmitRejected(verdict), decoded));
    EXPECT_EQ(decoded.reason, verdict.reason);
    EXPECT_EQ(decoded.detail, verdict.detail);
    EXPECT_NEAR(decoded.retryAfterSeconds, verdict.retryAfterSeconds,
                1e-3);

    serving::RequestStatus status;
    status.state = RequestState::Done;
    status.tenant = "alpha";
    status.result.ok = true;
    status.result.resultBlob = std::string("\x01\x02\x00\xff", 4);
    status.result.finalState = -77;
    status.result.invocations = 1234;
    status.result.batchedLanes = 3;
    serving::RequestStatus out;
    ASSERT_TRUE(
        serving::decodeResult(serving::encodeResult(status), out));
    EXPECT_EQ(out.state, status.state);
    EXPECT_EQ(out.result.resultBlob, status.result.resultBlob);
    EXPECT_EQ(out.result.finalState, status.result.finalState);
    EXPECT_EQ(out.result.invocations, status.result.invocations);
    EXPECT_EQ(out.result.batchedLanes, status.result.batchedLanes);

    std::uint64_t id = 0;
    ASSERT_TRUE(serving::decodeRequestId(
        serving::encodeRequestId(987654321), id));
    EXPECT_EQ(id, 987654321u);

    EXPECT_FALSE(serving::decodeResult("trunc", out));
    EXPECT_FALSE(serving::decodeRequestId("", id));
}

TEST(ProtocolTest, HugeDeclaredStringLengthFailsCleanly)
{
    // Regression: a detail-string length varint near UINT64_MAX used
    // to wrap the decoder's `pos + length` bounds check.
    std::string body;
    replay::putVarint(body, 0); // reason
    replay::putVarint(body, 0); // retry-after ms
    replay::putVarint(body, ~std::uint64_t{0}); // detail length
    AdmissionVerdict decoded;
    EXPECT_FALSE(serving::decodeSubmitRejected(body, decoded));
}

TEST(ProtocolTest, FrameLayoutIsLengthPrefixed)
{
    serving::Frame frame;
    frame.type = serving::MsgType::SubmitReq;
    frame.body = "payload";
    const std::string wire = serving::encodeFrame(frame);
    ASSERT_EQ(wire.size(), 4 + 1 + frame.body.size());
    // u32-le length counts the type byte plus the body.
    const auto length =
        static_cast<std::uint32_t>(
            static_cast<unsigned char>(wire[0])) |
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(wire[1]))
         << 8) |
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(wire[2]))
         << 16) |
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(wire[3]))
         << 24);
    EXPECT_EQ(length, frame.body.size() + 1);
    EXPECT_EQ(wire[4],
              static_cast<char>(serving::MsgType::SubmitReq));
    EXPECT_EQ(wire.substr(5), frame.body);
}

// ===================================================== Daemon + CLI

TEST(DaemonTest, EndToEndOverTheUnixSocket)
{
    const std::string socket_path =
        "serving_test_" + std::to_string(::getpid()) + ".sock";
    serving::Daemon daemon(socket_path);
    std::thread serve([&daemon] { daemon.serveForever(); });

    std::string error;
    serving::Client client(socket_path, error);
    ASSERT_TRUE(client.connected()) << error;

    AdmissionVerdict verdict;
    const auto request_id =
        client.submit(seqPlan(55).saveToString(), verdict, error);
    ASSERT_TRUE(request_id.has_value())
        << error << " " << verdict.detail;

    // Drain finishes all queued work, so the result is ready after.
    const auto drained = client.drain(error);
    ASSERT_TRUE(drained.has_value()) << error;
    EXPECT_GE(*drained, 1u);
    serve.join();

    // The daemon answered the in-flight connection before stopping.
    // Compare against a direct run of the same plan: the served
    // result must be byte-identical to local execution.
    PlanRunner local;
    const PlanResult expected = local.runPlan(seqPlan(55));
    const auto status = daemon.server().status(*request_id);
    EXPECT_EQ(status.state, RequestState::Done);
    EXPECT_EQ(status.result.resultBlob, expected.resultBlob);
}

TEST(DaemonTest, MalformedSubmissionsAreRejectedNotFatal)
{
    const std::string socket_path =
        "serving_test_bad_" + std::to_string(::getpid()) + ".sock";
    serving::Daemon daemon(socket_path);
    std::thread serve([&daemon] { daemon.serveForever(); });

    std::string error;
    serving::Client client(socket_path, error);
    ASSERT_TRUE(client.connected()) << error;

    AdmissionVerdict verdict;
    EXPECT_FALSE(
        client.submit("not a plan", verdict, error).has_value());
    EXPECT_EQ(verdict.reason, RejectReason::MalformedPlan);

    // Regression: a module operand like `1e999999` made std::stod
    // throw std::out_of_range through the IR parser, past submit(),
    // and std::terminate the daemon from the connection thread.
    ExecutionPlan bad = seqPlan();
    bad.moduleText = "module \"bad\"\n"
                     "statedep SD0 compute=@f\n"
                     "func @f(i64 %input, i64 %state) -> i64 {\n"
                     "entry:\n"
                     "  %a = add i64 %input, 1e999999\n"
                     "  ret i64 %a\n"
                     "}\n";
    EXPECT_FALSE(
        client.submit(bad.saveToString(), verdict, error).has_value());
    EXPECT_EQ(verdict.reason, RejectReason::ParseError);

    // The connection survives a rejection.
    const auto request_id =
        client.submit(seqPlan().saveToString(), verdict, error);
    EXPECT_TRUE(request_id.has_value()) << error;
    ASSERT_TRUE(client.drain(error).has_value()) << error;
    serve.join();
}

// ===================================================== Docs lockstep

/** docs/SERVING.md must name every enum constant it documents. */
TEST(ServingDocsTest, DocsNameEveryRejectReasonAndMessageType)
{
    const std::string doc = readRepoFile("docs/SERVING.md");
    for (int i = 0; i < serving::kRejectReasonCount; ++i) {
        const std::string name = serving::rejectReasonName(
            static_cast<RejectReason>(i));
        if (name == std::string("None"))
            continue;
        EXPECT_NE(doc.find(backticked(name)), std::string::npos)
            << "docs/SERVING.md must document RejectReason::" << name;
    }
    for (const char *name :
         {"SubmitReq", "StatusReq", "ResultReq", "ReplayFetchReq",
          "DrainReq", "SubmitOk", "SubmitRejected", "StatusResp",
          "ResultResp", "ReplayFetchResp", "DrainResp", "ErrorResp"})
        EXPECT_NE(doc.find(backticked(name)),
                  std::string::npos)
            << "docs/SERVING.md must document MsgType::" << name;
}

TEST(ServingDocsTest, DocsNameEveryPlanTextKeyAndTheMagic)
{
    const std::string doc = readRepoFile("docs/SERVING.md");
    EXPECT_NE(doc.find("`STPL`"), std::string::npos);
    for (const char *key :
         {"kind", "tenant", "priority", "seed", "exec-tier",
          "batch-lanes", "step-budget", "record-choices", "no-cache",
         "limits",
          "inputs", "initial-state", "noisy-percent", "max-noise",
          "config", "faults", "benchmark", "bench-mode",
          "bench-threads", "bench-workload", "module"})
        EXPECT_NE(doc.find(backticked(key)),
                  std::string::npos)
            << "docs/SERVING.md must document plan key " << key;
    for (const char *kind : {"ir-seq", "ir-spec", "benchmark"})
        EXPECT_NE(doc.find(backticked(kind)),
                  std::string::npos)
            << "docs/SERVING.md must document job kind " << kind;
}

TEST(ServingDocsTest, ServingDocIsLinkedFromTheDocIndexes)
{
    EXPECT_NE(readRepoFile("README.md").find("SERVING.md"),
              std::string::npos)
        << "README.md must link docs/SERVING.md";
    EXPECT_NE(
        readRepoFile("docs/README.md").find("SERVING.md"),
        std::string::npos)
        << "docs/README.md must link SERVING.md";
}

} // namespace
