/**
 * @file
 * Tests of the speculation-safety static analysis layer: the dataflow
 * framework (CFG, def-use, reaching definitions, liveness), the
 * AnalysisManager cache, the semantic passes (purity, clone audit,
 * freeze check, escape check), the lint driver, and the rule
 * registry's lockstep with docs/ANALYSIS.md.
 */

#include <algorithm>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/clone_audit.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/escape_check.hpp"
#include "analysis/freeze_check.hpp"
#include "analysis/lint.hpp"
#include "analysis/manager.hpp"
#include "analysis/purity.hpp"
#include "backend/backend.hpp"
#include "ir/parser.hpp"
#include "midend/midend.hpp"

#include "repo_files.hpp"

namespace {

using namespace stats;
using namespace stats::repo_files;
using namespace stats::analysis;

const char *kDiamondModule = R"(
module "diamond"
func @f(i64 %n) -> i64 {
entry:
  %c = cmplt i64 %n, 10
  br %c, low, high
low:
  %a = add i64 %n, 1
  jmp join
high:
  %b = add i64 %n, 2
  jmp join
join:
  %r = phi i64 [%a, low], [%b, high]
  ret i64 %r
}
)";

const char *kLoopModule = R"(
module "loop"
func @sumTo(i64 %n) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [0, entry], [%i2, loop]
  %acc = phi i64 [0, entry], [%acc2, loop]
  %i2 = add i64 %i, 1
  %acc2 = add i64 %acc, %i2
  %done = cmplt i64 %i2, %n
  br %done, loop, exit
exit:
  ret i64 %acc2
}
)";

ir::Module
loadPipelineModule()
{
    return ir::parseModule(readRepoFile("examples/ir/pipeline.ir"));
}

std::size_t
countRule(const std::vector<Diagnostic> &diags, const std::string &rule)
{
    return std::size_t(std::count_if(
        diags.begin(), diags.end(),
        [&](const Diagnostic &d) { return d.rule == rule; }));
}

// ------------------------------------------------------------ framework

TEST(Cfg, DiamondEdgesAndRpo)
{
    const ir::Module module = ir::parseModule(kDiamondModule);
    const Cfg cfg(module.functions[0]);

    ASSERT_EQ(cfg.blockCount(), 4u);
    EXPECT_EQ(cfg.indexOf("entry"), 0);
    const int low = cfg.indexOf("low");
    const int high = cfg.indexOf("high");
    const int join = cfg.indexOf("join");

    EXPECT_EQ(cfg.successors(0), (std::vector<int>{low, high}));
    EXPECT_EQ(cfg.predecessors(join), (std::vector<int>{low, high}));
    EXPECT_TRUE(cfg.successors(join).empty());

    // RPO starts at the entry and orders join last.
    ASSERT_EQ(cfg.reversePostorder().size(), 4u);
    EXPECT_EQ(cfg.reversePostorder().front(), 0);
    EXPECT_EQ(cfg.reversePostorder().back(), join);
    for (int b = 0; b < 4; ++b)
        EXPECT_TRUE(cfg.reachable(b));
}

TEST(Cfg, UnreachableBlockExcludedFromRpo)
{
    const char *text = R"(
module "dead"
func @g() -> i64 {
entry:
  ret i64 1
dead:
  ret i64 2
}
)";
    const ir::Module module = ir::parseModule(text);
    const Cfg cfg(module.functions[0]);
    ASSERT_EQ(cfg.blockCount(), 2u);
    EXPECT_EQ(cfg.reversePostorder().size(), 1u);
    EXPECT_TRUE(cfg.reachable(0));
    EXPECT_FALSE(cfg.reachable(1));
}

TEST(DefUse, TracksDefinitionsAndUses)
{
    const ir::Module module = ir::parseModule(kDiamondModule);
    const DefUse du(module.functions[0]);

    // Parameters are entry definitions with block -1.
    ASSERT_EQ(du.defs("n").size(), 1u);
    EXPECT_EQ(du.defs("n")[0].block, -1);
    EXPECT_EQ(du.uses("n").size(), 3u); // cmplt + both adds.

    ASSERT_EQ(du.defs("a").size(), 1u);
    EXPECT_EQ(du.defs("a")[0], (InstRef{1, 0}));
    EXPECT_EQ(du.uses("a").size(), 1u); // The phi.

    // Comparisons produce I64 regardless of comparand type.
    EXPECT_EQ(du.uniqueDefType("c"), ir::Type::I64);
    EXPECT_EQ(du.uniqueDefType("r"), ir::Type::I64);
    EXPECT_EQ(du.uniqueDefType("missing"), std::nullopt);
}

TEST(ReachingDefs, InBlockShadowing)
{
    const char *text = R"(
module "shadow"
func @h(i64 %x) -> i64 {
entry:
  %v = add i64 %x, 1
  %v = add i64 %v, 2
  %r = add i64 %v, 3
  ret i64 %r
}
)";
    const ir::Module module = ir::parseModule(text);
    const Cfg cfg(module.functions[0]);
    const DefUse du(module.functions[0]);
    const ReachingDefs reaching(cfg, du);

    // The second %v shadows the first within the block.
    auto sites = reaching.reachingAt(0, 2, "v");
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0], (InstRef{0, 1}));
    // ... and the first %v's use sees only the first definition.
    sites = reaching.reachingAt(0, 1, "v");
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0], (InstRef{0, 0}));
}

TEST(ReachingDefs, LoopCarriesParamsAndBackEdgeDefs)
{
    const ir::Module module = ir::parseModule(kLoopModule);
    const Cfg cfg(module.functions[0]);
    const DefUse du(module.functions[0]);
    const ReachingDefs reaching(cfg, du);

    const int loop = cfg.indexOf("loop");
    const int exit = cfg.indexOf("exit");
    // The parameter reaches its use in the loop condition.
    auto sites = reaching.reachingAt(loop, 4, "n");
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0].block, -1);
    // The accumulator defined in the loop reaches the exit's ret.
    sites = reaching.reachingAt(exit, 0, "acc2");
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0].block, loop);
}

TEST(Liveness, LoopLiveRanges)
{
    const ir::Module module = ir::parseModule(kLoopModule);
    const Cfg cfg(module.functions[0]);
    const DefUse du(module.functions[0]);
    const Liveness live(cfg, du);

    const int loop = cfg.indexOf("loop");
    const int exit = cfg.indexOf("exit");
    EXPECT_TRUE(live.liveIn(cfg.entry(), "n"));
    EXPECT_TRUE(live.liveIn(loop, "n"));
    EXPECT_TRUE(live.liveIn(exit, "acc2"));
    EXPECT_FALSE(live.liveOut(exit, "acc2"));
    EXPECT_FALSE(live.liveIn(exit, "i2"));
}

TEST(AnalysisManager, CachesPerFunctionAndInvalidates)
{
    const ir::Module module = ir::parseModule(kDiamondModule);
    AnalysisManager manager(module);

    const Cfg *first = &manager.cfg("f");
    EXPECT_EQ(&manager.cfg("f"), first); // Cached: same object.
    manager.reachingDefs("f");
    manager.liveness("f");
    EXPECT_EQ(manager.cachedFunctionCount(), 1u);

    manager.invalidateFunction("f");
    EXPECT_EQ(manager.cachedFunctionCount(), 0u);
    manager.cfg("f");
    manager.invalidateAll();
    EXPECT_EQ(manager.cachedFunctionCount(), 0u);
}

// ------------------------------------------------------- semantic passes

TEST(Purity, ClassifiesFunctionsBottomUp)
{
    const char *text = R"(
module "purity"
tradeoff T_1 kind=const placeholder=@T_1 getValue=@gv size=@sz default=@di
func @T_1() -> i64 {
entry:
  ret i64 1
}
func @gv(i64 %i) -> i64 {
entry:
  %r = call f64 @rand_uniform
  %c = cast i64 %r
  ret i64 %c
}
func @sz() -> i64 {
entry:
  ret i64 2
}
func @di() -> i64 {
entry:
  ret i64 0
}
func @user(i64 %x) -> i64 {
entry:
  %t = call i64 @T_1()
  %r = add i64 %x, %t
  ret i64 %r
}
func @indirect(i64 %x) -> i64 {
entry:
  %r = call i64 @user %x
  ret i64 %r
}
func @mathy(f64 %x) -> f64 {
entry:
  %r = call f64 @sqrt %x
  ret f64 %r
}
)";
    const ir::Module module = ir::parseModule(text);
    const PurityResult purity = computePurity(module);
    EXPECT_EQ(purity.effectOf("mathy"), Effect::Pure);
    EXPECT_EQ(purity.effectOf("gv"), Effect::Effectful);
    EXPECT_EQ(purity.effectOf("user"), Effect::ReadsTradeoffs);
    // Effects propagate transitively through the call graph.
    EXPECT_EQ(purity.effectOf("indirect"), Effect::ReadsTradeoffs);
    EXPECT_EQ(purity.effectOf("rand_uniform"), Effect::Effectful);
    EXPECT_EQ(purity.effectOf("sqrt"), Effect::Pure);
    EXPECT_EQ(purity.effectOf("no_such_fn"), Effect::Effectful);

    // PUR01: the effectful getValue helper is flagged once.
    AnalysisManager manager(module);
    const auto diags = runPurityPass(manager);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "PUR01");
    EXPECT_EQ(diags[0].severity, Severity::Warning);
    EXPECT_EQ(diags[0].function, "gv");
}

TEST(CloneAudit, CleanOnMiddleEndOutput)
{
    ir::Module module = loadPipelineModule();
    midend::runMiddleEnd(module);
    const auto diags = runAnalyses(module);
    EXPECT_TRUE(diags.empty())
        << "unexpected: " << diags.size() << " diagnostics, first: "
        << (diags.empty() ? "" : diags[0].message);
}

TEST(CloneAudit, TruncationYieldsAud05AndAud06Warnings)
{
    ir::Module module = loadPipelineModule();
    // Budget below computeOutput + smoothHelper: the carrier helper
    // is shared, not cloned, and the dependence is marked truncated.
    midend::generateAuxiliaryCode(module, 8);
    midend::freezeDefaultTradeoffs(module);

    const auto diags = runAnalyses(module);
    EXPECT_FALSE(hasErrors(diags));
    // The truncated clone calls two un-cloned functions...
    EXPECT_EQ(countRule(diags, "AUD05"), 2u);
    // ... and the dependence itself is flagged once.
    EXPECT_EQ(countRule(diags, "AUD06"), 1u);
}

TEST(CloneAudit, DetectsDivergenceAndDefaultMismatch)
{
    const ir::Module module = ir::parseModule(
        readRepoFile("examples/ir/bad/bad_divergent_clone.ir"));
    AnalysisManager manager(module);
    const auto diags = runCloneAudit(manager);
    EXPECT_EQ(countRule(diags, "AUD03"), 1u);
    EXPECT_EQ(countRule(diags, "AUD04"), 1u);
}

TEST(FreezeCheck, MidendOutputHasAuxCallsPreInstantiation)
{
    ir::Module module = loadPipelineModule();
    midend::runMiddleEnd(module);

    AnalysisManager manager(module);
    // Middle-end mode: aux tradeoffs legitimately remain.
    EXPECT_TRUE(runFreezeCheck(manager).empty());
    // Back-end mode: the surviving aux placeholder calls are errors.
    FreezeCheckOptions instantiated;
    instantiated.requireInstantiated = true;
    const auto diags = runFreezeCheck(manager, instantiated);
    EXPECT_TRUE(hasErrors(diags));
    EXPECT_GE(countRule(diags, "FRZ01"), 3u);
}

TEST(FreezeCheck, InstantiatedPipelineIsClean)
{
    ir::Module module = loadPipelineModule();
    midend::runMiddleEnd(module);
    backend::BackendConfig config; // auditFrozen on by default.
    const ir::Module binary = backend::instantiate(module, config);

    AnalysisManager manager(binary);
    FreezeCheckOptions instantiated;
    instantiated.requireInstantiated = true;
    EXPECT_TRUE(runFreezeCheck(manager, instantiated).empty());
}

TEST(FreezeCheck, FlagsAuxPlaceholderCallFromCommittedCode)
{
    const char *text = R"(
module "frz02"
tradeoff aux::T_1 kind=const placeholder=@T_1__aux0 getValue=@gv size=@sz default=@di aux=true origin=T_1
statedep SD0 compute=@computeOutput aux=@computeOutput__aux0
auxclone T_1__aux0 origin=@T_1 statedep=SD0
auxclone computeOutput__aux0 origin=@computeOutput statedep=SD0
func @T_1() -> i64 {
entry:
  ret i64 1
}
func @T_1__aux0() -> i64 {
entry:
  ret i64 1
}
func @gv(i64 %i) -> i64 {
entry:
  ret i64 %i
}
func @sz() -> i64 {
entry:
  ret i64 2
}
func @di() -> i64 {
entry:
  ret i64 0
}
func @computeOutput(i64 %x) -> i64 {
entry:
  %t = cast i64 0
  %r = add i64 %x, %t
  ret i64 %r
}
func @computeOutput__aux0(i64 %x) -> i64 {
entry:
  %t = call i64 @T_1__aux0()
  %r = add i64 %x, %t
  ret i64 %r
}
func @committed(i64 %x) -> i64 {
entry:
  %t = call i64 @T_1__aux0()
  ret i64 %t
}
)";
    const ir::Module module = ir::parseModule(text);
    AnalysisManager manager(module);
    const auto diags = runFreezeCheck(manager);
    ASSERT_EQ(countRule(diags, "FRZ02"), 1u);
    for (const auto &diag : diags) {
        if (diag.rule == "FRZ02") {
            EXPECT_EQ(diag.function, "committed");
        }
    }
}

TEST(EscapeCheck, FlagsEffectfulBuiltinAndHelper)
{
    const char *text = R"(
module "escape"
statedep SD0 compute=@computeOutput aux=@computeOutput__aux0
auxclone computeOutput__aux0 origin=@computeOutput statedep=SD0
func @noisy(f64 %x) -> f64 {
entry:
  %n = call f64 @rand_uniform
  %r = add f64 %x, %n
  ret f64 %r
}
func @computeOutput(f64 %s) -> f64 {
entry:
  %r = call f64 @noisy %s
  ret f64 %r
}
func @computeOutput__aux0(f64 %s) -> f64 {
entry:
  %r = call f64 @noisy %s
  ret f64 %r
}
)";
    const ir::Module module = ir::parseModule(text);
    AnalysisManager manager(module);
    const auto diags = runEscapeCheck(manager);
    // ESC01 at @noisy's PRVG call (reachable from the aux clone),
    // ESC02 at the aux clone's call into the effectful shared helper.
    EXPECT_EQ(countRule(diags, "ESC01"), 1u);
    EXPECT_EQ(countRule(diags, "ESC02"), 1u);
}

TEST(EscapeCheck, FlagsComputeOutputReentry)
{
    const char *text = R"(
module "reentry"
statedep SD0 compute=@computeOutput aux=@computeOutput__aux0
auxclone computeOutput__aux0 origin=@computeOutput statedep=SD0
func @computeOutput(f64 %s) -> f64 {
entry:
  %r = add f64 %s, 1.0
  ret f64 %r
}
func @computeOutput__aux0(f64 %s) -> f64 {
entry:
  %r = call f64 @computeOutput %s
  ret f64 %r
}
)";
    const ir::Module module = ir::parseModule(text);
    AnalysisManager manager(module);
    const auto diags = runEscapeCheck(manager);
    ASSERT_EQ(countRule(diags, "ESC03"), 1u);
}

// ------------------------------------------------------------ lint driver

TEST(Lint, StructuralErrorsSuppressSemanticPasses)
{
    const char *text = R"(
module "broken"
func @f(i64 %n) -> f64 {
entry:
  %c = cmplt i64 %n, 1
  br %c, a, b
a:
  jmp join
b:
  jmp join
join:
  %p = phi f64 [1.0, a]
  %x = cast f32 %n
  %y = add f64 %x, %p
  ret f64 %y
}
)";
    // The module has both a phi-coverage error and a missing cast;
    // only the structural (VER01) finding may be reported.
    const auto diags = runAnalyses(ir::parseModule(text));
    ASSERT_FALSE(diags.empty());
    for (const auto &diag : diags)
        EXPECT_EQ(diag.rule, "VER01");
}

TEST(Lint, PassFilterSelectsOnePass)
{
    const ir::Module module = ir::parseModule(
        readRepoFile("examples/ir/bad/bad_missing_cast.ir"));
    LintOptions purity_only;
    purity_only.pass = "purity";
    EXPECT_TRUE(runAnalyses(module, purity_only).empty());

    LintOptions freeze_only;
    freeze_only.pass = "freeze";
    const auto diags = runAnalyses(module, freeze_only);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "FRZ03");
}

TEST(Lint, PassNamesAreClosed)
{
    EXPECT_EQ(passNames().size(), 7u);
    for (const auto &name : passNames())
        EXPECT_TRUE(isPassName(name));
    EXPECT_FALSE(isPassName("no-such-pass"));
}

// --------------------------------------------------- registry and schema

TEST(Diagnostics, RegistryHasUniqueStableRuleIds)
{
    std::set<std::string> ids;
    std::set<std::string> passes;
    for (const auto &rule : allRules()) {
        EXPECT_TRUE(ids.insert(rule.id).second)
            << "duplicate rule " << rule.id;
        passes.insert(rule.pass);
    }
    EXPECT_EQ(ids.size(), 22u);
    // Every rule belongs to a runnable pass.
    for (const auto &pass : passes)
        EXPECT_TRUE(isPassName(pass)) << pass;
    EXPECT_EQ(ruleInfo("AUD03").severity, Severity::Error);
    EXPECT_EQ(ruleInfo("AUD06").severity, Severity::Warning);
    EXPECT_STREQ(ruleInfo("ESC01").pass, "escape");
}

TEST(Diagnostics, SortOrderIsLineFunctionRuleMessage)
{
    std::vector<Diagnostic> diags;
    diags.push_back(makeDiagnostic("FRZ03", "b", "", 7, "m"));
    diags.push_back(makeDiagnostic("AUD03", "b", "", 7, "m"));
    diags.push_back(makeDiagnostic("VER01", "a", "", 0, "m"));
    diags.push_back(makeDiagnostic("ESC01", "a", "", 7, "m"));
    sortDiagnostics(diags);
    EXPECT_EQ(diags[0].rule, "VER01"); // line 0 first.
    EXPECT_EQ(diags[1].rule, "ESC01"); // then function "a" at line 7.
    EXPECT_EQ(diags[2].rule, "AUD03"); // then rule order within "b".
    EXPECT_EQ(diags[3].rule, "FRZ03");
}

TEST(Diagnostics, JsonReportCarriesSchemaAndSummary)
{
    std::vector<Diagnostic> diags;
    diags.push_back(makeDiagnostic("ESC01", "aux", "entry", 3, "bad"));
    std::ostringstream out;
    writeDiagnosticsJson(out, "mod", "mod.ir", diags);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"schemaVersion\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"ESC01\""), std::string::npos);
    EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
}

TEST(Diagnostics, EveryRuleAndPassIsDocumented)
{
    // docs/ANALYSIS.md is the contract for rule IDs and pass names;
    // adding a rule without documenting it fails here.
    const std::string doc = readRepoFile("docs/ANALYSIS.md");
    for (const auto &rule : allRules()) {
        EXPECT_NE(doc.find(rule.id), std::string::npos)
            << "rule " << rule.id << " is not documented";
        EXPECT_NE(doc.find(rule.summary), std::string::npos)
            << "summary of " << rule.id << " is not documented";
    }
    for (const auto &pass : passNames())
        EXPECT_NE(doc.find(backticked(pass)), std::string::npos)
            << "pass " << pass << " is not documented";
    EXPECT_NE(doc.find("schemaVersion"), std::string::npos);
}

} // namespace
