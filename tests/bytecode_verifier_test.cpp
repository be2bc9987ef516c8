/**
 * @file
 * Post-regalloc bytecode verifier (docs/ANALYSIS.md §8): known-bad
 * corpus with byte-exact diagnostics, the historical back-edge
 * liveness hole reproduced and statically rejected, auto-verify
 * controls, and cleanliness on every shipped example.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/diagnostics.hpp"
#include "ir/bytecode.hpp"
#include "ir/bytecode_verifier.hpp"
#include "ir/parser.hpp"
#include "testing/generator.hpp"

#include "repo_files.hpp"

namespace {

using namespace stats;
using namespace stats::repo_files;
using namespace stats::ir::bc;

BcInst
inst(BcOp op, std::uint16_t a = 0, std::uint16_t b = 0,
     std::uint16_t c = 0, std::int32_t imm = 0)
{
    BcInst out;
    out.op = op;
    out.a = a;
    out.b = b;
    out.c = c;
    out.imm = imm;
    return out;
}

/**
 * The known-bad corpus: hand-built ill-formed functions, one per bug
 * class the verifier covers without compiler metadata. (BCV03 needs
 * the compiler's BcVerifyInfo and is exercised by the back-edge test
 * below.)
 */
std::vector<BcFunction>
knownBadCorpus()
{
    std::vector<BcFunction> corpus;

    // BCV04: a branch target outside the code, and a pool index
    // outside the pool.
    BcFunction bad_targets;
    bad_targets.name = "bad_targets";
    bad_targets.compiled = true;
    bad_targets.numRegs = 2;
    bad_targets.retType = ir::Type::I64;
    bad_targets.ipool = {7};
    bad_targets.code = {
        inst(BcOp::LdcI, 0, 0, 0, 3),  // ipool index 3 outside [0, 1)
        inst(BcOp::Brnz, 0, 0, 0, 99), // target 99 outside [0, 3)
        inst(BcOp::Ret, 0),
    };
    corpus.push_back(bad_targets);

    // BCV04: execution falls off the end of the code.
    BcFunction bad_fallthrough;
    bad_fallthrough.name = "bad_fallthrough";
    bad_fallthrough.compiled = true;
    bad_fallthrough.numRegs = 1;
    bad_fallthrough.retType = ir::Type::I64;
    bad_fallthrough.ipool = {1};
    bad_fallthrough.code = {
        inst(BcOp::LdcI, 0, 0, 0, 0),
        inst(BcOp::AddI, 0, 0, 0),
    };
    corpus.push_back(bad_fallthrough);

    // BCV05: operand registers outside the frame, and a missing
    // source on a non-call instruction.
    BcFunction bad_operands;
    bad_operands.name = "bad_operands";
    bad_operands.compiled = true;
    bad_operands.numRegs = 2;
    bad_operands.paramRegs = {0};
    bad_operands.paramClasses = {RegClass::Int};
    bad_operands.retType = ir::Type::I64;
    bad_operands.code = {
        inst(BcOp::AddI, 1, 0, 9),      // r9 outside a 2-slot frame
        inst(BcOp::Mov, 1, kNoReg),     // missing source register
        inst(BcOp::Ret, 1),
    };
    corpus.push_back(bad_operands);

    // BCV01: r1 is read on the path where the branch falls through
    // without ever being written.
    BcFunction bad_readbeforewrite;
    bad_readbeforewrite.name = "bad_readbeforewrite";
    bad_readbeforewrite.compiled = true;
    bad_readbeforewrite.numRegs = 2;
    bad_readbeforewrite.paramRegs = {0};
    bad_readbeforewrite.paramClasses = {RegClass::Int};
    bad_readbeforewrite.retType = ir::Type::I64;
    bad_readbeforewrite.code = {
        inst(BcOp::Brnz, 0, 0, 0, 2),
        inst(BcOp::Mov, 1, 0),
        inst(BcOp::Ret, 1), // r1 unwritten when 0 -> 2 is taken
    };
    corpus.push_back(bad_readbeforewrite);

    // BCV02: r0 is integer-classed (parameter) but read as a float.
    BcFunction bad_class;
    bad_class.name = "bad_class";
    bad_class.compiled = true;
    bad_class.numRegs = 2;
    bad_class.paramRegs = {0};
    bad_class.paramClasses = {RegClass::Int};
    bad_class.retType = ir::Type::F64;
    bad_class.code = {
        inst(BcOp::AddF, 1, 0, 0),
        inst(BcOp::Ret, 1),
    };
    corpus.push_back(bad_class);

    return corpus;
}

/**
 * Byte-exact diagnostics on the known-bad corpus, pinned under
 * tests/golden/. The golden renders each case through the standard
 * text writer; to regenerate, run this test and copy the "actual"
 * block from the failure output.
 */
TEST(BytecodeVerifier, KnownBadCorpusGolden)
{
    BcModule module;
    std::ostringstream out;
    for (const BcFunction &fn : knownBadCorpus()) {
        const auto diags = verifyFunction(module, fn);
        EXPECT_FALSE(diags.empty()) << fn.name;
        analysis::writeDiagnosticsText(out, fn.name, diags);
    }
    const std::string golden =
        readRepoFile("tests/golden/bytecode_verifier.txt");
    EXPECT_EQ(out.str(), golden);
}

/** Every bad-corpus diagnostic carries the expected leading rule. */
TEST(BytecodeVerifier, KnownBadCorpusRules)
{
    BcModule module;
    const std::vector<std::string> expected{
        "BCV04", "BCV04", "BCV05", "BCV01", "BCV02"};
    const auto corpus = knownBadCorpus();
    ASSERT_EQ(corpus.size(), expected.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const auto diags = verifyFunction(module, corpus[i]);
        ASSERT_FALSE(diags.empty()) << corpus[i].name;
        EXPECT_EQ(diags.front().rule, expected[i]) << corpus[i].name;
    }
}

/**
 * The historical register-allocator bug: live intervals not widened
 * over back-edge phi-copy stubs. The loop below carries a plain phi
 * (%x) next to a swap cycle (%a <-> %b); with the hole re-opened,
 * %x's interval ends at its own stub copy, the parallel-copy scratch
 * inherits its freed slot, and `scratch = a` destroys the
 * just-written %x mid-stub. The verifier must reject the miscompiled
 * output statically with BCV03, and must be silent again once the
 * hole is closed.
 */
constexpr const char *kSwapLoop = R"(module "swap_loop"

func @spin(i64 %n) -> i64 {
entry:
  jmp head
head:
  %x = phi i64 [3, entry], [%t, body]
  %a = phi i64 [1, entry], [%b, body]
  %b = phi i64 [2, entry], [%a, body]
  %i = phi i64 [0, entry], [%i2, body]
  %s = add i64 %x, %a
  %c = cmplt i64 %i, %n
  br %c, body, exit
body:
  %i2 = add i64 %i, 1
  %t = add i64 %s, %b
  jmp head
exit:
  ret i64 %s
}
)";

TEST(BytecodeVerifier, RejectsBackEdgeLivenessHole)
{
    const ir::Module module = ir::parseModule(kSwapLoop);
    const bool prev_auto = setAutoVerify(false);

    testonly::disableBackEdgeWidening = true;
    const BcModule broken = compileModule(module);
    testonly::disableBackEdgeWidening = false;
    setAutoVerify(prev_auto);

    ASSERT_EQ(broken.compiledCount(), 1u);
    const auto diags = verifyModule(broken);
    ASSERT_FALSE(diags.empty())
        << "the re-opened back-edge hole went undetected";
    bool clobber = false;
    for (const auto &diag : diags)
        clobber = clobber || diag.rule == "BCV03";
    EXPECT_TRUE(clobber) << diags.front().rule << ": "
                         << diags.front().message;

    // With the widening in place the same module verifies clean (and
    // compileModule's auto-verification would panic otherwise).
    const BcModule fixed = compileModule(module);
    EXPECT_TRUE(verifyModule(fixed).empty());
}

/**
 * The re-opened hole must also be caught across a generated-module
 * campaign: whatever the generator produces, a verifier diagnostic
 * is only ever a compiler bug, so the fixed compiler stays clean.
 */
TEST(BytecodeVerifier, GeneratedCampaignCleanWithHoleReopened)
{
    const bool prev_auto = setAutoVerify(false);
    testonly::disableBackEdgeWidening = true;
    std::size_t compiled = 0;
    for (std::size_t index = 0; index < 100; ++index) {
        const stats::testing::FuzzCase fuzz_case =
            stats::testing::generateCase(20260808, index);
        if (fuzz_case.expect == stats::testing::Expectation::Reject)
            continue;
        const BcModule module = compileModule(fuzz_case.module);
        compiled += module.compiledCount();
        for (const auto &diag : verifyModule(module))
            EXPECT_TRUE(diag.rule == "BCV01" || diag.rule == "BCV02" ||
                        diag.rule == "BCV03")
                << fuzz_case.name << ": " << diag.rule;
    }
    testonly::disableBackEdgeWidening = false;
    setAutoVerify(prev_auto);
    EXPECT_GT(compiled, 0u);
}

/** With the hole closed, the same campaign verifies clean. */
TEST(BytecodeVerifier, CleanWithWideningEnabled)
{
    const bool prev_auto = setAutoVerify(false);
    std::size_t verified = 0;
    for (std::size_t index = 0; index < 200; ++index) {
        const stats::testing::FuzzCase fuzz_case =
            stats::testing::generateCase(20260808, index);
        if (fuzz_case.expect == stats::testing::Expectation::Reject)
            continue;
        const BcModule module = compileModule(fuzz_case.module);
        const auto diags = verifyModule(module);
        EXPECT_TRUE(diags.empty())
            << fuzz_case.name << ": [" << diags.front().rule << "] "
            << diags.front().message;
        verified += module.compiledCount();
    }
    setAutoVerify(prev_auto);
    EXPECT_GT(verified, 0u);
}

/** The shipped examples verify clean through the lint-pass entry. */
TEST(BytecodeVerifier, CleanOnExamples)
{
    for (const char *name :
         {"examples/ir/pipeline.ir", "examples/ir/loop_phi.ir",
          "examples/ir/aux_cloned.ir"}) {
        const ir::Module module =
            ir::parseModule(readRepoFile(name));
        const auto diags = verifyCompiledModule(module);
        EXPECT_TRUE(diags.empty()) << name;
    }
}

/** setAutoVerify returns the previous value and round-trips. */
TEST(BytecodeVerifier, AutoVerifyToggle)
{
    const bool initial = autoVerifyEnabled();
    const bool prev = setAutoVerify(false);
    EXPECT_EQ(prev, initial);
    EXPECT_FALSE(autoVerifyEnabled());
    EXPECT_FALSE(setAutoVerify(true));
    EXPECT_TRUE(autoVerifyEnabled());
    setAutoVerify(initial);
}

/** Uncompiled (fallback) functions are not verified. */
TEST(BytecodeVerifier, SkipsUncompiledFunctions)
{
    BcModule module;
    BcFunction fallback;
    fallback.name = "fallback";
    fallback.compiled = false;
    EXPECT_TRUE(verifyFunction(module, fallback).empty());
}

} // namespace
