/**
 * @file
 * Golden-file tests of the bytecode disassembler (src/ir/disasm.cpp,
 * `statscc disasm`). The goldens pin the whole lowering pipeline
 * byte-for-byte — register allocation, superinstruction fusion,
 * constant pools, call-site tables — so an accidental change to the
 * compiler's output shows up as a readable diff, the same way the
 * analyzer goldens pin the diagnostic renderers.
 *
 * Goldens are regenerated from the repo root with:
 *   build/statscc disasm examples/ir/<name>.ir > tests/golden/<name>.disasm
 */

#include <string>

#include <gtest/gtest.h>

#include "ir/bytecode.hpp"
#include "ir/disasm.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"

#include "repo_files.hpp"

namespace {

using namespace stats;
using namespace stats::repo_files;

std::string
disassembleExample(const std::string &name)
{
    const std::string source =
        readRepoFile("examples/ir/" + name + ".ir");
    const ir::Module module = ir::parseModule(source);
    EXPECT_TRUE(ir::verifyModule(module).empty()) << name;
    return ir::bc::disassemble(ir::bc::compileModule(module));
}

TEST(DisasmGolden, ExamplesMatchGoldensByteForByte)
{
    for (const char *name : {"loop_phi", "pipeline"}) {
        const std::string golden = readRepoFile(
            std::string("tests/golden/") + name + ".disasm");
        EXPECT_EQ(disassembleExample(name), golden) << name;
    }
}

/** The textual form round-trips enough structure to be greppable:
 *  every compiled function header carries its register count. */
TEST(DisasmGolden, HeadersCarryRegisterCounts)
{
    const std::string text = disassembleExample("loop_phi");
    EXPECT_NE(text.find("func @sumTo"), std::string::npos);
    EXPECT_NE(text.find("; regs="), std::string::npos);
}

} // namespace
