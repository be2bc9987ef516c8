/**
 * @file
 * The bytecode execution tier: register-allocated linear bytecode
 * compiled from verified mini-IR functions (docs/INTERPRETER.md).
 *
 * The AST walker in ir/interpreter.cpp resolves every operand through
 * a `std::map<std::string, RtValue>` environment; that cost sits on
 * every speculation hot path (producer runs, auxiliary runs, audit
 * re-derivation, the fuzz oracle). This tier lowers each function
 * once into a flat instruction stream over a small register frame:
 *
 *  - temps are classed statically (integer vs floating) from the SSA
 *    def sites, so registers are raw 8-byte slots with no runtime
 *    type tags and no name lookups;
 *  - register slots are assigned by interval allocation over the
 *    linearized code, with live ranges widened by the block-level
 *    `analysis::Liveness` results so loop-carried values keep their
 *    slot across back edges;
 *  - phis are lowered to parallel-copy sequences on dedicated edge
 *    stubs (cycle-safe, swap problems broken with a scratch);
 *  - adjacent def-use pairs are fused into superinstructions
 *    (`muladd.i` and friends) when the intermediate dies immediately
 *    — the common `S = f(I, S)` chain shape.
 *
 * Functions whose static classes cannot be resolved (e.g. a select
 * with one integer and one floating arm, or a call whose argument
 * class disagrees with the callee's declared parameter) are left to
 * the AST walker; `BcFunction::compiled == false` records why. The
 * speculation-safety analysis (FRZ03) guarantees analysis-clean
 * modules compile fully.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace stats::ir::bc {

/**
 * Core opcodes. X-macro: name, mnemonic, operand format. The
 * mnemonics are the disassembler's vocabulary and are cross-checked
 * against docs/INTERPRETER.md by tests/bytecode_test.cpp.
 */
#define STATS_BC_CORE_OPCODES(X)                                       \
    X(LdcI, "ldc.i", RegPoolI)    /* a = ipool[imm]               */   \
    X(LdcF, "ldc.f", RegPoolF)    /* a = fpool[imm]               */   \
    X(Mov, "mov", TwoReg)         /* a = b (raw copy)             */   \
    X(I2F, "i2f", TwoReg)         /* a.f = double(b.i)            */   \
    X(I2F32, "i2f32", TwoReg)     /* a.f = float(double(b.i))     */   \
    X(F2I, "f2i.sat", TwoReg)     /* a.i = saturating int(b.f)    */   \
    X(F2INc, "f2i.nc", TwoReg)    /* a.i = int(b.f); proven range */   \
    X(F2F32, "f2f32", TwoReg)     /* a.f = float(b.f)             */   \
    X(AddI, "add.i", ThreeReg)    /* a.i = b.i + c.i (wraps)      */   \
    X(SubI, "sub.i", ThreeReg)                                         \
    X(MulI, "mul.i", ThreeReg)                                         \
    X(DivI, "div.i", ThreeReg)    /* panics on 0; MIN/-1 wraps    */   \
    X(DivINc, "div.i.nc", ThreeReg) /* raw b.i/c.i; proven range  */   \
    X(AddF, "add.f", ThreeReg)    /* a.f = b.f + c.f              */   \
    X(SubF, "sub.f", ThreeReg)                                         \
    X(MulF, "mul.f", ThreeReg)                                         \
    X(DivF, "div.f", ThreeReg)                                         \
    X(AddF32, "add.f32", ThreeReg) /* float-rounded result        */   \
    X(SubF32, "sub.f32", ThreeReg)                                     \
    X(MulF32, "mul.f32", ThreeReg)                                     \
    X(DivF32, "div.f32", ThreeReg)                                     \
    X(EqI, "cmpeq.i", ThreeReg)   /* a.i = (b.i == c.i)           */   \
    X(LtI, "cmplt.i", ThreeReg)                                        \
    X(LeI, "cmple.i", ThreeReg)                                        \
    X(EqF, "cmpeq.f", ThreeReg)   /* a.i = (b.f == c.f)           */   \
    X(LtF, "cmplt.f", ThreeReg)                                        \
    X(LeF, "cmple.f", ThreeReg)                                        \
    X(Sel, "sel", FourReg)        /* a = b.i ? c : imm (raw)      */   \
    X(Brnz, "brnz", Branch)       /* if (b.i != 0) goto imm       */   \
    X(Jmp, "jmp", Target)         /* goto imm                     */   \
    X(Call, "call", CallFmt)      /* a = call sites[imm]          */   \
    X(Ret, "ret", RetReg)         /* return a (raw)               */   \
    X(RetV, "ret.void", None)

/**
 * Superinstructions: fused def-use pairs whose intermediate value
 * dies immediately. The float variants keep the unfused double
 * roundings (explicit temporary, -ffp-contract=off), so fusion can
 * never change a result.
 */
#define STATS_BC_SUPER_OPCODES(X)                                      \
    X(MulAddI, "muladd.i", FourReg) /* a.i = b.i*c.i + imm.i      */   \
    X(MulAddF, "muladd.f", FourReg) /* a.f = b.f*c.f + imm.f      */   \
    X(AddAddI, "addadd.i", FourReg) /* a.i = (b.i+c.i) + imm.i    */   \
    X(AddAddF, "addadd.f", FourReg)                                    \
    X(AddMulI, "addmul.i", FourReg) /* a.i = (b.i+c.i) * imm.i    */   \
    X(AddMulF, "addmul.f", FourReg)

#define STATS_BC_OPCODES(X)                                            \
    STATS_BC_CORE_OPCODES(X)                                           \
    STATS_BC_SUPER_OPCODES(X)

enum class BcOp : std::uint8_t
{
#define STATS_BC_ENUM(name, mnemonic, format) name,
    STATS_BC_OPCODES(STATS_BC_ENUM)
#undef STATS_BC_ENUM
};

/** How an instruction's fields are interpreted (drives disasm too). */
enum class BcFormat
{
    RegPoolI, ///< a = dst reg, imm = ipool index
    RegPoolF, ///< a = dst reg, imm = fpool index
    TwoReg,   ///< a = dst reg, b = src reg
    ThreeReg, ///< a = dst reg, b/c = src regs
    FourReg,  ///< a = dst reg, b/c/imm = src regs
    Branch,   ///< b = cond reg, imm = code target
    Target,   ///< imm = code target
    CallFmt,  ///< a = dst reg (kNoReg = none), imm = call-site index
    RetReg,   ///< a = src reg
    None,
};

const char *opcodeMnemonic(BcOp op);
BcFormat opcodeFormat(BcOp op);
std::size_t opcodeCount();

/** "No register" marker for value-less call results. */
constexpr std::uint16_t kNoReg = 0xFFFF;

/** One fixed-width bytecode instruction. */
struct BcInst
{
    BcOp op = BcOp::RetV;
    std::uint16_t a = 0;
    std::uint16_t b = 0;
    std::uint16_t c = 0;
    std::int32_t imm = 0;
};

/**
 * Static value class of a register: integers and floats share the
 * raw 8-byte slot, the class picks the view. F32 values are kept as
 * float-rounded doubles, exactly like RtValue.
 */
enum class RegClass : std::uint8_t
{
    Int,
    Float,
};

/** One lowered call site. */
struct BcCallSite
{
    std::string callee;
    int calleeIndex = -1; ///< BcModule function index; -1 = external.
    /** Argument registers with their static classes (RtValue types). */
    std::vector<std::pair<std::uint16_t, Type>> args;
    /** Static class of the result, for tagging slow-path returns. */
    Type retType = Type::I64;
};

/**
 * Compiler-cooperative metadata for the post-regalloc verifier
 * (src/ir/bytecode_verifier.cpp). The clobber check (BCV03) needs the
 * virtual-register view of the final code: `vcode` is a snapshot
 * taken after branch targets are resolved but before frame slots are
 * substituted, so it is 1:1 with `BcFunction::code` — same opcodes,
 * same targets — with register fields still in vreg numbering.
 */
struct BcVerifyInfo
{
    std::vector<BcInst> vcode;
    /** vreg -> assigned frame slot (kNoReg: never materialized). */
    std::vector<std::uint16_t> slotOf;
    /** Parameter vregs, declaration order (kNoReg: dead parameter). */
    std::vector<std::uint16_t> paramVregs;
    /** Per call site, the argument vregs (1:1 with calls[i].args). */
    std::vector<std::vector<std::uint16_t>> callArgVregs;
};

/** One compiled function. */
struct BcFunction
{
    std::string name;
    bool compiled = false;
    std::string fallbackReason; ///< Why the AST walker keeps this one.

    std::uint16_t numRegs = 0;
    std::vector<std::uint16_t> paramRegs;
    std::vector<RegClass> paramClasses;
    Type retType = Type::Void; ///< Static type of returned values.

    std::vector<BcInst> code;
    std::vector<std::int64_t> ipool;
    std::vector<double> fpool;
    std::vector<BcCallSite> calls;

    /**
     * Batch (SoA) eligibility: one reachable block, no calls, and a
     * value-returning terminator — the straight-line arithmetic shape
     * the SIMD kernels execute lane-parallel.
     */
    bool batchable = false;

    std::size_t sourceInstructions = 0;
    std::size_t fusedCount = 0;   ///< Superinstructions emitted.
    std::size_t foldedBranches = 0; ///< Branches removed by ranges.

    BcVerifyInfo verifyInfo;
};

/** A compiled module. */
struct BcModule
{
    std::vector<BcFunction> functions;
    std::map<std::string, int> index;

    const BcFunction *find(const std::string &name) const;
    std::size_t compiledCount() const;
};

/**
 * Compile every function of `module`. Functions that cannot be
 * statically classed are returned with `compiled == false` and a
 * `fallbackReason`; callers decide whether that is an error (tier
 * `bytecode`) or a per-function AST fallback (tier `auto`).
 *
 * @param external_types  result classes of external (builtin)
 *        functions; unlisted externals default to F64, matching the
 *        Interpreter's builtins.
 */
BcModule compileModule(
    const Module &module,
    const std::map<std::string, Type> &external_types = {});

namespace testonly {

/**
 * Re-opens the historical back-edge phi-liveness hole in the register
 * allocator: when set, live intervals are NOT widened over the
 * back-edge phi-copy stubs, so a loop-carried value can lose its slot
 * to the parallel-copy scratch mid-stub. Exists solely so tests can
 * prove the bytecode verifier rejects that bug class statically
 * (tests/bytecode_verifier_test.cpp). Never set outside tests.
 */
extern bool disableBackEdgeWidening;

} // namespace testonly

} // namespace stats::ir::bc
