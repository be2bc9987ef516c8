/**
 * @file
 * IR-to-bytecode compiler (docs/INTERPRETER.md).
 *
 * The pipeline per function: (1) static class inference over a small
 * type lattice, module-wide fixpoint so call results class through;
 * (2) lowering to virtual-register code, with phis turned into
 * parallel-copy edge stubs and class conversions materialized at the
 * exact points the AST walker's RtValue::asInt/asFloat would convert;
 * (3) superinstruction fusion of adjacent def-use pairs whose
 * intermediate dies; (4) interval register allocation, widening every
 * temp's interval with the block-level analysis::Liveness facts so
 * loop-carried values hold their slot across back edges.
 *
 * Exactness contract: a compiled function must produce bit-identical
 * results to ir::Interpreter on every input. Whenever static
 * reasoning cannot guarantee that — mixed-class phis or selects, call
 * argument classes that disagree with the callee's declared
 * parameters, uses of undefined temps — the function is bailed to the
 * AST walker instead of compiled approximately. The one assumption we
 * do make is the repo-wide SSA convention that definitions dominate
 * uses (the structural verifier does not enforce it; the fuzzer
 * generator and all examples satisfy it).
 */

#include "ir/bytecode.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/def_use.hpp"
#include "analysis/manager.hpp"
#include "analysis/range.hpp"
#include "ir/bytecode_verifier.hpp"
#include "support/log.hpp"

namespace stats::ir::bc {

namespace testonly {

bool disableBackEdgeWidening = false;

} // namespace testonly

namespace {

const char *const kMnemonics[] = {
#define STATS_BC_MNEMONIC(name, mnemonic, format) mnemonic,
    STATS_BC_OPCODES(STATS_BC_MNEMONIC)
#undef STATS_BC_MNEMONIC
};

const BcFormat kFormats[] = {
#define STATS_BC_FORMAT(name, mnemonic, format) BcFormat::format,
    STATS_BC_OPCODES(STATS_BC_FORMAT)
#undef STATS_BC_FORMAT
};

constexpr std::size_t kOpcodeCount =
    sizeof(kMnemonics) / sizeof(kMnemonics[0]);

/**
 * Static value lattice. FloatMixed is a float-class value whose
 * precision tag (F64 vs F32) varies dynamically; execution only needs
 * the class, the tag degrades to F64 at boundaries.
 */
enum class Cls : std::uint8_t
{
    Unknown,
    I64,
    F64,
    F32,
    FloatMixed,
    Conflict,
};

bool
isFloatCls(Cls c)
{
    return c == Cls::F64 || c == Cls::F32 || c == Cls::FloatMixed;
}

Cls
merge(Cls a, Cls b)
{
    if (a == b || b == Cls::Unknown)
        return a;
    if (a == Cls::Unknown)
        return b;
    if (a == Cls::Conflict || b == Cls::Conflict)
        return Cls::Conflict;
    if (isFloatCls(a) && isFloatCls(b))
        return Cls::FloatMixed;
    return Cls::Conflict;
}

/** Void behaves as I64 everywhere the interpreter tests isFloating. */
Cls
clsOfType(Type type)
{
    switch (type) {
      case Type::F64: return Cls::F64;
      case Type::F32: return Cls::F32;
      default: return Cls::I64;
    }
}

Type
typeTag(Cls c)
{
    switch (c) {
      case Cls::F64: return Type::F64;
      case Cls::F32: return Type::F32;
      case Cls::FloatMixed: return Type::F64;
      default: return Type::I64;
    }
}

/** Per-function inference result. */
struct FnClasses
{
    std::map<std::string, Cls> temps;
    Cls ret = Cls::Unknown; ///< Merged class of value-returning rets.
    bool hasValueRet = false;
    bool hasVoidRet = false;
};

/** Replicates RtValue::asInt for compile-time constant folding. */
std::int64_t
saturateToInt(double f)
{
    if (f != f)
        return 0;
    if (f >= 9223372036854775808.0)
        return 9223372036854775807LL;
    if (f < -9223372036854775808.0)
        return -9223372036854775807LL - 1;
    return static_cast<std::int64_t>(f);
}

struct Inference
{
    const Module &module;
    const std::map<std::string, Type> &externalTypes;
    std::map<std::string, FnClasses> byFn;

    Cls operandCls(const FnClasses &fc, const Operand &op) const
    {
        switch (op.kind) {
          case Operand::Kind::ConstInt: return Cls::I64;
          case Operand::Kind::ConstFloat: return Cls::F64;
          case Operand::Kind::Temp: {
            auto it = fc.temps.find(op.name);
            return it == fc.temps.end() ? Cls::Unknown : it->second;
          }
        }
        return Cls::Unknown;
    }

    Cls calleeRetCls(const std::string &callee) const
    {
        if (module.findFunction(callee)) {
            const auto &fc = byFn.at(callee);
            // A void-only function materializes as I64 0 at the call.
            if (!fc.hasValueRet)
                return fc.hasVoidRet ? Cls::I64 : Cls::Unknown;
            return fc.hasVoidRet ? merge(fc.ret, Cls::I64) : fc.ret;
        }
        auto it = externalTypes.find(callee);
        return clsOfType(it == externalTypes.end() ? Type::F64
                                                   : it->second);
    }

    /** One monotone pass over `fn`; returns true when facts changed. */
    bool pass(const Function &fn, const analysis::Cfg &cfg)
    {
        FnClasses &fc = byFn[fn.name];
        bool changed = false;
        auto update = [&](const std::string &name, Cls cls) {
            Cls &slot = fc.temps[name];
            // Multiple defs of one temp merge (the IR is SSA only by
            // convention), except that re-running a pass must not
            // self-merge a def into its previous value: recompute from
            // scratch per pass instead.
            const Cls next = merge(slot, cls);
            if (next != slot) {
                slot = next;
                changed = true;
            }
        };
        for (const auto &param : fn.params)
            update(param.name, clsOfType(param.type));
        for (int block : cfg.reversePostorder()) {
            const BasicBlock &bb = cfg.block(block);
            for (const auto &inst : bb.instructions) {
                switch (inst.op) {
                  case Opcode::Add:
                  case Opcode::Sub:
                  case Opcode::Mul:
                  case Opcode::Div:
                  case Opcode::Cast:
                    update(inst.result, clsOfType(inst.type));
                    break;
                  case Opcode::CmpEq:
                  case Opcode::CmpLt:
                  case Opcode::CmpLe:
                    update(inst.result, Cls::I64);
                    break;
                  case Opcode::Select:
                    update(inst.result,
                           merge(operandCls(fc, inst.operands[1]),
                                 operandCls(fc, inst.operands[2])));
                    break;
                  case Opcode::Phi: {
                    // Only edges that can execute contribute a class.
                    Cls cls = Cls::Unknown;
                    for (std::size_t i = 0; i < inst.operands.size();
                         ++i) {
                        const int pred = cfg.indexOf(inst.labels[i]);
                        if (pred < 0 || !cfg.reachable(pred))
                            continue;
                        cls = merge(cls,
                                    operandCls(fc, inst.operands[i]));
                    }
                    update(inst.result, cls);
                    break;
                  }
                  case Opcode::Call:
                    if (!inst.result.empty())
                        update(inst.result, calleeRetCls(inst.callee));
                    break;
                  case Opcode::Ret:
                    if (inst.operands.empty()) {
                        if (!fc.hasVoidRet) {
                            fc.hasVoidRet = true;
                            changed = true;
                        }
                    } else {
                        const Cls cls =
                            merge(fc.ret,
                                  operandCls(fc, inst.operands[0]));
                        if (!fc.hasValueRet || cls != fc.ret) {
                            fc.hasValueRet = true;
                            fc.ret = cls;
                            changed = true;
                        }
                    }
                    break;
                  default:
                    break;
                }
            }
        }
        return changed;
    }
};

/** Compile-time bail: this function stays on the AST walker. */
struct BailOut
{
    std::string reason;
};

[[noreturn]] void
bail(std::string reason)
{
    throw BailOut{std::move(reason)};
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/** A contiguous run of code; branch targets resolve to region starts. */
struct Region
{
    std::vector<BcInst> code;
    int block = -1;      ///< Cfg block index for bodies, -1 for others.
    bool fusable = false; ///< Superinstruction peephole runs here.
};

class FunctionLowering
{
  public:
    FunctionLowering(const Module &module, const Function &fn,
                     const Inference &inference,
                     const analysis::FunctionRanges &ranges)
        : _module(module), _fn(fn), _inference(inference),
          _classes(inference.byFn.at(fn.name)), _ranges(ranges),
          _cfg(fn), _du(fn), _live(_cfg, _du)
    {
    }

    BcFunction run();

  private:
    Cls clsOf(const std::string &temp) const
    {
        auto it = _classes.temps.find(temp);
        if (it == _classes.temps.end())
            bail("uses undefined temp %" + temp);
        if (it->second == Cls::Conflict)
            bail("temp %" + temp + " mixes integer and float classes");
        if (it->second == Cls::Unknown)
            bail("temp %" + temp + " has no classable definition");
        return it->second;
    }

    std::uint16_t vregOf(const std::string &temp)
    {
        auto it = _vregOf.find(temp);
        if (it != _vregOf.end())
            return it->second;
        if (_du.defs(temp).empty())
            bail("uses undefined temp %" + temp);
        return _vregOf.emplace(temp, newVreg()).first->second;
    }

    std::uint16_t newVreg()
    {
        if (_nextVreg == kNoReg)
            bail("virtual register file overflow");
        return _nextVreg++;
    }

    std::uint16_t scratchVreg()
    {
        if (_scratch == kNoReg)
            _scratch = newVreg();
        return _scratch;
    }

    /** Constant-pool register, value pre-converted to its class. */
    std::uint16_t constVreg(bool floating, std::int64_t iv, double fv)
    {
        std::uint64_t bits = 0;
        if (floating)
            std::memcpy(&bits, &fv, sizeof(bits));
        else
            bits = static_cast<std::uint64_t>(iv);
        auto key = std::make_pair(floating, bits);
        auto it = _constVreg.find(key);
        if (it != _constVreg.end())
            return it->second;
        const std::uint16_t reg = newVreg();
        BcInst load;
        if (floating) {
            load.op = BcOp::LdcF;
            load.imm = static_cast<std::int32_t>(_fpool.size());
            _fpool.push_back(fv);
        } else {
            load.op = BcOp::LdcI;
            load.imm = static_cast<std::int32_t>(_ipool.size());
            _ipool.push_back(iv);
        }
        load.a = reg;
        _preamble.push_back(load);
        _constVreg.emplace(key, reg);
        return reg;
    }

    /**
     * Register holding `op` as seen through `wanted`'s class — the
     * static image of the interpreter's per-use asInt()/asFloat().
     * Constants fold; temps of the other class get a conversion
     * emitted into `out` right before the consumer.
     */
    std::uint16_t materialize(const Operand &op, Cls wanted,
                              std::vector<BcInst> &out)
    {
        const bool wantFloat = isFloatCls(wanted);
        switch (op.kind) {
          case Operand::Kind::ConstInt:
            return wantFloat
                       ? constVreg(true, 0,
                                   static_cast<double>(op.intValue))
                       : constVreg(false, op.intValue, 0.0);
          case Operand::Kind::ConstFloat:
            return wantFloat
                       ? constVreg(true, 0, op.floatValue)
                       : constVreg(false, saturateToInt(op.floatValue),
                                   0.0);
          case Operand::Kind::Temp: {
            const Cls have = clsOf(op.name);
            const std::uint16_t src = vregOf(op.name);
            if (isFloatCls(have) == wantFloat)
                return src;
            // A fresh vreg per conversion: one instruction may need
            // both operands converted, and sharing the parallel-copy
            // scratch would clobber the first before its use.
            BcInst convert;
            convert.op = wantFloat ? BcOp::I2F : BcOp::F2I;
            convert.a = newVreg();
            convert.b = src;
            out.push_back(convert);
            return convert.a;
          }
        }
        bail("bad operand");
    }

    /** Region the edge pred->succ jumps to (stub when succ has phis). */
    int edgeRegion(int pred, int succ)
    {
        const BasicBlock &bb = _cfg.block(succ);
        const bool has_phis = !bb.instructions.empty() &&
                              bb.instructions.front().op == Opcode::Phi;
        if (!has_phis)
            return _bodyRegion[std::size_t(succ)];
        auto key = std::make_pair(pred, succ);
        auto it = _stubRegion.find(key);
        if (it != _stubRegion.end())
            return it->second;
        bail("internal: stub for unprepared edge");
    }

    /** Range of an operand under this function's analysis results. */
    analysis::ValueRange rangeOf(const Operand &op) const
    {
        return analysis::rangeproof::rangeOfOperand(op, _ranges);
    }

    /**
     * Successors a block can still reach once proven-constant branches
     * are folded: the taken edge only for a folded `br`, every CFG
     * successor otherwise.
     */
    std::vector<int> foldedSuccessors(int block) const
    {
        const auto it = _foldedSucc.find(block);
        if (it != _foldedSucc.end())
            return {it->second};
        return _cfg.successors(block);
    }

    void foldBranches();
    void buildStub(int pred, int succ);
    void lowerBlock(int block);
    void fuseRegion(Region &region,
                    const std::vector<std::uint32_t> &reads);
    void countAccesses(std::vector<std::uint32_t> &reads) const;
    void allocateRegisters(BcFunction &out,
                           const std::vector<BcInst> &code,
                           const std::vector<std::size_t> &regionStart);

    const Module &_module;
    const Function &_fn;
    const Inference &_inference;
    const FnClasses &_classes;
    const analysis::FunctionRanges &_ranges;
    analysis::Cfg _cfg;
    analysis::DefUse _du;
    analysis::Liveness _live;

    std::map<std::string, std::uint16_t> _vregOf;
    std::uint16_t _nextVreg = 0;
    std::uint16_t _scratch = kNoReg;
    std::map<std::pair<bool, std::uint64_t>, std::uint16_t> _constVreg;
    std::vector<BcInst> _preamble;
    std::vector<std::int64_t> _ipool;
    std::vector<double> _fpool;
    std::vector<BcCallSite> _calls;

    std::vector<Region> _regions;
    std::vector<int> _bodyRegion;              ///< block -> region id.
    std::map<std::pair<int, int>, int> _stubRegion;
    std::map<int, std::vector<std::uint16_t>> _stubPhiDsts;
    std::map<int, int> _foldedSucc; ///< folded br: block -> taken succ.
    std::vector<bool> _foldedReach; ///< reachable after folding.
    std::size_t _fused = 0;
    std::size_t _folded = 0;
    std::vector<std::uint16_t> _slotOf;
    std::uint16_t _numSlots = 0;
};

/** Parallel-copy sequentialization; cycles break through `scratch`. */
void
sequentializeCopies(std::vector<std::pair<std::uint16_t, std::uint16_t>>
                        copies, // {dst, src}
                    std::uint16_t scratch, std::vector<BcInst> &out)
{
    auto emitMov = [&](std::uint16_t dst, std::uint16_t src) {
        BcInst mov;
        mov.op = BcOp::Mov;
        mov.a = dst;
        mov.b = src;
        out.push_back(mov);
    };
    copies.erase(std::remove_if(copies.begin(), copies.end(),
                                [](const auto &c) {
                                    return c.first == c.second;
                                }),
                 copies.end());
    while (!copies.empty()) {
        bool progress = false;
        for (std::size_t i = 0; i < copies.size(); ++i) {
            const auto [dst, src] = copies[i];
            bool blocked = false;
            for (std::size_t j = 0; j < copies.size(); ++j)
                if (j != i && copies[j].second == dst)
                    blocked = true;
            if (blocked)
                continue;
            emitMov(dst, src);
            copies.erase(copies.begin() + std::ptrdiff_t(i));
            progress = true;
            break;
        }
        if (progress)
            continue;
        // Every remaining destination is still read: a cycle. Park one
        // source in the scratch register and retarget its readers.
        const std::uint16_t parked = copies.front().second;
        emitMov(scratch, parked);
        for (auto &copy : copies)
            if (copy.second == parked)
                copy.second = scratch;
    }
}

/**
 * Fold `br` terminators whose condition the range analysis proved
 * constant, then recompute reachability over the folded edges. The
 * proof covers every value the walker can ever observe for the
 * condition, so the walker takes the same edge on every run and the
 * untaken side (plus anything only it reached) need not be lowered.
 * Block bodies before the branch still lower unchanged — a panicking
 * `div` on the path to a folded branch must still panic.
 */
void
FunctionLowering::foldBranches()
{
    for (const int block : _cfg.reversePostorder()) {
        const BasicBlock &bb = _cfg.block(block);
        for (const auto &inst : bb.instructions) {
            if (inst.op == Opcode::Phi)
                continue;
            if (!isTerminator(inst.op))
                continue;
            if (inst.op == Opcode::Br) {
                const auto truth = analysis::rangeproof::provenTruth(
                    rangeOf(inst.operands[0]));
                if (truth.has_value()) {
                    const int taken =
                        _cfg.indexOf(inst.labels[*truth ? 0 : 1]);
                    if (taken >= 0)
                        _foldedSucc[block] = taken;
                }
            }
            break; // Only the first terminator executes.
        }
    }

    // Folded reachability: a BFS from entry over folded successors.
    _foldedReach.assign(_cfg.blockCount(), false);
    std::vector<int> work{_cfg.entry()};
    _foldedReach[std::size_t(_cfg.entry())] = true;
    while (!work.empty()) {
        const int block = work.back();
        work.pop_back();
        for (const int succ : foldedSuccessors(block)) {
            if (!_foldedReach[std::size_t(succ)]) {
                _foldedReach[std::size_t(succ)] = true;
                work.push_back(succ);
            }
        }
    }
}

void
FunctionLowering::buildStub(int pred, int succ)
{
    const BasicBlock &bb = _cfg.block(succ);
    const std::string &pred_label = _cfg.block(pred).label;
    Region stub;

    // Gather the parallel copies this edge performs. A duplicated phi
    // result keeps the last incoming, like the interpreter's
    // phi_values map.
    std::map<std::uint16_t, std::uint16_t> by_dst_order_free;
    std::vector<std::pair<std::uint16_t, std::uint16_t>> copies;
    for (const auto &inst : bb.instructions) {
        if (inst.op != Opcode::Phi)
            break;
        const Cls cls = clsOf(inst.result);
        bool found = false;
        std::uint16_t src = 0;
        for (std::size_t i = 0; i < inst.labels.size(); ++i) {
            if (inst.labels[i] != pred_label)
                continue;
            // First matching incoming wins, like the interpreter.
            src = materialize(inst.operands[i], cls, stub.code);
            found = true;
            break;
        }
        if (!found)
            bail("phi in '" + bb.label + "' misses incoming for '" +
                 pred_label + "'");
        const std::uint16_t dst = vregOf(inst.result);
        by_dst_order_free[dst] = src;
    }
    copies.assign(by_dst_order_free.begin(), by_dst_order_free.end());
    auto &dsts = _stubPhiDsts[_stubRegion.at({pred, succ})];
    for (const auto &[dst, src] : copies) {
        (void)src;
        dsts.push_back(dst);
    }
    sequentializeCopies(std::move(copies), scratchVreg(), stub.code);

    BcInst jmp;
    jmp.op = BcOp::Jmp;
    jmp.imm = _bodyRegion[std::size_t(succ)];
    stub.code.push_back(jmp);
    _regions[std::size_t(_stubRegion.at({pred, succ}))] =
        std::move(stub);
}

void
FunctionLowering::lowerBlock(int block)
{
    const BasicBlock &bb = _cfg.block(block);
    Region region;
    region.block = block;
    region.fusable = true;
    auto &code = region.code;

    bool seen_non_phi = false;
    for (const auto &inst : bb.instructions) {
        if (inst.op != Opcode::Phi)
            seen_non_phi = true;
        switch (inst.op) {
          case Opcode::Phi:
            // Lowered on the incoming edges' stubs. Entry-block phis
            // always panic in the AST walker (there is no incoming
            // edge on the first entry), and the walker ignores phis
            // below the leading group; neither shape compiles.
            if (block == 0)
                bail("phi in entry block");
            if (seen_non_phi)
                bail("phi below the leading phi group");
            continue;
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Mul:
          case Opcode::Div: {
            const bool floating = isFloating(inst.type);
            const bool f32 = inst.type == Type::F32;
            const Cls want = floating ? Cls::F64 : Cls::I64;
            BcInst out;
            out.b = materialize(inst.operands[0], want, code);
            out.c = materialize(inst.operands[1], want, code);
            out.a = vregOf(inst.result);
            switch (inst.op) {
              case Opcode::Add:
                out.op = f32 ? BcOp::AddF32
                             : floating ? BcOp::AddF : BcOp::AddI;
                break;
              case Opcode::Sub:
                out.op = f32 ? BcOp::SubF32
                             : floating ? BcOp::SubF : BcOp::SubI;
                break;
              case Opcode::Mul:
                out.op = f32 ? BcOp::MulF32
                             : floating ? BcOp::MulF : BcOp::MulI;
                break;
              default:
                out.op = f32 ? BcOp::DivF32
                             : floating ? BcOp::DivF : BcOp::DivI;
                // Raw machine division when the ranges prove neither
                // the zero-divisor panic nor the MIN/-1 wrap guard
                // can trigger.
                if (out.op == BcOp::DivI &&
                    analysis::rangeproof::divNeedsNoGuards(
                        rangeOf(inst.operands[0]),
                        rangeOf(inst.operands[1])))
                    out.op = BcOp::DivINc;
                break;
            }
            code.push_back(out);
            break;
          }
          case Opcode::CmpEq:
          case Opcode::CmpLt:
          case Opcode::CmpLe: {
            const bool floating = isFloating(inst.type);
            const Cls want = floating ? Cls::F64 : Cls::I64;
            BcInst out;
            out.b = materialize(inst.operands[0], want, code);
            out.c = materialize(inst.operands[1], want, code);
            out.a = vregOf(inst.result);
            out.op = inst.op == Opcode::CmpEq
                         ? (floating ? BcOp::EqF : BcOp::EqI)
                     : inst.op == Opcode::CmpLt
                         ? (floating ? BcOp::LtF : BcOp::LtI)
                         : (floating ? BcOp::LeF : BcOp::LeI);
            code.push_back(out);
            break;
          }
          case Opcode::Select: {
            const Cls cls = clsOf(inst.result);
            BcInst out;
            out.op = BcOp::Sel;
            out.b = materialize(inst.operands[0], Cls::I64, code);
            out.c = materialize(inst.operands[1], cls, code);
            out.imm = materialize(inst.operands[2], cls, code);
            out.a = vregOf(inst.result);
            code.push_back(out);
            break;
          }
          case Opcode::Cast: {
            const Operand &src = inst.operands[0];
            BcInst out;
            out.a = vregOf(inst.result);
            if (src.kind != Operand::Kind::Temp) {
                // Constant casts fold completely at compile time.
                double fv = src.kind == Operand::Kind::ConstFloat
                                ? src.floatValue
                                : double(src.intValue);
                std::int64_t iv = src.kind == Operand::Kind::ConstInt
                                      ? src.intValue
                                      : saturateToInt(src.floatValue);
                out.op = BcOp::Mov;
                if (inst.type == Type::F32)
                    out.b = constVreg(true, 0, double(float(fv)));
                else if (isFloating(inst.type))
                    out.b = constVreg(true, 0, fv);
                else
                    out.b = constVreg(false, iv, 0.0);
            } else {
                const bool src_float = isFloatCls(clsOf(src.name));
                out.b = vregOf(src.name);
                if (inst.type == Type::F32)
                    out.op = src_float ? BcOp::F2F32 : BcOp::I2F32;
                else if (isFloating(inst.type))
                    out.op = src_float ? BcOp::Mov : BcOp::I2F;
                else if (src_float)
                    // Raw truncation when the range proves every
                    // admitted double (no NaN) converts in-bounds.
                    out.op = analysis::rangeproof::castNeverSaturates(
                                 rangeOf(src))
                                 ? BcOp::F2INc
                                 : BcOp::F2I;
                else
                    out.op = BcOp::Mov;
            }
            code.push_back(out);
            break;
          }
          case Opcode::Call: {
            BcCallSite site;
            site.callee = inst.callee;
            const Function *callee = _module.findFunction(inst.callee);
            if (callee &&
                callee->params.size() != inst.operands.size())
                bail("call @" + inst.callee + " arity mismatch");
            for (std::size_t i = 0; i < inst.operands.size(); ++i) {
                const Operand &arg = inst.operands[i];
                const Cls have =
                    arg.kind == Operand::Kind::Temp
                        ? clsOf(arg.name)
                        : (arg.kind == Operand::Kind::ConstFloat
                               ? Cls::F64
                               : Cls::I64);
                Cls want = have;
                if (callee) {
                    // A compiled callee reads its frame through its
                    // declared parameter classes, while the AST walker
                    // re-types the raw value at every use. A temp of
                    // the other class would lose that dynamic view, so
                    // the caller bails; a constant is pre-converted
                    // when (and only when) the value round-trips
                    // exactly, which makes entry-conversion and
                    // per-use conversion indistinguishable.
                    want = clsOfType(callee->params[i].type);
                    if (isFloatCls(have) != isFloatCls(want)) {
                        if (arg.kind == Operand::Kind::Temp)
                            bail("call @" + inst.callee + " arg " +
                                 std::to_string(i) +
                                 " class disagrees with parameter");
                        if (arg.kind == Operand::Kind::ConstInt) {
                            const double as_float =
                                double(arg.intValue);
                            if (saturateToInt(as_float) !=
                                arg.intValue)
                                bail("call @" + inst.callee + " arg " +
                                     std::to_string(i) +
                                     " constant not exactly "
                                     "convertible");
                        } else {
                            const std::int64_t as_int =
                                saturateToInt(arg.floatValue);
                            if (double(as_int) != arg.floatValue)
                                bail("call @" + inst.callee + " arg " +
                                     std::to_string(i) +
                                     " constant not exactly "
                                     "convertible");
                        }
                    }
                }
                const std::uint16_t reg = materialize(arg, want, code);
                site.args.emplace_back(reg, typeTag(want));
            }
            site.retType =
                typeTag(_inference.calleeRetCls(inst.callee));
            BcInst out;
            out.op = BcOp::Call;
            out.a = inst.result.empty() ? kNoReg : vregOf(inst.result);
            out.imm = static_cast<std::int32_t>(_calls.size());
            _calls.push_back(std::move(site));
            code.push_back(out);
            break;
          }
          case Opcode::Br: {
            const auto folded = _foldedSucc.find(block);
            if (folded != _foldedSucc.end()) {
                // Proven-constant condition: the walker takes this
                // edge on every run. The condition itself need not be
                // materialized (operand evaluation is pure).
                BcInst jmp;
                jmp.op = BcOp::Jmp;
                jmp.imm = edgeRegion(block, folded->second);
                code.push_back(jmp);
                ++_folded;
                break;
            }
            BcInst brnz;
            brnz.op = BcOp::Brnz;
            brnz.b = materialize(inst.operands[0], Cls::I64, code);
            const int then_block = _cfg.indexOf(inst.labels[0]);
            const int else_block = _cfg.indexOf(inst.labels[1]);
            if (then_block < 0 || else_block < 0)
                bail("branch to missing block");
            brnz.imm = edgeRegion(block, then_block);
            code.push_back(brnz);
            BcInst jmp;
            jmp.op = BcOp::Jmp;
            jmp.imm = edgeRegion(block, else_block);
            code.push_back(jmp);
            break;
          }
          case Opcode::Jmp: {
            const int succ = _cfg.indexOf(inst.labels[0]);
            if (succ < 0)
                bail("jump to missing block");
            BcInst jmp;
            jmp.op = BcOp::Jmp;
            jmp.imm = edgeRegion(block, succ);
            code.push_back(jmp);
            break;
          }
          case Opcode::Ret: {
            BcInst out;
            if (inst.operands.empty()) {
                out.op = BcOp::RetV;
            } else {
                // The interpreter returns the operand's value raw, no
                // conversion: materialize in the operand's own class.
                const Operand &val = inst.operands[0];
                const Cls own =
                    val.kind == Operand::Kind::Temp ? clsOf(val.name)
                    : val.kind == Operand::Kind::ConstFloat ? Cls::F64
                                                            : Cls::I64;
                out.op = BcOp::Ret;
                out.a = materialize(val, own, code);
            }
            code.push_back(out);
            break;
          }
        }
        // The walker leaves a block at its first terminator; anything
        // after it is dead and must not constrain lowering.
        if (inst.op == Opcode::Br || inst.op == Opcode::Jmp ||
            inst.op == Opcode::Ret)
            break;
    }
    _regions[std::size_t(_bodyRegion[std::size_t(block)])] =
        std::move(region);
}

void
FunctionLowering::countAccesses(std::vector<std::uint32_t> &reads) const
{
    auto read = [&](std::uint16_t reg) {
        if (reg != kNoReg)
            ++reads[reg];
    };
    for (const auto &region : _regions) {
        for (const auto &inst : region.code) {
            switch (opcodeFormat(inst.op)) {
              case BcFormat::TwoReg:
                read(inst.b);
                break;
              case BcFormat::ThreeReg:
                read(inst.b);
                read(inst.c);
                break;
              case BcFormat::FourReg:
                read(inst.b);
                read(inst.c);
                read(static_cast<std::uint16_t>(inst.imm));
                break;
              case BcFormat::Branch:
                read(inst.b);
                break;
              case BcFormat::CallFmt:
                for (const auto &arg :
                     _calls[std::size_t(inst.imm)].args)
                    read(arg.first);
                break;
              case BcFormat::RetReg:
                read(inst.a);
                break;
              default:
                break;
            }
        }
    }
}

void
FunctionLowering::fuseRegion(Region &region,
                             const std::vector<std::uint32_t> &reads)
{
    struct Pattern
    {
        BcOp first, second, fused;
    };
    // add/mul are exactly commutative in both classes (for floats the
    // result value is identical either way), so the dying operand may
    // sit on either side of the second instruction. F32 ops are
    // excluded: their intermediate float-rounding must stay.
    static const Pattern patterns[] = {
        {BcOp::MulI, BcOp::AddI, BcOp::MulAddI},
        {BcOp::MulF, BcOp::AddF, BcOp::MulAddF},
        {BcOp::AddI, BcOp::AddI, BcOp::AddAddI},
        {BcOp::AddF, BcOp::AddF, BcOp::AddAddF},
        {BcOp::AddI, BcOp::MulI, BcOp::AddMulI},
        {BcOp::AddF, BcOp::MulF, BcOp::AddMulF},
    };
    auto &code = region.code;
    for (std::size_t i = 0; i + 1 < code.size();) {
        const BcInst first = code[i];
        const BcInst second = code[i + 1];
        BcOp fused = BcOp::RetV;
        bool matched = false;
        for (const auto &pattern : patterns) {
            if (pattern.first == first.op &&
                pattern.second == second.op) {
                fused = pattern.fused;
                matched = true;
                break;
            }
        }
        // The intermediate must be read exactly once, by exactly one
        // operand of the very next instruction.
        if (!matched || reads[first.a] != 1 ||
            (second.b == first.a) == (second.c == first.a)) {
            ++i;
            continue;
        }
        BcInst repl;
        repl.op = fused;
        repl.a = second.a;
        repl.b = first.b;
        repl.c = first.c;
        repl.imm = second.b == first.a ? second.c : second.b;
        code[i] = repl;
        code.erase(code.begin() + std::ptrdiff_t(i) + 1);
        ++_fused;
        ++i;
    }
}

void
FunctionLowering::allocateRegisters(
    BcFunction &out, const std::vector<BcInst> &code,
    const std::vector<std::size_t> &regionStart)
{
    (void)out;
    constexpr int kNone = -1;
    std::vector<int> lo(_nextVreg, kNone), hi(_nextVreg, kNone);
    auto touch = [&](std::uint16_t reg, int pos) {
        if (reg == kNoReg)
            return;
        if (lo[reg] == kNone || pos < lo[reg])
            lo[reg] = pos;
        if (pos > hi[reg])
            hi[reg] = pos;
    };
    for (std::size_t p = 0; p < code.size(); ++p) {
        const BcInst &inst = code[p];
        const int pos = int(p);
        switch (opcodeFormat(inst.op)) {
          case BcFormat::RegPoolI:
          case BcFormat::RegPoolF:
            touch(inst.a, pos);
            break;
          case BcFormat::TwoReg:
            touch(inst.a, pos);
            touch(inst.b, pos);
            break;
          case BcFormat::ThreeReg:
            touch(inst.a, pos);
            touch(inst.b, pos);
            touch(inst.c, pos);
            break;
          case BcFormat::FourReg:
            touch(inst.a, pos);
            touch(inst.b, pos);
            touch(inst.c, pos);
            touch(static_cast<std::uint16_t>(inst.imm), pos);
            break;
          case BcFormat::Branch:
            touch(inst.b, pos);
            break;
          case BcFormat::CallFmt:
            touch(inst.a, pos);
            for (const auto &arg : _calls[std::size_t(inst.imm)].args)
                touch(arg.first, pos);
            break;
          case BcFormat::RetReg:
            touch(inst.a, pos);
            break;
          default:
            break;
        }
    }

    const int code_end = code.empty() ? 0 : int(code.size()) - 1;
    // Parameters are written by the caller before entry.
    for (const auto &param : _fn.params) {
        auto it = _vregOf.find(param.name);
        if (it != _vregOf.end() && lo[it->second] != kNone)
            lo[it->second] = 0;
    }
    // Constants load once in the preamble and must survive every
    // back edge: immortal.
    for (const auto &[key, reg] : _constVreg) {
        (void)key;
        if (lo[reg] != kNone) {
            lo[reg] = 0;
            hi[reg] = code_end;
        }
    }
    // Widen IR temps with the block-level liveness facts so a value
    // that crosses a back edge keeps its slot through the whole loop:
    // live-in stretches the interval to the block's first position,
    // live-out past the block's last position and past the phi-copy
    // stubs of its out-edges (which could otherwise clobber it).
    for (std::size_t r = 0; r < _regions.size(); ++r) {
        const Region &region = _regions[r];
        if (region.block < 0)
            continue;
        const int bs = int(regionStart[r]);
        int extent = int(regionStart[r] + region.code.size()) - 1;
        for (const auto &[edge, id] : _stubRegion) {
            if (edge.first != region.block)
                continue;
            extent = std::max(
                extent, int(regionStart[std::size_t(id)] +
                            _regions[std::size_t(id)].code.size()) -
                            1);
        }
        for (const auto &[name, reg] : _vregOf) {
            if (lo[reg] == kNone)
                continue;
            if (_live.liveIn(region.block, name))
                lo[reg] = std::min(lo[reg], bs);
            if (_live.liveOut(region.block, name))
                hi[reg] = std::max(hi[reg], extent);
        }
    }

    // A phi destination written on a back edge wraps around: it is
    // live from the loop body it feeds back into through the end of
    // the copy stub, which a linear hull cannot see (the IR-level
    // liveness above misses it too — in IR terms a phi result is
    // defined at the top of its block, never live-in). Without this
    // widening the parallel-copy scratch can be assigned the same
    // slot and clobber the value mid-stub.
    for (const auto &[edge, id] : _stubRegion) {
        if (testonly::disableBackEdgeWidening)
            break; // Test-only: reopen the historical hole (BCV03).
        const std::size_t stub = std::size_t(id);
        const int succ_region = _bodyRegion[std::size_t(edge.second)];
        const int succ_start = int(regionStart[std::size_t(succ_region)]);
        const int stub_end = int(regionStart[stub] +
                                 _regions[stub].code.size()) - 1;
        if (int(regionStart[stub]) < succ_start)
            continue; // Forward edge: the hull already covers it.
        auto it = _stubPhiDsts.find(id);
        if (it == _stubPhiDsts.end())
            continue;
        for (const std::uint16_t reg : it->second) {
            if (lo[reg] == kNone)
                continue;
            lo[reg] = std::min(lo[reg], succ_start);
            hi[reg] = std::max(hi[reg], stub_end);
        }
    }

    // Interval assignment: smallest free slot, deterministic order.
    struct Interval
    {
        std::uint16_t vreg;
        int lo, hi;
    };
    std::vector<Interval> intervals;
    for (std::uint16_t reg = 0; reg < _nextVreg; ++reg)
        if (lo[reg] != kNone)
            intervals.push_back({reg, lo[reg], hi[reg]});
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval &a, const Interval &b) {
                  if (a.lo != b.lo)
                      return a.lo < b.lo;
                  if (a.hi != b.hi)
                      return a.hi < b.hi;
                  return a.vreg < b.vreg;
              });
    std::vector<std::pair<int, std::uint16_t>> active; // {hi, slot}
    std::set<std::uint16_t> free_slots;
    _slotOf.assign(_nextVreg, kNoReg);
    _numSlots = 0;
    for (const auto &interval : intervals) {
        for (auto it = active.begin(); it != active.end();) {
            if (it->first < interval.lo) {
                free_slots.insert(it->second);
                it = active.erase(it);
            } else {
                ++it;
            }
        }
        std::uint16_t slot;
        if (!free_slots.empty()) {
            slot = *free_slots.begin();
            free_slots.erase(free_slots.begin());
        } else {
            slot = _numSlots++;
        }
        _slotOf[interval.vreg] = slot;
        active.emplace_back(interval.hi, slot);
    }
}

BcFunction
FunctionLowering::run()
{
    BcFunction out;
    out.name = _fn.name;
    out.sourceInstructions = _fn.instructionCount();
    if (_fn.blocks.empty())
        bail("function has no blocks");
    for (const auto &bb : _fn.blocks)
        if (_cfg.reachable(_cfg.indexOf(bb.label)) && !bb.terminator())
            bail("block '" + bb.label + "' has no terminator");

    if (!_classes.hasValueRet) {
        out.retType = Type::Void;
    } else {
        Cls effective = _classes.ret;
        if (_classes.hasVoidRet)
            effective = merge(effective, Cls::I64);
        if (effective == Cls::Conflict)
            bail("mixed integer/float return classes");
        if (effective == Cls::Unknown)
            bail("return value has no classable definition");
        out.retType = typeTag(effective);
    }

    // Assign parameter vregs first, in declaration order.
    std::vector<std::uint16_t> param_vregs;
    for (const auto &param : _fn.params) {
        param_vregs.push_back(vregOf(param.name));
        out.paramClasses.push_back(isFloatCls(clsOfType(param.type))
                                       ? RegClass::Float
                                       : RegClass::Int);
    }

    // Proven-constant branches fold to unconditional jumps; blocks
    // only the untaken edges reached are not lowered at all.
    foldBranches();

    // Region scaffolding. Layout order = region order: the preamble
    // falls through into the entry block's body; each block's
    // phi-copy stubs sit right after its body.
    _bodyRegion.assign(_cfg.blockCount(), -1);
    _regions.emplace_back(); // Region 0: constant-load preamble.
    for (int block : _cfg.reversePostorder()) {
        if (!_foldedReach[std::size_t(block)])
            continue;
        _bodyRegion[std::size_t(block)] = int(_regions.size());
        _regions.emplace_back();
        for (int succ : foldedSuccessors(block)) {
            const BasicBlock &sb = _cfg.block(succ);
            const bool has_phis =
                !sb.instructions.empty() &&
                sb.instructions.front().op == Opcode::Phi;
            if (!has_phis || _stubRegion.count({block, succ}))
                continue;
            _stubRegion[{block, succ}] = int(_regions.size());
            _regions.emplace_back();
        }
    }

    for (int block : _cfg.reversePostorder())
        if (_foldedReach[std::size_t(block)])
            lowerBlock(block);
    for (const auto &[edge, id] : _stubRegion) {
        (void)id;
        buildStub(edge.first, edge.second);
    }
    _regions[0].code = std::move(_preamble);

    // Superinstruction fusion inside block bodies.
    std::vector<std::uint32_t> reads(_nextVreg, 0);
    countAccesses(reads);
    for (auto &region : _regions)
        if (region.fusable)
            fuseRegion(region, reads);

    // Layout and branch-target resolution.
    std::vector<BcInst> code;
    std::vector<std::size_t> region_start(_regions.size(), 0);
    for (std::size_t r = 0; r < _regions.size(); ++r) {
        region_start[r] = code.size();
        code.insert(code.end(), _regions[r].code.begin(),
                    _regions[r].code.end());
    }
    for (auto &inst : code) {
        if (inst.op == BcOp::Brnz || inst.op == BcOp::Jmp)
            inst.imm = static_cast<std::int32_t>(
                region_start[std::size_t(inst.imm)]);
    }

    allocateRegisters(out, code, region_start);

    // Post-regalloc verifier metadata: the code in vreg numbering
    // (targets already final), the slot map, and the call-site
    // argument vregs — captured before substitution destroys them.
    out.verifyInfo.vcode = code;
    out.verifyInfo.slotOf = _slotOf;
    out.verifyInfo.paramVregs = param_vregs;
    for (const auto &site : _calls) {
        std::vector<std::uint16_t> arg_vregs;
        for (const auto &arg : site.args)
            arg_vregs.push_back(arg.first);
        out.verifyInfo.callArgVregs.push_back(std::move(arg_vregs));
    }

    auto slot = [&](std::uint16_t vreg) {
        return vreg == kNoReg ? kNoReg : _slotOf[vreg];
    };
    for (auto &inst : code) {
        switch (opcodeFormat(inst.op)) {
          case BcFormat::RegPoolI:
          case BcFormat::RegPoolF:
            inst.a = slot(inst.a);
            break;
          case BcFormat::TwoReg:
            inst.a = slot(inst.a);
            inst.b = slot(inst.b);
            break;
          case BcFormat::ThreeReg:
            inst.a = slot(inst.a);
            inst.b = slot(inst.b);
            inst.c = slot(inst.c);
            break;
          case BcFormat::FourReg:
            inst.a = slot(inst.a);
            inst.b = slot(inst.b);
            inst.c = slot(inst.c);
            inst.imm =
                slot(static_cast<std::uint16_t>(inst.imm));
            break;
          case BcFormat::Branch:
            inst.b = slot(inst.b);
            break;
          case BcFormat::CallFmt:
            inst.a = slot(inst.a);
            break;
          case BcFormat::RetReg:
            inst.a = slot(inst.a);
            break;
          default:
            break;
        }
    }
    for (auto &site : _calls)
        for (auto &arg : site.args)
            arg.first = slot(arg.first);

    out.numRegs = _numSlots;
    for (std::uint16_t vreg : param_vregs)
        out.paramRegs.push_back(slot(vreg));
    out.code = std::move(code);
    out.ipool = std::move(_ipool);
    out.fpool = std::move(_fpool);
    out.calls = std::move(_calls);
    out.fusedCount = _fused;
    out.foldedBranches = _folded;
    out.batchable = !out.code.empty() &&
                    out.code.back().op == BcOp::Ret;
    for (const auto &inst : out.code) {
        if (inst.op == BcOp::Brnz || inst.op == BcOp::Jmp ||
            inst.op == BcOp::Call)
            out.batchable = false;
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------

const char *
opcodeMnemonic(BcOp op)
{
    return kMnemonics[std::size_t(op)];
}

BcFormat
opcodeFormat(BcOp op)
{
    return kFormats[std::size_t(op)];
}

std::size_t
opcodeCount()
{
    return kOpcodeCount;
}

const BcFunction *
BcModule::find(const std::string &name) const
{
    auto it = index.find(name);
    return it == index.end() ? nullptr
                             : &functions[std::size_t(it->second)];
}

std::size_t
BcModule::compiledCount() const
{
    std::size_t count = 0;
    for (const auto &fn : functions)
        count += fn.compiled ? 1 : 0;
    return count;
}

BcModule
compileModule(const Module &module,
              const std::map<std::string, Type> &external_types)
{
    Inference inference{module, external_types, {}};
    for (const auto &fn : module.functions)
        inference.byFn[fn.name];

    std::vector<std::optional<analysis::Cfg>> cfgs(
        module.functions.size());
    for (std::size_t i = 0; i < module.functions.size(); ++i)
        if (!module.functions[i].blocks.empty())
            cfgs[i].emplace(module.functions[i]);

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i < module.functions.size(); ++i)
            if (cfgs[i])
                changed |= inference.pass(module.functions[i], *cfgs[i]);
    }

    // Value ranges feed the guard-elision rewrites (f2i.nc, div.i.nc)
    // and branch folding. Builtin ranges are NOT trusted here: the
    // execution tier lets hosts rebind externals to arbitrary
    // functions, which would void them.
    analysis::AnalysisManager range_manager(module);
    const analysis::RangeAnalysis ranges(range_manager,
                                         /*trust_builtins=*/false);

    BcModule out;
    for (std::size_t i = 0; i < module.functions.size(); ++i) {
        const Function &fn = module.functions[i];
        BcFunction bcf;
        if (fn.blocks.empty()) {
            bcf.name = fn.name;
            bcf.fallbackReason = "function has no blocks";
        } else {
            try {
                FunctionLowering lowering(module, fn, inference,
                                          ranges.functionRanges(fn.name));
                bcf = lowering.run();
                bcf.compiled = true;
            } catch (const BailOut &bailed) {
                bcf = BcFunction{};
                bcf.name = fn.name;
                bcf.fallbackReason = bailed.reason;
            }
        }
        out.index.emplace(fn.name, int(i));
        out.functions.push_back(std::move(bcf));
    }
    for (auto &bcf : out.functions) {
        for (auto &site : bcf.calls) {
            if (module.findFunction(site.callee))
                site.calleeIndex = out.index.at(site.callee);
        }
    }

    // Post-regalloc verification (STATS_VERIFY_BYTECODE, on by
    // default): a diagnostic here is a compiler bug, never a property
    // of the input module, so it is fatal rather than reported.
    if (autoVerifyEnabled()) {
        for (const auto &bcf : out.functions) {
            if (!bcf.compiled)
                continue;
            const auto diags = verifyFunction(out, bcf);
            if (!diags.empty())
                support::panic("bytecode verifier: ", diags.size(),
                               " diagnostic(s) on @", bcf.name, ": [",
                               diags.front().rule, "] ",
                               diags.front().message);
        }
    }
    return out;
}

} // namespace stats::ir::bc
