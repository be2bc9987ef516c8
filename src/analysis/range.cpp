#include "analysis/range.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "ir/call_graph.hpp"

namespace stats::analysis {

namespace {

constexpr std::int64_t kI64Min =
    std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max =
    std::numeric_limits<std::int64_t>::max();
/** 2^63 is exactly representable as a double; INT64_MAX is not. */
constexpr double kTwo63 = 9223372036854775808.0;
const double kInf = std::numeric_limits<double>::infinity();

/** Non-empty i64 interval: the values an integer-classed read sees. */
struct IntView
{
    std::int64_t lo;
    std::int64_t hi;
};

/** Non-empty double interval (± inf endpoints) plus a NaN flag. */
struct FloatView
{
    double lo;
    double hi;
    bool nan;
};

/** RtValue::asInt for a (non-NaN) float-classed value. */
std::int64_t
saturate(double f)
{
    if (f >= kTwo63)
        return kI64Max;
    if (f < -kTwo63)
        return kI64Min;
    return static_cast<std::int64_t>(f);
}

/** What `.asInt()` may yield: int view ∪ saturated float view. */
std::optional<IntView>
asIntView(const ValueRange &v)
{
    std::optional<IntView> result;
    const auto include = [&](std::int64_t lo, std::int64_t hi) {
        if (!result)
            result = IntView{lo, hi};
        else {
            result->lo = std::min(result->lo, lo);
            result->hi = std::max(result->hi, hi);
        }
    };
    if (v.mayInt)
        include(v.intLo, v.intHi);
    if (v.mayFloat) {
        // Saturation is monotone, so the endpoints convert the hull.
        include(saturate(v.fltLo), saturate(v.fltHi));
        if (v.maybeNaN)
            include(0, 0); // NaN casts to 0.
    }
    return result;
}

/** What `.asFloat()` may yield: float view ∪ double(int view). */
std::optional<FloatView>
asFloatView(const ValueRange &v)
{
    std::optional<FloatView> result;
    const auto include = [&](double lo, double hi, bool nan) {
        if (!result)
            result = FloatView{lo, hi, nan};
        else {
            result->lo = std::min(result->lo, lo);
            result->hi = std::max(result->hi, hi);
            result->nan = result->nan || nan;
        }
    };
    if (v.mayFloat)
        include(v.fltLo, v.fltHi, v.maybeNaN);
    // int64 -> double conversion is monotone (rounds to nearest).
    if (v.mayInt)
        include(double(v.intLo), double(v.intHi), false);
    return result;
}

bool
isFinite(const FloatView &view)
{
    return view.lo > -kInf && view.hi < kInf;
}

std::string
i128ToString(__int128 value)
{
    if (value == 0)
        return "0";
    const bool negative = value < 0;
    unsigned __int128 magnitude =
        negative ? -static_cast<unsigned __int128>(value)
                 : static_cast<unsigned __int128>(value);
    std::string digits;
    while (magnitude != 0) {
        digits.push_back(char('0' + int(magnitude % 10)));
        magnitude /= 10;
    }
    if (negative)
        digits.push_back('-');
    std::reverse(digits.begin(), digits.end());
    return digits;
}

/**
 * Exact hull of an i64 add/sub/mul computed in 128-bit arithmetic,
 * before the two's-complement wrap the interpreter applies.
 */
struct WideHull
{
    __int128 lo;
    __int128 hi;
};

std::optional<WideHull>
wideHull(ir::Opcode op, const IntView &a, const IntView &b)
{
    const __int128 alo = a.lo, ahi = a.hi, blo = b.lo, bhi = b.hi;
    switch (op) {
      case ir::Opcode::Add:
        return WideHull{alo + blo, ahi + bhi};
      case ir::Opcode::Sub:
        return WideHull{alo - bhi, ahi - blo};
      case ir::Opcode::Mul: {
        const __int128 corners[4] = {alo * blo, alo * bhi, ahi * blo,
                                     ahi * bhi};
        WideHull hull{corners[0], corners[0]};
        for (const __int128 corner : corners) {
            hull.lo = std::min(hull.lo, corner);
            hull.hi = std::max(hull.hi, corner);
        }
        return hull;
      }
      default:
        return std::nullopt;
    }
}

/** i64 add/sub/mul with the interpreter's wrap-around semantics. */
ValueRange
intArith(ir::Opcode op, const IntView &a, const IntView &b)
{
    const auto hull = wideHull(op, a, b);
    if (!hull)
        return ValueRange::topInt();
    constexpr __int128 kSpan = __int128(1) << 64;
    if (hull->lo >= __int128(kI64Min) && hull->hi <= __int128(kI64Max))
        return ValueRange::ofInt(std::int64_t(hull->lo),
                                 std::int64_t(hull->hi));
    if (hull->hi - hull->lo >= kSpan - 1)
        return ValueRange::topInt();
    // Wrap: shift the hull by the multiple of 2^64 that brings its
    // low end in range; if the high end then fits too, the wrapped
    // set stays one interval, otherwise it straddles the seam.
    __int128 lo = hull->lo, hi = hull->hi;
    while (lo < __int128(kI64Min)) {
        lo += kSpan;
        hi += kSpan;
    }
    while (lo > __int128(kI64Max)) {
        lo -= kSpan;
        hi -= kSpan;
    }
    if (hi <= __int128(kI64Max))
        return ValueRange::ofInt(std::int64_t(lo), std::int64_t(hi));
    return ValueRange::topInt();
}

/**
 * i64 division with the interpreter's guards: a zero divisor panics
 * (no value flows), INT64_MIN / -1 wraps to INT64_MIN. Truncating
 * division is monotone per divisor-sign region, so the extremes sit
 * at dividend endpoints against divisor candidates {lo, hi, -1, 1} —
 * except that the INT64_MIN/-1 wrap breaks monotonicity in the
 * dividend for divisor -1: x/-1 = -x peaks at the *interior* point
 * x = INT64_MIN+1 (giving INT64_MAX) when the range also contains
 * INT64_MIN, so that extremum is included explicitly.
 */
ValueRange
intDiv(const IntView &a, const IntView &b)
{
    std::vector<std::int64_t> divisors;
    for (const std::int64_t y :
         {b.lo, b.hi, std::int64_t(-1), std::int64_t(1)}) {
        if (y != 0 && y >= b.lo && y <= b.hi)
            divisors.push_back(y);
    }
    if (divisors.empty())
        return ValueRange::bottom(); // Always panics.
    bool any = false;
    std::int64_t lo = 0, hi = 0;
    const auto include = [&](std::int64_t q) {
        if (!any) {
            lo = hi = q;
            any = true;
        } else {
            lo = std::min(lo, q);
            hi = std::max(hi, q);
        }
    };
    for (const std::int64_t x : {a.lo, a.hi}) {
        for (const std::int64_t y : divisors) {
            if (x == kI64Min && y == -1)
                include(kI64Min); // Wraps like the other i64 ops.
            else
                include(x / y);
        }
    }
    if (a.lo == kI64Min && a.hi > kI64Min && b.lo <= -1 && -1 <= b.hi)
        include(kI64Max); // Interior extremum: (INT64_MIN + 1) / -1.
    return ValueRange::ofInt(lo, hi);
}

/**
 * IEEE double arithmetic over intervals. Rounding is monotone, so
 * corner evaluation bounds the result for finite operands; anything
 * involving an infinite endpoint (or a zero-containing divisor)
 * conservatively goes to float-top, which also covers the
 * NaN-producing corners (inf - inf, 0 * inf, 0 / 0).
 */
ValueRange
floatArith(ir::Opcode op, const FloatView &a, const FloatView &b,
           ir::Type result_type)
{
    if (!isFinite(a) || !isFinite(b))
        return ValueRange::topFloat();
    if (op == ir::Opcode::Div && b.lo <= 0.0 && b.hi >= 0.0)
        return ValueRange::topFloat();
    double corners[4];
    switch (op) {
      case ir::Opcode::Add:
        corners[0] = a.lo + b.lo;
        corners[1] = a.lo + b.hi;
        corners[2] = a.hi + b.lo;
        corners[3] = a.hi + b.hi;
        break;
      case ir::Opcode::Sub:
        corners[0] = a.lo - b.lo;
        corners[1] = a.lo - b.hi;
        corners[2] = a.hi - b.lo;
        corners[3] = a.hi - b.hi;
        break;
      case ir::Opcode::Mul:
        corners[0] = a.lo * b.lo;
        corners[1] = a.lo * b.hi;
        corners[2] = a.hi * b.lo;
        corners[3] = a.hi * b.hi;
        break;
      case ir::Opcode::Div:
        corners[0] = a.lo / b.lo;
        corners[1] = a.lo / b.hi;
        corners[2] = a.hi / b.lo;
        corners[3] = a.hi / b.hi;
        break;
      default:
        return ValueRange::topFloat();
    }
    double lo = corners[0], hi = corners[0];
    for (const double corner : corners) {
        lo = std::min(lo, corner);
        hi = std::max(hi, corner);
    }
    if (result_type == ir::Type::F32) {
        // F32 results are float-rounded doubles; rounding is monotone.
        lo = double(float(lo));
        hi = double(float(hi));
    }
    return ValueRange::ofFloat(lo, hi, a.nan || b.nan);
}

/** Builtin return ranges, refined by the (float view of the) input. */
std::optional<ValueRange>
builtinRange(const std::string &name,
             const std::optional<FloatView> &arg)
{
    const FloatView any{-kInf, kInf, true};
    const FloatView in = arg ? *arg : any;
    if (name == "sqrt") {
        if (!in.nan && in.lo >= 0.0)
            return ValueRange::ofFloat(std::sqrt(in.lo),
                                       std::sqrt(in.hi));
        return ValueRange::ofFloat(0.0, kInf, true);
    }
    if (name == "exp")
        return ValueRange::ofFloat(0.0, kInf, in.nan);
    if (name == "log")
        return ValueRange::ofFloat(-kInf, kInf, in.nan || in.lo < 0.0);
    if (name == "sin" || name == "cos") {
        const bool finite_arg = !in.nan && isFinite(in);
        return ValueRange::ofFloat(-1.0, 1.0, !finite_arg);
    }
    if (name == "fabs") {
        const double mag_lo =
            std::min(std::fabs(in.lo), std::fabs(in.hi));
        const double lo = in.lo <= 0.0 && in.hi >= 0.0 ? 0.0 : mag_lo;
        const double hi = std::max(std::fabs(in.lo), std::fabs(in.hi));
        return ValueRange::ofFloat(lo, hi, in.nan);
    }
    if (name == "rand_uniform")
        return ValueRange::ofFloat(0.0, 1.0);
    return std::nullopt;
}

} // namespace

// ------------------------------------------------------------ ValueRange

ValueRange
ValueRange::top()
{
    ValueRange v = topInt();
    v.join(topFloat());
    return v;
}

ValueRange
ValueRange::topInt()
{
    return ofInt(kI64Min, kI64Max);
}

ValueRange
ValueRange::topFloat()
{
    return ofFloat(-kInf, kInf, true);
}

ValueRange
ValueRange::ofInt(std::int64_t lo, std::int64_t hi)
{
    ValueRange v;
    v.mayInt = true;
    v.intLo = lo;
    v.intHi = hi;
    return v;
}

ValueRange
ValueRange::ofFloat(double lo, double hi, bool nan)
{
    if (std::isnan(lo) || std::isnan(hi))
        return topFloat();
    ValueRange v;
    v.mayFloat = true;
    v.fltLo = lo;
    v.fltHi = hi;
    v.maybeNaN = nan;
    return v;
}

bool
ValueRange::containsInt(std::int64_t v) const
{
    return mayInt && intLo <= v && v <= intHi;
}

bool
ValueRange::containsFloat(double v) const
{
    if (!mayFloat)
        return false;
    if (std::isnan(v))
        return maybeNaN;
    return fltLo <= v && v <= fltHi;
}

bool
ValueRange::join(const ValueRange &other)
{
    bool changed = false;
    if (other.mayInt) {
        if (!mayInt) {
            mayInt = true;
            intLo = other.intLo;
            intHi = other.intHi;
            changed = true;
        } else {
            if (other.intLo < intLo) {
                intLo = other.intLo;
                changed = true;
            }
            if (other.intHi > intHi) {
                intHi = other.intHi;
                changed = true;
            }
        }
    }
    if (other.mayFloat) {
        if (!mayFloat) {
            mayFloat = true;
            fltLo = other.fltLo;
            fltHi = other.fltHi;
            maybeNaN = other.maybeNaN;
            changed = true;
        } else {
            if (other.fltLo < fltLo) {
                fltLo = other.fltLo;
                changed = true;
            }
            if (other.fltHi > fltHi) {
                fltHi = other.fltHi;
                changed = true;
            }
            if (other.maybeNaN && !maybeNaN) {
                maybeNaN = true;
                changed = true;
            }
        }
    }
    return changed;
}

void
ValueRange::widen(const ValueRange &previous)
{
    if (mayInt && previous.mayInt) {
        if (intLo < previous.intLo)
            intLo = kI64Min;
        if (intHi > previous.intHi)
            intHi = kI64Max;
    }
    if (mayFloat && previous.mayFloat) {
        if (fltLo < previous.fltLo)
            fltLo = -kInf;
        if (fltHi > previous.fltHi)
            fltHi = kInf;
    }
}

std::string
ValueRange::toString() const
{
    if (isBottom())
        return "bottom";
    std::ostringstream out;
    if (mayInt)
        out << "i64:[" << intLo << ", " << intHi << "]";
    if (mayFloat) {
        if (mayInt)
            out << " ";
        out << "f64:[" << fltLo << ", " << fltHi << "]";
        if (maybeNaN)
            out << "|nan";
    }
    return out.str();
}

const ValueRange &
FunctionRanges::of(const std::string &temp) const
{
    static const ValueRange bottom;
    const auto it = temps.find(temp);
    return it == temps.end() ? bottom : it->second;
}

// ------------------------------------------------------- function solver

namespace {

using Env = std::map<std::string, ValueRange>;

/** Joins at a block entry before widening kicks in. */
constexpr int kWidenAfter = 4;

/**
 * Flow-sensitive fixpoint over one function. The IR is SSA only by
 * convention (shadowing re-defs are legal), so the solver keeps one
 * environment per block entry, joins predecessor exits edge by edge
 * (binding leading phis from the predecessor's exit environment), and
 * widens a block's entry once it has absorbed kWidenAfter joins.
 */
class FunctionSolver
{
  public:
    FunctionSolver(const RangeAnalysis &owner, const ir::Module &module,
                   const Cfg &cfg, const ir::Function &fn)
        : _owner(owner), _module(module), _fn(fn), _cfg(cfg)
    {}

    FunctionRanges solve();

  private:
    ValueRange evalOperand(const ir::Operand &operand,
                           const Env &env) const;
    ValueRange transfer(const ir::Instruction &inst,
                        const Env &env) const;
    Env blockExit(int block, const Env &entry) const;
    bool flowEdge(int from, int to, const Env &exit);

    const RangeAnalysis &_owner;
    const ir::Module &_module;
    const ir::Function &_fn;
    const Cfg &_cfg;
    std::vector<Env> _entry;
    std::vector<int> _joins;
};

ValueRange
FunctionSolver::evalOperand(const ir::Operand &operand,
                            const Env &env) const
{
    switch (operand.kind) {
      case ir::Operand::Kind::ConstInt:
        return ValueRange::ofConstInt(operand.intValue);
      case ir::Operand::Kind::ConstFloat:
        return ValueRange::ofConstFloat(operand.floatValue);
      case ir::Operand::Kind::Temp: {
        const auto it = env.find(operand.name);
        // An unbound temp panics the walker: nothing flows.
        return it == env.end() ? ValueRange::bottom() : it->second;
      }
    }
    return ValueRange::top();
}

ValueRange
FunctionSolver::transfer(const ir::Instruction &inst,
                         const Env &env) const
{
    switch (inst.op) {
      case ir::Opcode::Add:
      case ir::Opcode::Sub:
      case ir::Opcode::Mul:
      case ir::Opcode::Div: {
        const ValueRange a = evalOperand(inst.operands[0], env);
        const ValueRange b = evalOperand(inst.operands[1], env);
        if (ir::isFloating(inst.type)) {
            const auto fa = asFloatView(a), fb = asFloatView(b);
            if (!fa || !fb)
                return ValueRange::bottom();
            return floatArith(inst.op, *fa, *fb, inst.type);
        }
        const auto ia = asIntView(a), ib = asIntView(b);
        if (!ia || !ib)
            return ValueRange::bottom();
        if (inst.op == ir::Opcode::Div)
            return intDiv(*ia, *ib);
        return intArith(inst.op, *ia, *ib);
      }
      case ir::Opcode::CmpEq:
      case ir::Opcode::CmpLt:
      case ir::Opcode::CmpLe: {
        const ValueRange a = evalOperand(inst.operands[0], env);
        const ValueRange b = evalOperand(inst.operands[1], env);
        if (a.isBottom() || b.isBottom())
            return ValueRange::bottom();
        bool provably_true = false, provably_false = false;
        if (ir::isFloating(inst.type)) {
            const auto fa = asFloatView(a), fb = asFloatView(b);
            if (fa && fb) {
                // NaN compares false, so proving "true" additionally
                // requires both sides ordered.
                const bool ordered = !fa->nan && !fb->nan;
                switch (inst.op) {
                  case ir::Opcode::CmpEq:
                    provably_true = ordered && fa->lo == fa->hi &&
                                    fb->lo == fb->hi &&
                                    fa->lo == fb->lo;
                    provably_false =
                        fa->lo > fb->hi || fa->hi < fb->lo;
                    break;
                  case ir::Opcode::CmpLt:
                    provably_true = ordered && fa->hi < fb->lo;
                    provably_false = fa->lo >= fb->hi;
                    break;
                  default: // CmpLe
                    provably_true = ordered && fa->hi <= fb->lo;
                    provably_false = fa->lo > fb->hi;
                    break;
                }
            }
        } else {
            const auto ia = asIntView(a), ib = asIntView(b);
            if (ia && ib) {
                switch (inst.op) {
                  case ir::Opcode::CmpEq:
                    provably_true = ia->lo == ia->hi &&
                                    ib->lo == ib->hi &&
                                    ia->lo == ib->lo;
                    provably_false =
                        ia->lo > ib->hi || ia->hi < ib->lo;
                    break;
                  case ir::Opcode::CmpLt:
                    provably_true = ia->hi < ib->lo;
                    provably_false = ia->lo >= ib->hi;
                    break;
                  default: // CmpLe
                    provably_true = ia->hi <= ib->lo;
                    provably_false = ia->lo > ib->hi;
                    break;
                }
            }
        }
        if (provably_true)
            return ValueRange::ofConstInt(1);
        if (provably_false)
            return ValueRange::ofConstInt(0);
        return ValueRange::ofInt(0, 1);
      }
      case ir::Opcode::Select: {
        const ValueRange cond = evalOperand(inst.operands[0], env);
        if (cond.isBottom())
            return ValueRange::bottom();
        const auto truth = rangeproof::provenTruth(cond);
        if (truth.has_value() && *truth)
            return evalOperand(inst.operands[1], env);
        if (truth.has_value())
            return evalOperand(inst.operands[2], env);
        ValueRange result = evalOperand(inst.operands[1], env);
        result.join(evalOperand(inst.operands[2], env));
        return result;
      }
      case ir::Opcode::Cast: {
        const ValueRange v = evalOperand(inst.operands[0], env);
        if (v.isBottom())
            return ValueRange::bottom();
        if (!ir::isFloating(inst.type)) {
            const auto iv = asIntView(v);
            return iv ? ValueRange::ofInt(iv->lo, iv->hi)
                      : ValueRange::bottom();
        }
        const auto fv = asFloatView(v);
        if (!fv)
            return ValueRange::bottom();
        if (inst.type == ir::Type::F32)
            return ValueRange::ofFloat(double(float(fv->lo)),
                                       double(float(fv->hi)),
                                       fv->nan);
        return ValueRange::ofFloat(fv->lo, fv->hi, fv->nan);
      }
      case ir::Opcode::Call: {
        if (_module.findFunction(inst.callee) != nullptr)
            return _owner.summaryOf(inst.callee);
        if (!_owner.trustsBuiltins())
            return ValueRange::top(); // External may be rebound.
        std::optional<FloatView> first_arg;
        if (!inst.operands.empty()) {
            const ValueRange a = evalOperand(inst.operands[0], env);
            if (a.isBottom())
                return ValueRange::bottom();
            first_arg = asFloatView(a);
        }
        const auto builtin = builtinRange(inst.callee, first_arg);
        return builtin ? *builtin : ValueRange::top();
      }
      default:
        return ValueRange::top();
    }
}

Env
FunctionSolver::blockExit(int block, const Env &entry) const
{
    Env env = entry;
    for (const auto &inst : _cfg.block(block).instructions) {
        // Leading phis were bound on the incoming edge; phis below
        // the leading group never execute on the walker.
        if (inst.op == ir::Opcode::Phi)
            continue;
        if (ir::isTerminator(inst.op))
            break; // Code after the first terminator is dead.
        if (!inst.result.empty())
            env[inst.result] = transfer(inst, env);
    }
    return env;
}

bool
FunctionSolver::flowEdge(int from, int to, const Env &exit)
{
    const std::string &from_label = _cfg.block(from).label;
    std::vector<std::pair<std::string, ValueRange>> phi_values;
    for (const auto &inst : _cfg.block(to).instructions) {
        if (inst.op != ir::Opcode::Phi)
            break;
        bool found = false;
        for (std::size_t i = 0; i < inst.labels.size(); ++i) {
            if (inst.labels[i] == from_label) {
                // First matching incoming wins (walker semantics).
                phi_values.emplace_back(
                    inst.result, evalOperand(inst.operands[i], exit));
                found = true;
                break;
            }
        }
        if (!found)
            return false; // Walker panics: nothing flows on this edge.
    }
    Env contribution = exit;
    for (auto &[name, value] : phi_values)
        contribution[name] = value;

    Env &entry = _entry[std::size_t(to)];
    const bool widening = ++_joins[std::size_t(to)] > kWidenAfter;
    bool changed = false;
    for (const auto &[name, value] : contribution) {
        ValueRange &slot = entry[name];
        const ValueRange before = slot;
        if (slot.join(value)) {
            if (widening)
                slot.widen(before);
            changed = true;
        }
    }
    return changed;
}

FunctionRanges
FunctionSolver::solve()
{
    _entry.assign(_cfg.blockCount(), Env{});
    _joins.assign(_cfg.blockCount(), 0);
    for (const auto &param : _fn.params)
        _entry[std::size_t(_cfg.entry())][param.name] =
            ValueRange::top();

    // Reverse-postorder sweeps to a fixpoint. Widening bounds every
    // endpoint chain, so termination is structural, not lucky.
    bool changed = true;
    while (changed) {
        changed = false;
        for (const int block : _cfg.reversePostorder()) {
            const Env exit =
                blockExit(block, _entry[std::size_t(block)]);
            for (const int succ : _cfg.successors(block)) {
                if (flowEdge(block, succ, exit))
                    changed = true;
            }
        }
    }

    // Reporting pass: join every binding any reachable execution
    // point can make, plus the ranges flowing into each `ret`.
    FunctionRanges ranges;
    for (const auto &param : _fn.params)
        ranges.temps[param.name].join(ValueRange::top());
    for (const int block : _cfg.reversePostorder()) {
        Env env = _entry[std::size_t(block)];
        for (const auto &inst : _cfg.block(block).instructions) {
            if (inst.op == ir::Opcode::Phi) {
                const auto it = env.find(inst.result);
                if (it != env.end())
                    ranges.temps[inst.result].join(it->second);
                continue;
            }
            if (inst.op == ir::Opcode::Ret) {
                if (inst.operands.empty()) {
                    // A bare `ret` returns a default RtValue: int 0.
                    ranges.returnRange.join(ValueRange::ofConstInt(0));
                } else {
                    ranges.returnRange.join(
                        evalOperand(inst.operands[0], env));
                }
                break;
            }
            if (ir::isTerminator(inst.op))
                break;
            if (!inst.result.empty()) {
                env[inst.result] = transfer(inst, env);
                ranges.temps[inst.result].join(env[inst.result]);
            }
        }
    }
    return ranges;
}

} // namespace

// --------------------------------------------------------- RangeAnalysis

RangeAnalysis::RangeAnalysis(AnalysisManager &manager,
                             bool trust_builtins)
    : _manager(manager), _trustBuiltins(trust_builtins)
{
    const ir::Module &module = manager.module();
    const ir::CallGraph &graph = manager.callGraph();

    // Iterative DFS: bottom-up (postorder) processing order, plus the
    // set of functions on any call cycle — those get top summaries.
    std::map<std::string, int> color; // 0 white, 1 grey, 2 black.
    std::set<std::string> recursive;
    std::vector<std::string> postorder;
    for (const auto &fn : module.functions) {
        if (color[fn.name] != 0)
            continue;
        std::vector<std::pair<std::string, std::size_t>> stack;
        stack.emplace_back(fn.name, 0);
        color[fn.name] = 1;
        while (!stack.empty()) {
            auto &[name, next] = stack.back();
            const auto &callees = graph.callees(name);
            if (next < callees.size()) {
                auto it = callees.begin();
                std::advance(it, long(next));
                ++next;
                const std::string &callee = *it;
                if (color[callee] == 0) {
                    color[callee] = 1;
                    stack.emplace_back(callee, 0);
                } else if (color[callee] == 1) {
                    // Back edge: everything from the callee's stack
                    // position upward is on a cycle.
                    bool seen = false;
                    for (const auto &frame : stack) {
                        seen = seen || frame.first == callee;
                        if (seen)
                            recursive.insert(frame.first);
                    }
                }
            } else {
                color[name] = 2;
                postorder.push_back(name);
                stack.pop_back();
            }
        }
    }

    for (const auto &name : recursive)
        _summaries[name] = ValueRange::top();
    for (const auto &name : postorder) {
        analyzeFunction(name);
        if (recursive.count(name) == 0)
            _summaries[name] = _functions[name].returnRange;
    }
}

void
RangeAnalysis::analyzeFunction(const std::string &name)
{
    const ir::Function *fn = _manager.module().findFunction(name);
    if (fn == nullptr || fn->blocks.empty())
        return;
    FunctionSolver solver(*this, _manager.module(), _manager.cfg(name),
                          *fn);
    _functions[name] = solver.solve();
}

const FunctionRanges &
RangeAnalysis::functionRanges(const std::string &fn) const
{
    const auto it = _functions.find(fn);
    return it == _functions.end() ? _empty : it->second;
}

ValueRange
RangeAnalysis::summaryOf(const std::string &fn) const
{
    const auto it = _summaries.find(fn);
    return it == _summaries.end() ? ValueRange::top() : it->second;
}

// ------------------------------------------------------------ rangeproof

namespace rangeproof {

ValueRange
rangeOfOperand(const ir::Operand &operand, const FunctionRanges &ranges)
{
    switch (operand.kind) {
      case ir::Operand::Kind::ConstInt:
        return ValueRange::ofConstInt(operand.intValue);
      case ir::Operand::Kind::ConstFloat:
        return ValueRange::ofConstFloat(operand.floatValue);
      case ir::Operand::Kind::Temp:
        return ranges.of(operand.name);
    }
    return ValueRange::top();
}

bool
castNeverSaturates(const ValueRange &operand)
{
    // -2^63 truncates to exactly INT64_MIN; anything >= +2^63 (or
    // NaN) takes the saturation path.
    return operand.mayFloat && !operand.maybeNaN &&
           operand.fltLo >= -kTwo63 && operand.fltHi < kTwo63;
}

bool
castAlwaysSaturates(const ValueRange &operand)
{
    if (!operand.mayFloat || operand.mayInt || operand.maybeNaN)
        return false;
    return operand.fltLo >= kTwo63 || operand.fltHi < -kTwo63;
}

bool
divisorMayBeZero(const ValueRange &divisor)
{
    const auto view = asIntView(divisor);
    if (!view || view->lo > 0 || view->hi < 0)
        return false;
    // Stay quiet on divisors the analysis knows nothing about.
    return view->lo != kI64Min || view->hi != kI64Max;
}

bool
divNeedsNoGuards(const ValueRange &dividend, const ValueRange &divisor)
{
    const auto a = asIntView(dividend), b = asIntView(divisor);
    if (!a || !b)
        return false;
    if (b->lo <= 0 && b->hi >= 0)
        return false; // May divide by zero.
    if (a->lo == kI64Min && b->lo <= -1 && -1 <= b->hi)
        return false; // May hit the INT64_MIN / -1 wrap.
    return true;
}

bool
definitelyWraps(ir::Opcode op, const ValueRange &a, const ValueRange &b)
{
    const auto ia = asIntView(a), ib = asIntView(b);
    if (!ia || !ib)
        return false;
    const auto hull = wideHull(op, *ia, *ib);
    return hull && (hull->hi < __int128(kI64Min) ||
                    hull->lo > __int128(kI64Max));
}

std::optional<bool>
provenTruth(const ValueRange &cond)
{
    const auto view = asIntView(cond);
    if (!view)
        return std::nullopt;
    if (view->lo > 0 || view->hi < 0)
        return true;
    if (view->lo == 0 && view->hi == 0)
        return false;
    return std::nullopt;
}

} // namespace rangeproof

// ------------------------------------------------------------ lint pass

std::vector<Diagnostic>
runRangePass(AnalysisManager &manager)
{
    const ir::Module &module = manager.module();
    RangeAnalysis analysis(manager);
    std::vector<Diagnostic> diags;

    for (const auto &fn : module.functions) {
        if (fn.blocks.empty())
            continue;
        const FunctionRanges &ranges = analysis.functionRanges(fn.name);
        const bool committed = module.findAuxClone(fn.name) == nullptr;
        const Cfg &cfg = manager.cfg(fn.name);
        for (const int block : cfg.reversePostorder()) {
            const auto &bb = cfg.block(block);
            for (const auto &inst : bb.instructions) {
                if (inst.op == ir::Opcode::Phi)
                    continue;
                if (ir::isTerminator(inst.op))
                    break;
                switch (inst.op) {
                  case ir::Opcode::Add:
                  case ir::Opcode::Sub:
                  case ir::Opcode::Mul: {
                    if (ir::isFloating(inst.type) || !committed)
                        break;
                    const ValueRange a = rangeproof::rangeOfOperand(
                        inst.operands[0], ranges);
                    const ValueRange b = rangeproof::rangeOfOperand(
                        inst.operands[1], ranges);
                    if (!rangeproof::definitelyWraps(inst.op, a, b))
                        break;
                    const auto hull =
                        wideHull(inst.op, *asIntView(a), *asIntView(b));
                    std::ostringstream msg;
                    msg << "'" << inst.toString()
                        << "' always wraps i64 (exact result in ["
                        << i128ToString(hull->lo) << ", "
                        << i128ToString(hull->hi) << "])";
                    diags.push_back(makeDiagnostic(
                        "RNG01", fn.name, bb.label, inst.line,
                        msg.str()));
                    break;
                  }
                  case ir::Opcode::Div: {
                    if (ir::isFloating(inst.type))
                        break;
                    const ValueRange d = rangeproof::rangeOfOperand(
                        inst.operands[1], ranges);
                    if (!rangeproof::divisorMayBeZero(d))
                        break;
                    const auto view = asIntView(d);
                    const bool always =
                        view->lo == 0 && view->hi == 0;
                    std::ostringstream msg;
                    msg << "divisor " << inst.operands[1].toString()
                        << " of '" << inst.toString() << "' "
                        << (always ? "is always" : "may be")
                        << " zero (divisor range i64:[" << view->lo
                        << ", " << view->hi << "])";
                    diags.push_back(makeDiagnostic(
                        "RNG02", fn.name, bb.label, inst.line,
                        msg.str()));
                    break;
                  }
                  case ir::Opcode::Cast: {
                    if (ir::isFloating(inst.type))
                        break;
                    const ValueRange v = rangeproof::rangeOfOperand(
                        inst.operands[0], ranges);
                    if (!rangeproof::castAlwaysSaturates(v))
                        break;
                    std::ostringstream msg;
                    msg << "'" << inst.toString()
                        << "' always saturates (operand range "
                        << v.toString() << ")";
                    diags.push_back(makeDiagnostic(
                        "RNG03", fn.name, bb.label, inst.line,
                        msg.str()));
                    break;
                  }
                  default:
                    break;
                }
            }
        }
    }

    sortDiagnostics(diags);
    return diags;
}

} // namespace stats::analysis
