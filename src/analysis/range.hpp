/**
 * @file
 * Interprocedural value-range analysis over the mini-IR (rules
 * RNG01–RNG03, docs/ANALYSIS.md): an interval + known-constant
 * abstract interpretation on the existing dataflow framework (Cfg,
 * DefUse, AnalysisManager) with bottom-up call-graph summaries and
 * widening at loop heads.
 *
 * The walker is dynamically typed (an RtValue is integer- or
 * float-classed at runtime), so an abstract value tracks both views:
 * an i64 interval for the values a temp may hold when
 * integer-classed, and a double interval plus a NaN flag for the
 * float-classed case. Transfer functions model the committed
 * semantics of ir/interpreter.cpp exactly — wrapping i64
 * add/sub/mul, the INT64_MIN/-1 division wrap, saturating float→int
 * casts, F32 values as float-rounded doubles — so every concrete
 * value the interpreter ever assigns to a temp lies inside that
 * temp's inferred range (tests/range_soundness_test.cpp holds the
 * analysis to this over fuzzer-generated modules).
 *
 * Consumers: the `range` lint pass (runRangePass) and the bytecode
 * compiler's range-informed rewrites (src/ir/bytecode.cpp), which
 * drop saturation/guard paths and fold proven-constant branches.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/manager.hpp"
#include "ir/ir.hpp"

namespace stats::analysis {

/**
 * Abstract value of one temp: a may-integer interval and a may-float
 * interval (± infinity endpoints allowed) with a NaN flag. Bottom
 * (no view) means "no value observed" — unreachable code.
 */
struct ValueRange
{
    bool mayInt = false;
    std::int64_t intLo = 0;
    std::int64_t intHi = 0;

    bool mayFloat = false;
    double fltLo = 0.0;
    double fltHi = 0.0;
    bool maybeNaN = false;

    static ValueRange bottom() { return {}; }
    static ValueRange top();
    static ValueRange topInt();
    static ValueRange topFloat();
    static ValueRange ofInt(std::int64_t lo, std::int64_t hi);
    static ValueRange ofConstInt(std::int64_t v) { return ofInt(v, v); }
    static ValueRange ofFloat(double lo, double hi, bool nan = false);
    static ValueRange ofConstFloat(double v) { return ofFloat(v, v); }

    bool isBottom() const { return !mayInt && !mayFloat; }

    /** Whether an integer-classed value `v` is admitted. */
    bool containsInt(std::int64_t v) const;
    /** Whether a float-classed value `v` (possibly NaN) is admitted. */
    bool containsFloat(double v) const;

    /** In-place union; returns true when this range grew. */
    bool join(const ValueRange &other);

    /**
     * Widening against the previous iterate: any endpoint that moved
     * jumps to its extreme so loop fixpoints terminate.
     */
    void widen(const ValueRange &previous);

    /** Debug rendering, e.g. "i64:[0, 9] f64:[0.5, 1.5]". */
    std::string toString() const;
};

/** Per-function result: range of every temp, and the return range. */
struct FunctionRanges
{
    /**
     * Join over every value the temp may hold at any point of any
     * execution (parameters included). Missing name = bottom
     * (defined only in unreachable code, or never defined).
     */
    std::map<std::string, ValueRange> temps;

    /** Join over the operands of every reachable `ret`. */
    ValueRange returnRange;

    const ValueRange &of(const std::string &temp) const;
};

/**
 * Whole-module analysis. Functions are summarized bottom-up over the
 * call graph (context-insensitive: parameters are top); members of a
 * recursive cycle get top summaries.
 */
class RangeAnalysis
{
  public:
    /**
     * @param trust_builtins  model the default builtin semantics
     *        (sqrt in [0, inf], rand_uniform in [0, 1), ...). The lint
     *        pass wants this; the bytecode compiler must pass `false`
     *        because the execution tier lets hosts rebind externals to
     *        arbitrary functions, voiding those ranges.
     */
    explicit RangeAnalysis(AnalysisManager &manager,
                           bool trust_builtins = true);

    const FunctionRanges &functionRanges(const std::string &fn) const;

    /** Return-range summary of a callee (top for externals). */
    ValueRange summaryOf(const std::string &fn) const;

    bool trustsBuiltins() const { return _trustBuiltins; }

  private:
    void analyzeFunction(const std::string &name);

    AnalysisManager &_manager;
    bool _trustBuiltins = true;
    std::map<std::string, FunctionRanges> _functions;
    std::map<std::string, ValueRange> _summaries;
    FunctionRanges _empty;
};

/**
 * The `range` lint pass: RNG01 definite signed wrap in committed
 * (non-auxiliary) code, RNG02 possibly-zero divisor the analysis
 * bounded, RNG03 float→int cast proven to saturate.
 */
std::vector<Diagnostic> runRangePass(AnalysisManager &manager);

/**
 * Proof obligations shared by the lint rules and the bytecode
 * compiler's range-informed rewrites. Each predicate is deliberately
 * conservative: `false` always means "no rewrite / no finding".
 */
namespace rangeproof {

/** Range of one operand: constants exactly, temps from `ranges`. */
ValueRange rangeOfOperand(const ir::Operand &operand,
                          const FunctionRanges &ranges);

/**
 * A float-classed `cast i64` never saturates: no NaN, and every
 * admitted double truncates to a representable i64 (so the raw
 * `f2i.nc` conversion is defined and equal to the saturating one).
 */
bool castNeverSaturates(const ValueRange &operand);

/** A `cast i64` provably saturates on every execution (RNG03). */
bool castAlwaysSaturates(const ValueRange &operand);

/**
 * The divisor of an integer `div` may be zero AND the analysis
 * learned at least one bound (RNG02; unbounded divisors stay quiet).
 */
bool divisorMayBeZero(const ValueRange &divisor);

/**
 * An integer `div` needs neither the zero-divisor panic nor the
 * INT64_MIN/-1 wrap guard, so raw C++ division (`div.i.nc`) is safe.
 */
bool divNeedsNoGuards(const ValueRange &dividend,
                      const ValueRange &divisor);

/** i64 add/sub/mul whose exact result never fits i64 (RNG01). */
bool definitelyWraps(ir::Opcode op, const ValueRange &a,
                     const ValueRange &b);

/**
 * Truthiness of a branch/select condition under the walker's
 * `.asInt() != 0` rule, when provable; nullopt otherwise.
 */
std::optional<bool> provenTruth(const ValueRange &cond);

} // namespace rangeproof

} // namespace stats::analysis
