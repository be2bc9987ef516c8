/**
 * @file
 * Microbenchmark of the execution tiers (docs/INTERPRETER.md).
 *
 * Three workloads, each the `S = f(I, S)` transition shape the
 * speculation engine executes on its hot paths:
 *
 *  - chain_i64: a straight-line integer multiply-add chain — the
 *    superinstruction fusion target, batchable;
 *  - chain_f64: the same chain in f64 — fused + SIMD batchable;
 *  - branchy:   a loop with phis and a branch — the general shape
 *    (no batch mode, exercises dispatch + register allocation).
 *
 * For each workload: ns/call through the AST walker, ns/call through
 * the bytecode VM, and (where batchable) ns/call through the batched
 * SoA mode, plus the resulting speedups.
 *
 * Output: a table plus BENCH_interpreter.json. CI runs `--smoke
 * --check=<baseline>` and fails when the bytecode tier's speedup over
 * the AST walker on the fused chain workloads drops below
 * `--min-speedup` (default 2) or regresses by more than `--factor`
 * (default 2x) against bench/baselines/BENCH_interpreter.baseline.json.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/command_line.hpp"
#include "ir/bytecode.hpp"
#include "ir/bytecode_verifier.hpp"
#include "ir/exec_tier.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using stats::support::Timer;

/**
 * The chain workloads unroll the transition eight times so fusion has
 * adjacent def-use pairs to collapse; every intermediate feeds the
 * next step and dies, exactly the shape fuseRegion targets.
 */
constexpr const char *kModuleText = R"(module "micro_interpreter"

func @chain_i64(i64 %i, i64 %s) -> i64 {
entry:
  %t0 = mul i64 %s, 3
  %s0 = add i64 %t0, %i
  %t1 = mul i64 %s0, 5
  %s1 = add i64 %t1, %i
  %t2 = add i64 %s1, 7
  %s2 = mul i64 %t2, 3
  %t3 = mul i64 %s2, 9
  %s3 = add i64 %t3, %i
  %t4 = mul i64 %s3, 11
  %s4 = add i64 %t4, %i
  %t5 = add i64 %s4, 13
  %s5 = add i64 %t5, %i
  %t6 = mul i64 %s5, 17
  %s6 = add i64 %t6, %i
  %t7 = mul i64 %s6, 19
  %s7 = add i64 %t7, %s
  ret i64 %s7
}

func @chain_f64(i64 %i, i64 %s) -> i64 {
entry:
  %x = cast f64 %i
  %y = cast f64 %s
  %t0 = mul f64 %y, 1.5
  %s0 = add f64 %t0, %x
  %t1 = mul f64 %s0, 0.25
  %s1 = add f64 %t1, %x
  %t2 = add f64 %s1, 2.5
  %s2 = mul f64 %t2, 0.5
  %t3 = mul f64 %s2, 1.25
  %s3 = add f64 %t3, %x
  %t4 = mul f64 %s3, 0.75
  %s4 = add f64 %t4, %y
  %t5 = add f64 %s4, 0.125
  %s5 = mul f64 %t5, 1.0625
  %t6 = mul f64 %s5, 0.9375
  %s6 = add f64 %t6, %x
  %r = cast i64 %s6
  ret i64 %r
}

func @branchy(i64 %i, i64 %s) -> i64 {
entry:
  %seed = add i64 %i, %s
  jmp loop
loop:
  %k = phi i64 [0, entry], [%k2, latch]
  %acc = phi i64 [%seed, entry], [%acc2, latch]
  %k2 = add i64 %k, 1
  %step = mul i64 %acc, 3
  %bump = add i64 %step, %i
  %odd = cmplt i64 %bump, 0
  br %odd, flip, latch
flip:
  %negated = sub i64 0, %bump
  jmp latch
latch:
  %n = phi i64 [%negated, flip], [%bump, loop]
  %acc2 = add i64 %n, %k2
  %done = cmplt i64 %k2, 16
  br %done, loop, exit
exit:
  ret i64 %acc2
}
)";

struct Result
{
    std::string workload;
    bool batchable = false;
    double astNsPerCall = 0.0;
    double bytecodeNsPerCall = 0.0;
    double batchNsPerCall = 0.0;   ///< 0 when not batchable.
    double bytecodeSpeedup = 0.0;  ///< AST / bytecode.
    double batchSpeedup = 0.0;     ///< AST / batch; 0 if n/a.
    std::size_t fused = 0;
};

/** Deterministic workload inputs: (input, state) pairs. */
std::vector<std::pair<long long, long long>>
makeInputs(std::size_t count)
{
    std::vector<std::pair<long long, long long>> inputs;
    inputs.reserve(count);
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    for (std::size_t k = 0; k < count; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        inputs.emplace_back((long long)(x % 1000),
                            (long long)((x >> 32) % 1000));
    }
    return inputs;
}

Result
runWorkload(const stats::ir::Module &module, const std::string &fn,
            std::size_t calls)
{
    namespace ir = stats::ir;
    Result result;
    result.workload = fn;

    const auto inputs = makeInputs(calls);
    // Accumulate results so no tier's work can be optimized away, and
    // cross-check the tiers against each other while we're at it.
    long long ast_sum = 0, bc_sum = 0, batch_sum = 0;

    {
        ir::ExecutableModule exec(module, ir::ExecTier::Ast);
        Timer timer;
        for (const auto &[in, st] : inputs) {
            ast_sum += exec.call(fn, {ir::RtValue::ofInt(in),
                                      ir::RtValue::ofInt(st)})
                           .asInt();
        }
        result.astNsPerCall =
            timer.elapsedSeconds() * 1e9 / double(calls);
    }

    {
        ir::ExecutableModule exec(module, ir::ExecTier::Bytecode);
        const auto *bc_fn = exec.bytecode().find(fn);
        result.batchable = bc_fn->batchable;
        result.fused = bc_fn->fusedCount;
        Timer timer;
        for (const auto &[in, st] : inputs) {
            bc_sum += exec.call(fn, {ir::RtValue::ofInt(in),
                                     ir::RtValue::ofInt(st)})
                          .asInt();
        }
        result.bytecodeNsPerCall =
            timer.elapsedSeconds() * 1e9 / double(calls);

        if (result.batchable) {
            std::vector<ir::RtValue> in_col(calls), st_col(calls),
                out(calls);
            for (std::size_t k = 0; k < calls; ++k) {
                in_col[k] = ir::RtValue::ofInt(inputs[k].first);
                st_col[k] = ir::RtValue::ofInt(inputs[k].second);
            }
            const std::vector<const ir::RtValue *> columns{
                in_col.data(), st_col.data()};
            exec.setStepBudget(std::uint64_t(calls) * 10'000'000);
            Timer batch_timer;
            if (!exec.callBatch(fn, calls, columns, out.data())) {
                std::cerr << "micro_interpreter: batchable function "
                          << fn << " refused batch execution\n";
                std::exit(1);
            }
            result.batchNsPerCall =
                batch_timer.elapsedSeconds() * 1e9 / double(calls);
            for (const auto &v : out)
                batch_sum += v.asInt();
        }
    }

    if (bc_sum != ast_sum ||
        (result.batchable && batch_sum != ast_sum)) {
        std::cerr << "micro_interpreter: tier divergence on " << fn
                  << " (ast " << ast_sum << ", bytecode " << bc_sum
                  << ", batch " << batch_sum << ")\n";
        std::exit(1);
    }

    result.bytecodeSpeedup =
        result.astNsPerCall / result.bytecodeNsPerCall;
    if (result.batchable)
        result.batchSpeedup = result.astNsPerCall / result.batchNsPerCall;
    return result;
}

/**
 * The compile+verify scenario (docs/ANALYSIS.md §8): bytecode
 * compilation of the three workloads with auto-verification off,
 * against a separate post-regalloc verifier pass over the result.
 * The overhead ratio is the gated quantity — verification must stay
 * a small fraction of compilation, or turning it on by default in
 * every compile stops being a defensible deal.
 */
struct CompileVerify
{
    double compileNsPerModule = 0.0;
    double verifyNsPerModule = 0.0;
    double overhead = 0.0; ///< verify / compile.
};

CompileVerify
runCompileVerify(const stats::ir::Module &module, std::size_t reps)
{
    namespace bc = stats::ir::bc;
    CompileVerify result;

    const bool prev_auto = bc::setAutoVerify(false);
    std::size_t compiled = 0;
    Timer compile_timer;
    for (std::size_t k = 0; k < reps; ++k)
        compiled += bc::compileModule(module).compiledCount();
    result.compileNsPerModule =
        compile_timer.elapsedSeconds() * 1e9 / double(reps);

    const bc::BcModule bytecode = bc::compileModule(module);
    bc::setAutoVerify(prev_auto);

    std::size_t diagnostics = 0;
    Timer verify_timer;
    for (std::size_t k = 0; k < reps; ++k)
        diagnostics += bc::verifyModule(bytecode).size();
    result.verifyNsPerModule =
        verify_timer.elapsedSeconds() * 1e9 / double(reps);

    if (compiled == 0 || diagnostics != 0) {
        std::cerr << "micro_interpreter: compile+verify scenario "
                     "broken (compiled "
                  << compiled << ", diagnostics " << diagnostics
                  << ")\n";
        std::exit(1);
    }
    result.overhead =
        result.verifyNsPerModule / result.compileNsPerModule;
    return result;
}

void
writeJson(std::ostream &out, const std::vector<Result> &results,
          const CompileVerify &cv, std::size_t calls, bool smoke)
{
    stats::support::JsonWriter json(out, true);
    json.beginObject();
    json.field("benchmark", "micro_interpreter")
        .field("smoke", smoke)
        .field("callsPerWorkload", calls);
    json.key("results").beginArray();
    for (const Result &r : results) {
        json.beginObject()
            .field("workload", r.workload)
            .field("batchable", r.batchable)
            .field("fusedSuperinstructions", r.fused)
            .field("astNsPerCall", r.astNsPerCall)
            .field("bytecodeNsPerCall", r.bytecodeNsPerCall)
            .field("batchNsPerCall", r.batchNsPerCall)
            .field("bytecodeSpeedup", r.bytecodeSpeedup)
            .field("batchSpeedup", r.batchSpeedup)
            .endObject();
    }
    json.endArray();
    // Regression-guard convenience fields: the fused-chain speedups.
    // `--check` compares these without a JSON parser, so keep them
    // flat and uniquely named.
    json.field("checkChainI64Speedup", results[0].bytecodeSpeedup)
        .field("checkChainF64Speedup", results[1].bytecodeSpeedup)
        .field("checkBatchSpeedup", results[0].batchSpeedup);
    // The compile+verify scenario: post-regalloc verification cost as
    // a fraction of bytecode compilation (gated at --max-verify-cost).
    json.field("compileNsPerModule", cv.compileNsPerModule)
        .field("verifyNsPerModule", cv.verifyNsPerModule)
        .field("checkVerifyOverhead", cv.overhead);
    json.endObject();
    out << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const stats::support::CliArgs args = stats::benchx::parseOptions(
        argc, argv,
        {"smoke", "out", "check", "factor", "min-speedup",
         "max-verify-cost"},
        "[--smoke] [--out=FILE] [--check=BASELINE] [--factor=N] "
        "[--min-speedup=N] [--max-verify-cost=N]");
    const bool smoke = args.has("smoke");
    const std::string out_path =
        args.get("out", "BENCH_interpreter.json");
    const std::string check_path = args.get("check", "");
    const double factor = args.getDouble("factor", 2.0);
    const double min_speedup = args.getDouble("min-speedup", 2.0);
    const double max_verify_cost = args.getDouble("max-verify-cost", 0.2);

    stats::ir::Module module = stats::ir::parseModule(kModuleText);
    if (const auto problems = stats::ir::verifyModule(module);
        !problems.empty()) {
        for (const auto &p : problems)
            std::cerr << "micro_interpreter: verify: " << p << "\n";
        return 1;
    }

    const std::size_t calls = smoke ? 20000 : 200000;
    std::vector<Result> results;
    for (const char *fn : {"chain_i64", "chain_f64", "branchy"})
        results.push_back(runWorkload(module, fn, calls));

    const CompileVerify cv =
        runCompileVerify(module, smoke ? 2000 : 20000);

    stats::support::TextTable table({"workload", "ast ns", "bytecode ns",
                                     "batch ns", "fused", "speedup",
                                     "batch x"});
    const auto fmt = [](double v) {
        return stats::support::TextTable::formatDouble(v, 1);
    };
    const auto ratio = [](double v) {
        return stats::support::TextTable::formatDouble(v, 2);
    };
    for (const Result &r : results) {
        table.addRow({r.workload, fmt(r.astNsPerCall),
                      fmt(r.bytecodeNsPerCall),
                      r.batchable ? fmt(r.batchNsPerCall) : "-",
                      std::to_string(r.fused), ratio(r.bytecodeSpeedup),
                      r.batchable ? ratio(r.batchSpeedup) : "-"});
    }
    table.print(std::cout);
    std::cout << "compile+verify: compile "
              << stats::support::TextTable::formatDouble(
                     cv.compileNsPerModule, 1)
              << " ns/module, verify "
              << stats::support::TextTable::formatDouble(
                     cv.verifyNsPerModule, 1)
              << " ns/module ("
              << stats::support::TextTable::formatDouble(
                     cv.overhead * 100.0, 1)
              << "% overhead)\n";

    {
        std::ofstream out(out_path);
        if (!out) {
            std::cerr << "micro_interpreter: cannot write " << out_path
                      << "\n";
            return 1;
        }
        writeJson(out, results, cv, calls, smoke);
        std::cout << "wrote " << out_path << "\n";
    }

    // The verifier is linear scans over the code; compilation is
    // regalloc + lowering. Verification must stay a small fraction of
    // the compile it rides on.
    if (cv.overhead > max_verify_cost) {
        std::cerr << "micro_interpreter: REGRESSION — post-regalloc "
                     "verification costs "
                  << cv.overhead * 100.0
                  << "% of compilation (allowed <= "
                  << max_verify_cost * 100.0 << "%)\n";
        return 1;
    }

    // Absolute gate: the bytecode tier must beat the AST walker by
    // min_speedup on both fused chain workloads.
    for (int k = 0; k < 2; ++k) {
        if (results[std::size_t(k)].bytecodeSpeedup < min_speedup) {
            std::cerr << "micro_interpreter: REGRESSION — "
                      << results[std::size_t(k)].workload << " speedup "
                      << results[std::size_t(k)].bytecodeSpeedup
                      << " is below the required " << min_speedup
                      << "x\n";
            return 1;
        }
    }

    if (!check_path.empty()) {
        const double baseline = stats::benchx::Baseline(check_path)
                                    .field("checkChainI64Speedup");
        const double current = results[0].bytecodeSpeedup;
        std::cout << "check: chain_i64 speedup " << current
                  << " vs baseline " << baseline << " (allowed >= "
                  << baseline / factor << ")\n";
        if (current < baseline / factor) {
            std::cerr << "micro_interpreter: REGRESSION — chain_i64 "
                         "speedup "
                      << current << " fell more than " << factor
                      << "x below baseline " << baseline << "\n";
            return 1;
        }
    }
    return 0;
}
