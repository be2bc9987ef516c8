/**
 * @file
 * The nondeterminism-aware sequential-vs-speculative differential
 * oracle (paper section 3.1's correctness claim, made executable).
 *
 * For a valid case the oracle drives the whole pipeline —
 * verify → middle-end → analysis → back-end instantiation — and then
 * executes the instantiated state dependence three ways:
 *
 *  1. **Sequentially, N times**, sampling the program's modeled
 *     nondeterminism, to collect legal final-state fingerprints and
 *     self-check that interpretation is deterministic.
 *  2. **Speculatively** on the engine (simulated executor, so
 *     verdicts are reproducible).
 *  3. **Speculatively under the case's FaultPlan storm**, if any.
 *
 * The acceptance criterion is *exact*, not sampled: the modeled
 * nondeterminism is a pure hash (scenario seed, input position,
 * attempt number), so the set of states a legal sequential execution
 * can reach after any prefix is enumerable. A speculative run passes
 * iff its committed per-input observed states form a chain where
 * every transition is one of the ≤ maxReexecutions+2 legal
 * transitions of its position — i.e. the committed history *is* some
 * legal nondeterministic sequential execution. (With the
 * valid-by-construction matcher the chain requirement is waived by
 * design; ordering and completeness are still enforced.)
 *
 * Near-miss cases short-circuit: the oracle asserts the expected
 * stage (verifier or analyzer) rejects the module.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/exec_tier.hpp"
#include "replay/session.hpp"
#include "sdi/spec_config.hpp"
#include "testing/fuzz_case.hpp"

namespace stats::ir {
class ExecutableModule;
}

namespace stats::testing {

struct OracleOptions
{
    /** Run the full speculation-safety analysis on the midend IR. */
    bool runAnalysis = true;

    /**
     * Execution tier for every interpreted transition (sequential
     * sampling, engine bodies, chain re-derivation). The tier is an
     * implementation detail of `getValue()` execution, so oracle
     * verdicts must not depend on it — tests/tier_differential_test
     * holds the pipeline to that.
     */
    ir::ExecTier execTier = ir::ExecTier::Auto;

    /** Simulated threads for the engine runs. */
    int simThreads = 16;

    /** Honor the scenario's fault plan with a second engine run. */
    bool faultRun = true;
};

struct OracleResult
{
    bool ok = true;

    /** Near-miss case was rejected where expected. */
    bool rejected = false;

    /** Pipeline stage reached (or failed): "verify", "midend",
     *  "analysis", "backend", "sequential", "speculative",
     *  "faulted". */
    std::string stage;

    /** Stable failure kind ("" when ok), e.g. "chain-violation". */
    std::string failKind;

    /** Human-readable failure details. */
    std::string detail;

    /** Distinct final states seen across the sequential samples. */
    std::vector<long long> sequentialFinals;

    sdi::EngineStats cleanStats;
    sdi::EngineStats faultStats;
    bool faulted = false; ///< The fault-storm run executed.
};

/**
 * Run the full differential oracle over one case. Both engine runs
 * report to `session`; the fault-storm run installs the case's fault
 * plan on it for the duration of that run.
 */
OracleResult runOracle(const FuzzCase &fuzz_case,
                       const OracleOptions &options = {},
                       replay::ReplaySession &session =
                           replay::ReplaySession::global());

// ------------------------------------------------ the engine harness
// Shared with the serving plane, whose speculative plans run the same
// harness over a scenario built from the plan.

/** Engine input: a value plus its position (for attempt counting). */
struct In
{
    int pos = 0;
    long long value = 0;
};

/** Engine output: the state observed before the invocation. */
struct Out
{
    int pos = 0;
    long long observed = 0;
};

/** The input stream of a scenario seeded `seed`: `count` values, a
 *  pure function of the seed. */
std::vector<In> deriveInputs(std::uint64_t seed, int count);

/** One interpreted state transition: `function`(input, state). */
long long interpStep(ir::ExecutableModule &exec,
                     const std::string &function, long long input,
                     long long state);

struct EngineRun
{
    std::vector<Out> outputs;
    sdi::EngineStats stats;
};

/**
 * Execute the instantiated dependence on the speculation engine over
 * a simulated executor with `sim_threads` threads, reporting to
 * `session`. Per-(position, attempt) noise draws model the program's
 * nondeterminism; the auxiliary code draws none, and its batched form
 * (used when `scenario.config.auxBatchGroups` > 1) is bit-identical
 * to the scalar one.
 */
EngineRun runEngine(ir::ExecutableModule &exec,
                    const std::string &compute_fn,
                    const std::string &aux_fn, const Scenario &scenario,
                    const std::vector<In> &inputs, int sim_threads,
                    replay::ReplaySession &session);

/** Number of legal transition variants per input position. */
int legalAttempts(const Scenario &scenario);

/**
 * The modeled per-invocation nondeterminism: additive noise as a pure
 * hash of (seed, position, attempt). Zero outside the scenario's
 * noisyPercent slice.
 */
long long noiseFor(std::uint64_t seed, int position, int attempt,
                   int noisy_percent, int max_noise);

/** Confine a state to the harness's state domain [0, 2^20). */
long long wrapState(long long value);

} // namespace stats::testing
