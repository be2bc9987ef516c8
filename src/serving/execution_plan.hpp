/**
 * @file
 * The immutable execution plan: everything needed to reproduce one
 * served request (docs/SERVING.md §2 is the canonical schema
 * reference; tests/serving_test.cpp keeps the two in lockstep).
 *
 * The control plane validates an incoming request and emits a plan;
 * from that point on nothing mutates it (the server hands
 * `shared_ptr<const ExecutionPlan>` around). A plan plus the replay
 * subsystem makes every served run reproducible: re-running the same
 * plan yields byte-identical committed state, and the RecordLog
 * captured while serving it replays with zero divergence
 * (docs/REPLAY.md).
 *
 * Two serializations, both round-trippable:
 *  - **binary** (`saveToString`/`load`): magic `STPL`, varint schema
 *    version, fields in fixed order — deterministic bytes, pinned by
 *    a byte-exact golden in tests/golden/;
 *  - **text** (`toText`/`fromText`): `key value` lines with a
 *    heredoc-style inline-module block, the form `stats-cli submit`
 *    reads from disk.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "ir/exec_tier.hpp"
#include "sdi/spec_config.hpp"

namespace stats::serving {

/** Bumped on any change to the plan fields or their encoding.
 *  v2 added `noCache` (the result-cache escape hatch). */
inline constexpr std::uint64_t kPlanSchemaVersion = 2;

/** What kind of work a plan describes. */
enum class JobKind : std::uint8_t
{
    /**
     * Inline mini-IR module executed as a *sequential* chain of state
     * transitions. The cheap tier: compatible sequential jobs are
     * fused cross-request into the lanes of one
     * `ExecutableModule::callBatch` (docs/SERVING.md §4).
     */
    IrSequential,

    /**
     * Inline mini-IR module executed *speculatively* on the
     * SpecEngine (simulated executor, so committed states are a pure
     * function of the plan). Choice points are recorded for
     * `replay-fetch`.
     */
    IrSpeculative,

    /**
     * One of the six paper benchmarks (`moduleRef` names it), run
     * end-to-end on the engine exactly like `statscc run`.
     */
    Benchmark,
};

inline constexpr int kJobKindCount = 3;

const char *jobKindName(JobKind kind);
std::optional<JobKind> jobKindFromName(const std::string &name);

/**
 * One served request, frozen. Field semantics: docs/SERVING.md §2.
 */
struct ExecutionPlan
{
    // ------------------------------------------------ routing
    std::string tenant = "default";
    /** Intra-tenant ordering: higher first, FIFO within a level. */
    std::int64_t priority = 0;

    // ------------------------------------------------ program
    JobKind kind = JobKind::IrSequential;
    /** Benchmark name (Benchmark kind); "" for inline-IR kinds. */
    std::string moduleRef;
    /** Inline mini-IR text (IR kinds); "" for Benchmark kind. */
    std::string moduleText;

    /** Configuration point: aux tradeoff name -> value index. The map
     *  gives a canonical order, part of both byte formats. */
    std::map<std::string, std::int64_t> tradeoffIndices;

    // ------------------------------------------------ engine limits
    /** SpecConfig for the speculative run (IrSpeculative kind). */
    sdi::SpecConfig limits;
    /** Interpreter step budget per top-level call (IR kinds). */
    std::uint64_t stepBudget = 1'000'000;

    // ------------------------------------------------ execution tier
    ir::ExecTier execTier = ir::ExecTier::Auto;
    /** Cross-request fusion cap: how many compatible sequential jobs
     *  (including this one) may share one callBatch dispatch; 1
     *  disables fusion for this plan. */
    int batchLanes = 8;

    // ------------------------------------------------ run shape
    /** Root of every derived stream (docs/REPLAY.md §1). */
    std::uint64_t rootSeed = 1;
    /** IR kinds: inputs fed to the state dependence. */
    int inputs = 24;
    long long initialState = 0;
    /** Modeled nondeterminism (the fuzzer's noise model): percent of
     *  transitions perturbed, and the perturbation magnitude. */
    int noisyPercent = 0;
    int maxNoise = 3;

    // ------------------------------------------------ benchmark shape
    /** Benchmark kind only: `statscc run` equivalents. */
    std::string benchMode = "par";
    int benchThreads = 8;
    std::string benchWorkload = "rep";

    // ------------------------------------------------ replay & faults
    /** Fault-plan spec (docs/REPLAY.md §4 grammar); "" = none. */
    std::string faults;
    /** Capture a RecordLog while serving (needed by replay-fetch). */
    bool recordChoices = true;

    /** Bypass the server's (plan, seed) result cache for this
     *  request: never serve it from a cached result and never store
     *  its result. The `stats-cli submit --no-cache` escape hatch. */
    bool noCache = false;

    bool operator==(const ExecutionPlan &) const = default;

    /**
     * Structural sanity independent of the program payload; returns
     * "" when the plan is well-formed, else a one-line problem.
     */
    std::string validate() const;

    /**
     * Canonical bytes of the fields that must agree for two
     * sequential jobs to share one batch (module text, configuration
     * point, tier, step budget): the compile-cache key. Exact bytes,
     * so two programs never share a compiled module.
     */
    std::string compatibilityBytes() const;

    /**
     * 64-bit hash of compatibilityBytes(). A hint only — the
     * scheduler's in-flight filter compares it, and a collision costs
     * a wait, never a wrong fusion or a wrong compiled module.
     */
    std::uint64_t compatibilityKey() const;

    /** Sequential with fusion enabled (`batchLanes > 1`). */
    bool batchable() const;

    /** True when this plan and `other` may be fused into one batch:
     *  both batchable and equal on every compatibility field. */
    bool canBatchWith(const ExecutionPlan &other) const;

    /**
     * Canonical byte string of every *result-affecting* field plus
     * the root seed: the server's result-cache key. Routing and
     * shaping fields that are invisible in the result bytes (tenant,
     * priority, batchLanes, noCache itself) are excluded, so the same
     * work submitted by different tenants — or at different fusion
     * caps — shares one cache entry. Exact bytes, not a hash: a
     * collision can never serve the wrong result.
     */
    std::string resultCacheKey() const;

    // ------------------------------------------------ serialization
    /** Deterministic binary encoding (schema-versioned). */
    std::string saveToString() const;

    /**
     * Decode the binary form. Returns nullopt and sets `error` on bad
     * magic, an unsupported schema version (version skew is a
     * *rejection*, never a guess), or truncated/corrupt payload.
     */
    static std::optional<ExecutionPlan> load(const std::string &bytes,
                                             std::string &error);

    /** Text encoding (round-trips through fromText). */
    std::string toText() const;
    static std::optional<ExecutionPlan>
    fromText(const std::string &text, std::string &error);
};

namespace testonly {

/**
 * Test hook: while set, every plan's compatibilityKey() returns
 * `key`, forcing different programs onto one key. nullopt restores
 * the real hash.
 */
void forceCompatibilityKey(std::optional<std::uint64_t> key);

} // namespace testonly

} // namespace stats::serving
