/**
 * @file
 * The plan runner: turns dispatched ExecutionPlans into deterministic
 * results (docs/SERVING.md §5).
 *
 * Three execution paths, one per JobKind:
 *
 *  - **IrSequential** — one interpreted state-transition chain over
 *    the plan's derived inputs. `runBatch` executes several
 *    compatible plans as the *lanes* of one
 *    `ExecutableModule::callBatch` loop; lane results are
 *    bit-identical to solo execution (each lane keeps its own seed,
 *    inputs, and noise stream), so batching is invisible in the
 *    result bytes — the property the served-determinism test pins.
 *
 *  - **IrSpeculative** — the module runs on the SpecEngine over the
 *    simulated executor (virtual time), mirroring the differential
 *    oracle's harness. When `recordChoices` is set, the engine's
 *    choice points are captured into a RecordLog for `replay-fetch`.
 *
 *  - **Benchmark** — one of the paper benchmarks, exactly like
 *    `statscc run` (virtual time again: the result is a pure
 *    function of the plan).
 *
 * The runner owns a bounded LRU compile cache keyed by the plan's
 * exact compatibility bytes: instantiation happens once per distinct
 * (module text, configuration, tier, budget) while it stays
 * resident. A miss instantiates from the admitted module the server
 * handed in with the plan (QueuedPlan::admitted); a plan run without
 * one is admitted here first, through the same admitModule. Because
 * an ExecutableModule is not internally synchronized, each cache
 * entry keeps a *pool* of instances over the shared frozen module; a
 * worker leases one for the duration of a dispatch and returns it,
 * so same-key plans still execute concurrently. A lease keeps its
 * entry alive after eviction.
 *
 * Threading contract: `runPlan`/`runBatch` are safe to call from any
 * number of server worker threads concurrently. Record/replay state
 * is scoped per run — each execution installs its own thread-local
 * ReplaySession (RecordScope), so no global mode flips occur.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sdi/spec_config.hpp"
#include "serving/execution_plan.hpp"
#include "serving/lru.hpp"
#include "serving/scheduler.hpp"

namespace stats::serving {

/** Outcome of executing one plan. */
struct PlanResult
{
    bool ok = false;
    /** Runtime failure detail ("" when ok). */
    std::string error;

    /**
     * Deterministic result bytes: the per-position observed states
     * (IR kinds) or the benchmark signature (Benchmark kind), varint
     * encoded. Byte-identical across re-runs of the same plan — the
     * serving determinism contract.
     */
    std::string resultBlob;

    /** Serialized RecordLog when the plan asked for choice capture
     *  and the path records (engine runs); "" otherwise. */
    std::string recordLog;

    // Summary numbers for `stats-cli status/result`.
    long long finalState = 0;
    double virtualSeconds = 0.0;
    std::int64_t invocations = 0;
    /** Lanes the plan was fused with (1 = ran solo). */
    int batchedLanes = 1;
};

/** Bound on the compiled configurations one runner keeps resident. */
inline constexpr std::size_t kCompileCacheCapacity = 256;

class PlanRunner
{
  public:
    /** Execute one plan (any kind). */
    PlanResult runPlan(const ExecutionPlan &plan);

    /**
     * Execute a dispatch unit from the scheduler: one plan, or
     * several batch-compatible sequential plans fused lane-parallel.
     * Results are positionally aligned with `batch`.
     */
    std::vector<PlanResult>
    runBatch(const std::vector<QueuedPlan> &batch);

    /** Compile-cache statistics (serving.* metrics mirror these). */
    std::size_t cacheSize() const
    {
        std::lock_guard<std::mutex> lock(_cacheMutex);
        return _cache.size();
    }
    std::uint64_t cacheHits() const
    {
        return _cacheHits.load(std::memory_order_relaxed);
    }

  private:
    struct Compiled;
    class ExecLease;

    /** A compiled configuration, or why there is none. */
    struct Outcome
    {
        std::shared_ptr<Compiled> compiled;
        std::string error;
    };

    std::shared_ptr<Compiled> compiled(const QueuedPlan &queued,
                                       std::string &error);
    static Outcome compile(const ExecutionPlan &plan,
                           const AdmittedModule *admitted);
    PlanResult runSpeculative(const QueuedPlan &queued);
    PlanResult runBenchmark(const ExecutionPlan &plan);

    mutable std::mutex _cacheMutex;
    /** Per-key slots, each filled once by the thread that missed. */
    LruMap<std::shared_future<Outcome>> _cache{kCompileCacheCapacity};
    std::atomic<std::uint64_t> _cacheHits{0};
};

} // namespace stats::serving
