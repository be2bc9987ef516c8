/**
 * @file
 * Record/replay sessions (docs/REPLAY.md).
 *
 * Three modes:
 *  - **Off** (default): every hook is a cheap no-op.
 *  - **Record**: the speculation engine's nondeterministic choice
 *    points — validation verdicts, re-executions, the commit/squash/
 *    abort order, per-run configuration and stats fingerprints — are
 *    appended to an in-memory RecordLog, to be saved at exit.
 *  - **Replay**: a loaded log drives the engine. At each choice
 *    point the engine's *computed* value is compared against the
 *    logged one; the logged value is then **forced** so execution
 *    stays on the recorded path, and the first disagreement is
 *    reported as the run's divergence (epoch, kind, expected vs
 *    actual).
 *
 * A FaultPlan composes with any mode: injections mutate the engine's
 * decisions *before* they are recorded or compared, so a faulty run
 * records — and replays, under the same plan — exactly.
 *
 * Sessions are **explicit**: nothing looks a session up behind the
 * caller's back. A SpecEngine reports to the session it was
 * constructed with (`ReplaySession::global()` by default), and the
 * layers above it pass one down — `benchmarks::RunRequest::session`,
 * `testing::runOracle`, `serving::PlanRunner::runPlan/runBatch`. Code
 * that wants an isolated record/replay scope (the serving plane runs
 * one per recording or fault-injecting plan) constructs its own
 * ReplaySession and hands it to the run; single-run tools (statscc
 * --record/--replay, the benchmark harness) use `global()`. The
 * executor's stall hook and the autotuner's mistrain hook always read
 * `global()`.
 *
 * Threading contract: *within one session*, mode changes
 * (start/finish/fault-plan setters) are quiescent-time operations —
 * call them only when no engine is running against that session. The
 * engine-side hooks are invoked from executor-serialized completion
 * callbacks; the executor-side stall hook may be called concurrently
 * but only reads the (immutable-while-running) plan. Distinct
 * sessions are fully independent.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "replay/fault_plan.hpp"
#include "replay/record_log.hpp"

namespace stats::replay {

enum class Mode : std::uint8_t
{
    Off,
    Record,
    Replay,
};

/** First point where a replayed execution left the recorded path. */
struct Divergence
{
    std::uint32_t run = 0;
    std::uint32_t epoch = 0;

    /** What the log expected at this epoch. */
    RecordKind expectedKind = RecordKind::Commit;
    std::int32_t expectedGroup = -1;
    std::int64_t expectedValue = 0;
    std::vector<std::int64_t> expectedPayload;

    /** What the execution actually did. */
    RecordKind actualKind = RecordKind::Commit;
    std::int32_t actualGroup = -1;
    std::int64_t actualValue = 0;
    std::vector<std::int64_t> actualPayload;

    /**
     * Human-readable one-liner. Two RunBegins name each configuration
     * field that differs, e.g. "sdThreads 4 → 8".
     */
    std::string describe() const;
};

/** Outcome of a completed replay. */
struct ReplayReport
{
    bool diverged = false;
    Divergence first;
    std::uint32_t runsReplayed = 0;
    std::uint64_t recordsMatched = 0;
};

/** What ReplaySession::matchVerdict decided (engine emits the trace). */
struct VerdictOutcome
{
    /** The verdict the engine must use: the matched-original index,
     *  or -1 for no match. */
    int verdict = -1;
    bool faultInjected = false;
    std::int64_t faultKind = 0; ///< FaultKind when faultInjected.
    bool diverged = false;   ///< This call found the first divergence.
};

/**
 * A record/replay session. All engine hooks are safe to call in any
 * mode; in Off mode with no fault plan they reduce to one relaxed
 * atomic load.
 */
class ReplaySession
{
  public:
    ReplaySession() = default;
    ReplaySession(const ReplaySession &) = delete;
    ReplaySession &operator=(const ReplaySession &) = delete;

    /** The process-wide default session. */
    static ReplaySession &global();

    // ------------------------------------------------ lifecycle
    /** Begin recording into a fresh log pinned to `root_seed`. */
    void startRecording(std::uint64_t root_seed);

    /** Attach identifying metadata to the log being recorded. */
    void setMetadata(const std::string &key, const std::string &value);

    /** Stop recording and hand the log to the caller. */
    RecordLog finishRecording();

    /** Begin replaying a loaded log. */
    void startReplay(RecordLog log);

    /** Stop replaying; report what happened. */
    ReplayReport finishReplay();

    /** Install (or clear, with an inactive plan) the fault plan. */
    void setFaultPlan(FaultPlan plan);

    Mode mode() const
    {
        return _mode.load(std::memory_order_relaxed);
    }
    bool faultsActive() const
    {
        return _faultsActive.load(std::memory_order_relaxed);
    }
    /** True when any hook has real work (record/replay or faults). */
    bool engaged() const
    {
        return mode() != Mode::Off || faultsActive();
    }

    /** Replay-so-far state (valid in Replay mode). */
    bool diverged() const { return _diverged; }
    const Divergence &firstDivergence() const { return _first; }

    /** Injections performed since the session started, per kind. */
    std::uint64_t faultCount(FaultKind kind) const;
    /** Count a fault injected outside the engine (stall, mistrain). */
    void countExternalFault(FaultKind kind);

    // ------------------------------------------------ engine hooks
    /** A SpecEngine started; returns true on a (first) divergence. */
    bool engineRunBegin(const RunConfigRecord &config);

    /**
     * The engine computed a validation verdict for `group`. Applies
     * fault injections, records or replay-checks the result, and
     * returns the verdict the engine must use.
     */
    VerdictOutcome matchVerdict(std::int32_t group, int computed);

    /** Fault hook: replace group's speculative start with a stale
     *  clone of the initial state? Records the injection. */
    bool corruptSpecState(std::int32_t group);

    /** Outcome hooks; each returns true on a (first) divergence. */
    bool reexecution(std::int32_t group, int attempt);
    bool commit(std::int32_t group);
    bool squash(std::int32_t group, std::int32_t aborting_group);
    bool abortSpeculation(std::int32_t group);

    /** The engine finished; fingerprints its EngineStats. */
    bool engineRunEnd(const RunStatsRecord &stats);

    // ------------------------------------------------ executor hook
    /** Seconds to stall a task tagged (kind, group); 0 = none. */
    double taskStallSeconds(int task_kind, std::int32_t group) const;

    // ------------------------------------------------ autotuner hook
    /** Perturb a measured objective under a mistraining fault. */
    double mistrainObjective(double objective);

  private:
    /** Append in record mode / verify in replay mode. */
    bool step(RecordKind kind, std::int32_t group, std::int64_t a,
              std::int64_t b, std::vector<std::int64_t> payload,
              std::int64_t *forced_a);
    void recordStep(Record record);
    bool replayStep(const Record &actual, std::int64_t *forced_a);
    void reportDivergence(const Record *expected, const Record &actual);

    std::atomic<Mode> _mode{Mode::Off};
    std::atomic<bool> _faultsActive{false};
    FaultPlan _plan;

    RecordLog _log;
    std::uint32_t _run = 0;      ///< Current engine-run index.
    std::uint32_t _epoch = 0;    ///< Next epoch within the run.
    bool _runOpen = false;

    // Replay state.
    std::size_t _cursor = 0;
    std::uint64_t _matched = 0;
    bool _diverged = false;
    bool _structuralLoss = false; ///< Stop consuming after kind skew.
    Divergence _first;

    // Touched from worker threads (stalls) and the tuner (mistrain),
    // not only from serialized engine callbacks — hence atomic.
    std::atomic<std::uint64_t> _faultCounts[kFaultKindCount] = {};
    std::atomic<std::uint64_t> _mistrainEvaluations{0};
};

} // namespace stats::replay
