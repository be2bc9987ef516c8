/**
 * @file
 * The STATS speculation engine: the execution model of paper
 * section 3.1.
 *
 * Inputs are grouped into blocks of `G`. Group 0 runs from the
 * initial state. Each subsequent group starts from a *speculative*
 * state produced by auxiliary code (a clone of computeOutput with its
 * own tradeoff settings) that consumes the `k` inputs preceding the
 * group, starting from the initial state. When the previous group
 * commits, its final state is compared against the speculative state
 * (`doesSpecStateMatchAny`); on a mismatch the previous group rolls
 * back `b` inputs and re-executes — its nondeterminism may produce a
 * different final state — up to `R` times, the comparison set growing
 * each time. If no match is found, all subsequent groups are squashed
 * and execution restarts sequentially from the first original state,
 * with no further speculation for the current inputs.
 *
 * The engine is written against the exec::Executor interface, so the
 * same code runs on real threads and on the simulated many-core
 * platform. All engine bookkeeping is mutated exclusively inside
 * completion callbacks, which both executors serialize.
 *
 * Task records need no allocator: a group runs its tasks one after
 * another (aux, then body, then up to R re-executions of its tail), so
 * each group holds one TaskRec slot for its in-flight task (plus a
 * BatchAuxRec slot when it leads a batched aux task), and the engine
 * holds one more for the conventional or squash-recovery run, which
 * never coexist. Task closures capture only {engine, group index,
 * slot pointer} and therefore fit the executor's inline closure
 * storage. Slots are reset only inside the serialized completion
 * callbacks, and `_groups` is built once in start() and never resized,
 * so a worker's slot pointer stays valid (docs/INTERNALS.md §4).
 */

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "exec/task.hpp"
#include "observability/trace.hpp"
#include "replay/session.hpp"
#include "sdi/spec_config.hpp"
#include "support/log.hpp"

namespace stats::sdi {

/** Extra information passed to every computeOutput invocation. */
struct ComputeContext
{
    /** Threads available to the invocation's original (inner) TLP. */
    int innerThreads = 1;

    /** True when running as auxiliary code (cloned tradeoffs). */
    bool auxiliary = false;
};

/**
 * The speculation engine for one state dependence.
 *
 * @tparam Input  per-invocation input (paper Figure 4 `I`)
 * @tparam State  the dependence-carried state; must be copyable
 *                (the paper requires a developer-supplied
 *                `operator=` for cloning)
 * @tparam Output per-invocation output
 */
template <class Input, class State, class Output>
class SpecEngine
{
  public:
    /** Result of one computeOutput invocation. */
    struct Invocation
    {
        std::unique_ptr<Output> output;
        exec::Work cost;
    };

    using ComputeFn = std::function<Invocation(
        const Input &, State &, const ComputeContext &)>;

    /**
     * State-comparison function: returns the index of the original
     * state the speculative state is considered equivalent to, or -1
     * for no match. Adapters exist for the paper's boolean
     * `doesSpecStateMatchAny` form (see matchers.hpp).
     */
    using MatchFn = std::function<int(const State &spec,
                                      const std::vector<State> &originals)>;

    /** One aux window in a batched evaluation: the auxiliary clone
     *  consumes inputs [windowBegin, windowEnd) from the initial
     *  state; the resulting state seeds the group starting at
     *  windowEnd. */
    struct AuxBatchItem
    {
        std::size_t windowBegin = 0;
        std::size_t windowEnd = 0;
    };

    /** Result of one lane of a batched aux evaluation. */
    struct AuxBatchResult
    {
        State state;
        double workUnits = 0.0;
    };

    /**
     * Batched auxiliary evaluation: all items advance in lockstep
     * (e.g. as ExecutableModule::callBatch lanes), returning one
     * result per item, in order.
     */
    using BatchAuxFn = std::function<std::vector<AuxBatchResult>(
        const std::vector<AuxBatchItem> &)>;

    /** `session` receives every record/replay and fault hook. */
    SpecEngine(exec::Executor &executor, const std::vector<Input> &inputs,
               State initial_state, ComputeFn compute, ComputeFn auxiliary,
               MatchFn match, SpecConfig config,
               replay::ReplaySession &session =
                   replay::ReplaySession::global())
        : _executor(executor), _session(session), _inputs(inputs),
          _initialState(std::move(initial_state)),
          _compute(std::move(compute)), _auxiliary(std::move(auxiliary)),
          _match(std::move(match)), _config(config)
    {
        if (!_compute)
            support::panic("SpecEngine: computeOutput is required");
        _config.groupSize = std::max(1, _config.groupSize);
        _config.auxWindow = std::max(0, _config.auxWindow);
        _config.maxReexecutions = std::max(0, _config.maxReexecutions);
        _config.rollbackDepth = std::max(1, _config.rollbackDepth);
        _config.sdThreads = std::max(1, _config.sdThreads);
        _config.innerThreads = std::max(1, _config.innerThreads);
        _config.auxBatchGroups = std::max(1, _config.auxBatchGroups);
    }

    /**
     * The engine keeps a reference to `inputs` until join() returns,
     * so a temporary vector would dangle: binding one is a compile
     * error rather than a use-after-free.
     */
    SpecEngine(exec::Executor &executor, std::vector<Input> &&inputs,
               State initial_state, ComputeFn compute, ComputeFn auxiliary,
               MatchFn match, SpecConfig config,
               replay::ReplaySession &session =
                   replay::ReplaySession::global()) = delete;

    /**
     * Install a batched auxiliary function (must precede start()).
     * Used together with SpecConfig::auxBatchGroups > 1: the initial
     * aux window is then evaluated by ceil(window / auxBatchGroups)
     * lockstep tasks instead of one task per group.
     */
    void
    setBatchAuxiliary(BatchAuxFn fn)
    {
        if (_started)
            support::panic(
                "SpecEngine::setBatchAuxiliary after start");
        _batchAux = std::move(fn);
    }

    /** Begin processing; returns immediately (paper Figure 9). */
    void
    start()
    {
        if (_started)
            support::panic("SpecEngine::start called twice");
        _started = true;

        buildGroups();

        // Record/replay: fingerprint the effective run configuration.
        // A replayed log only makes sense against the same setup, so a
        // config skew surfaces as an immediate divergence.
        if (_session.engaged()) {
            replay::RunConfigRecord rc;
            rc.useAuxiliary = _conventional ? 0 : 1;
            rc.groupSize = _config.groupSize;
            rc.auxWindow = _config.auxWindow;
            rc.maxReexecutions = _config.maxReexecutions;
            rc.rollbackDepth = _config.rollbackDepth;
            rc.sdThreads = _config.sdThreads;
            rc.innerThreads = _config.innerThreads;
            rc.inputCount = static_cast<std::int64_t>(_inputs.size());
            replayMark(_session.engineRunBegin(rc), 0, 0,
                       _inputs.size());
        }

        // All engine bookkeeping must happen in serialized completion
        // callbacks; bootstrap via a zero-cost task.
        exec::Task bootstrap;
        bootstrap.width = 1;
        bootstrap.run = [] { return exec::Work{0.0, 0.0}; };
        bootstrap.onComplete = [this] { launchInitialTasks(); };
        _executor.submit(std::move(bootstrap));
    }

    /** Wait for all inputs to be correctly processed. */
    void
    join()
    {
        if (!_started)
            support::panic("SpecEngine::join before start");
        _executor.drain();
        if (_session.engaged()) {
            replay::RunStatsRecord rs;
            rs.validations = _stats.validations;
            rs.mismatches = _stats.mismatches;
            rs.reexecutions = _stats.reexecutions;
            rs.aborts = _stats.aborts;
            rs.squashedGroups = _stats.squashedGroups;
            rs.invocations = _stats.invocations;
            replayMark(_session.engineRunEnd(rs), 0, 0,
                       _inputs.size());
        }
        assembleOutputs();
    }

    /** Outputs in input order; valid after join(). */
    const std::vector<std::unique_ptr<Output>> &
    outputs() const
    {
        return _finalOutputs;
    }

    const EngineStats &stats() const { return _stats; }
    const SpecConfig &config() const { return _config; }

  private:
    enum class GroupStatus
    {
        Unsubmitted,
        AuxRunning,
        BodyRunning,
        BodyDone,
        Committed,
        Squashed,
    };

    /**
     * Results of one in-flight task: outputs, final state, rollback
     * checkpoint, and work counter. The task's run/onComplete closures
     * capture only the slot pointer, so they fit the executor's inline
     * storage. Every completion path — success, squash, cancellation —
     * resets the slot, so an empty `finalState` means "cancelled before
     * dispatch" to the next task that uses it.
     */
    struct TaskRec
    {
        std::vector<std::unique_ptr<Output>> outputs;
        std::optional<State> finalState;
        std::optional<State> checkpoint;
        double workDone = 0.0;
    };

    /** Results of one batched (lockstep) auxiliary task. */
    struct BatchAuxRec
    {
        std::vector<AuxBatchResult> results;
        double workDone = 0.0;
        bool ran = false; ///< False when cancelled before dispatch.
    };

    struct Group
    {
        std::size_t begin = 0;
        std::size_t end = 0;
        GroupStatus status = GroupStatus::Unsubmitted;
        exec::CancelToken cancel;

        /** Auxiliary result; start state of this group (j > 0). */
        std::optional<State> specStart;
        bool startValidated = false;

        /** Populated by the body task. */
        std::vector<std::unique_ptr<Output>> outputs;
        std::optional<State> finalState;

        /** Rollback support. */
        std::optional<State> checkpointState;
        std::size_t checkpointPos = 0;

        /**
         * Final states this group has produced: the first execution's
         * final, then one more per re-execution. This is the
         * comparison set for the next group's speculative state.
         */
        std::vector<State> originalFinals;
        /** Tail outputs of each re-execution (indexes originals 1..). */
        std::vector<std::vector<std::unique_ptr<Output>>> reexecTails;
        int reexecsDone = 0;

        /** The group's one in-flight aux, body or re-execution task. */
        TaskRec task;
        /** Used while this group leads a batched aux task. */
        BatchAuxRec batchAux;
    };

    /**
     * Emit one semantic instant on the frontier track, stamped with
     * the executor clock. All call sites run inside serialized
     * completion callbacks, matching the engine's locking discipline
     * (none). The event schema is docs/OBSERVABILITY.md.
     */
    void
    traceEvent(obs::EventType type, std::size_t group,
               std::size_t input_begin, std::size_t input_end,
               std::int64_t arg = 0)
    {
        if (!obs::traceActive())
            return;
        obs::Trace::global().record(
            type, static_cast<std::int32_t>(group),
            static_cast<std::int64_t>(input_begin),
            static_cast<std::int64_t>(input_end), _executor.now(),
            obs::kFrontierTrack, arg);
    }

    /**
     * Surface a replay divergence as a trace instant. The session has
     * no clock, so hooks return "this was the first divergence" and
     * the engine stamps the event with executor time (arg: the
     * diverging epoch; details via `statscc log diff` / ReplayReport).
     */
    void
    replayMark(bool diverged, std::size_t group, std::size_t input_begin,
               std::size_t input_end)
    {
        if (!diverged)
            return;
        traceEvent(obs::EventType::ReplayDivergence, group, input_begin,
                   input_end,
                   static_cast<std::int64_t>(
                       _session.firstDivergence().epoch));
    }

    void
    buildGroups()
    {
        const std::size_t n = _inputs.size();
        const auto g = static_cast<std::size_t>(_config.groupSize);
        const bool speculate = _config.useAuxiliary &&
                               static_cast<bool>(_auxiliary) && n > g;
        if (!speculate) {
            _conventional = true;
            return;
        }
        for (std::size_t begin = 0; begin < n; begin += g) {
            Group group;
            group.begin = begin;
            group.end = std::min(begin + g, n);
            group.cancel = exec::makeCancelToken();
            const auto b = static_cast<std::size_t>(_config.rollbackDepth);
            group.checkpointPos =
                group.end - std::min(b, group.end - group.begin);
            _groups.push_back(std::move(group));
        }
        _stats.groups = static_cast<std::int64_t>(_groups.size());
    }

    void
    launchInitialTasks()
    {
        if (_conventional) {
            submitConventional();
            return;
        }
        // Group 0's body plus the initial aux window go to the
        // executor as one batch: one enqueue/wake operation instead of
        // 1 + window separate submissions. With a batched auxiliary
        // function installed, consecutive windows additionally fuse
        // into lockstep tasks of up to auxBatchGroups lanes.
        std::vector<exec::Task> batch;
        batch.push_back(makeBodyTask(0));
        _groups[0].status = GroupStatus::BodyRunning;
        _nextToSubmit = 1;
        const auto window = static_cast<std::size_t>(_config.sdThreads);
        const std::size_t limit =
            std::min(_groups.size(), 1 + window);
        const auto lanes = static_cast<std::size_t>(
            _batchAux ? _config.auxBatchGroups : 1);
        while (_nextToSubmit < limit) {
            const std::size_t count =
                std::min(lanes, limit - _nextToSubmit);
            if (count <= 1)
                batch.push_back(makeAuxTask(_nextToSubmit));
            else
                batch.push_back(
                    makeBatchAuxTask(_nextToSubmit, count));
            _nextToSubmit += count;
        }
        _executor.submitBatch(std::move(batch));
    }

    /** Process [begin, end) in `state`, accumulating outputs and cost. */
    exec::Work
    runRange(std::size_t begin, std::size_t end, State &state,
             std::vector<std::unique_ptr<Output>> &outputs,
             const ComputeContext &context,
             std::optional<State> *checkpoint = nullptr,
             std::size_t checkpoint_pos = 0)
    {
        double units = 0.0;
        double mem_weighted = 0.0;
        for (std::size_t pos = begin; pos < end; ++pos) {
            if (checkpoint && pos == checkpoint_pos) {
                *checkpoint = state; // Clone for rollback.
                units += _config.stateCloneCost;
            }
            // Auxiliary tasks run the auxiliary clone (the tradeoff-
            // truncated approximation), not the precise body.
            Invocation inv = context.auxiliary && _auxiliary
                                 ? _auxiliary(_inputs[pos], state, context)
                                 : _compute(_inputs[pos], state, context);
            units += inv.cost.units;
            mem_weighted += inv.cost.units * inv.cost.memBound;
            outputs.push_back(std::move(inv.output));
        }
        const double mem_bound = units > 0.0 ? mem_weighted / units : 0.0;
        return exec::Work{units, mem_bound};
    }

    void
    submitConventional()
    {
        TaskRec *rec = &_sequentialTask;
        exec::Task task;
        task.width = _config.innerThreads;
        task.run = [this, rec] {
            State state = _initialState;
            ComputeContext context{_config.innerThreads, false};
            exec::Work work = runRange(0, _inputs.size(), state,
                                       rec->outputs, context);
            work.units += _config.stateCloneCost;
            rec->workDone = work.units;
            return work;
        };
        task.onComplete = [this, rec] {
            _stats.bodyWorkSeconds += rec->workDone;
            _conventionalOutputs = std::move(rec->outputs);
            _stats.invocations +=
                static_cast<std::int64_t>(_inputs.size());
            *rec = {};
        };
        _executor.submit(std::move(task));
    }

    void
    submitAux(std::size_t j)
    {
        _executor.submit(makeAuxTask(j));
    }

    /** Start of group j's aux window ([windowBegin, group.begin)). */
    std::size_t
    auxWindowBegin(std::size_t j) const
    {
        const std::size_t begin_input = _groups[j].begin;
        const auto k = static_cast<std::size_t>(_config.auxWindow);
        return begin_input - std::min(k, begin_input);
    }

    /**
     * Hand group j its speculative start state (shared by the
     * per-group and batched aux completion paths). Runs inside the
     * serialized completion lane.
     */
    void
    deliverAuxResult(std::size_t j, State state)
    {
        Group &g = _groups[j];
        ++_stats.stateClones;
        g.specStart = std::move(state);
        // CorruptState fault: hand the group a stale clone of the
        // initial state in place of the aux result, as if the
        // auxiliary code had learned nothing from its window.
        if (_session.engaged() &&
            _session.corruptSpecState(static_cast<std::int32_t>(j))) {
            g.specStart = _initialState;
            traceEvent(obs::EventType::FaultInjected, j, g.begin,
                       g.end,
                       static_cast<std::int64_t>(
                           replay::FaultKind::CorruptState));
        }
        g.status = GroupStatus::BodyRunning;
        submitBody(j);
        // A validation may have been waiting for this aux result.
        if (_pendingValidation == static_cast<std::ptrdiff_t>(j))
            validate(j);
    }

    /** Build group j's auxiliary task (marks the group AuxRunning). */
    exec::Task
    makeAuxTask(std::size_t j)
    {
        Group &group = _groups[j];
        group.status = GroupStatus::AuxRunning;
        ++_stats.auxTasks;

        const std::size_t begin_input = group.begin;
        const std::size_t window_begin = auxWindowBegin(j);

        TaskRec *rec = &group.task;
        exec::Task task;
        task.width = 1;
        task.cancel = group.cancel;
        task.tag = {obs::TaskKind::Aux, static_cast<std::int32_t>(j),
                    static_cast<std::int64_t>(window_begin),
                    static_cast<std::int64_t>(begin_input), 0};
        task.run = [this, j, rec] {
            // Auxiliary code: from the initial state, consume the k
            // inputs preceding the group (paper section 3.1).
            State state = _initialState;
            ComputeContext context{1, true};
            exec::Work work =
                runRange(auxWindowBegin(j), _groups[j].begin, state,
                         rec->outputs, context);
            work.units += _config.stateCloneCost;
            rec->workDone = work.units;
            rec->finalState = std::move(state);
            return work;
        };
        task.onComplete = [this, j, rec] {
            Group &g = _groups[j];
            if (g.status == GroupStatus::Squashed ||
                !rec->finalState.has_value()) {
                // Squashed, or cancelled before dispatch: the slot is
                // still reset here, as on every completion path.
                *rec = {};
                return;
            }
            _stats.auxWorkSeconds += rec->workDone;
            State state = std::move(*rec->finalState);
            *rec = {};
            deliverAuxResult(j, std::move(state));
        };
        return task;
    }

    /**
     * Build one lockstep aux task covering groups
     * [first, first + count): every window advances through the
     * batched auxiliary function as one lane set (tentpole of
     * ROADMAP item 2: same auxiliary function, many inputs, one
     * callBatch-shaped evaluation). Counts as a single aux task in
     * EngineStats, mirroring the single AuxStart/AuxEnd span it
     * emits. The task carries the *first* group's cancel token: a
     * squash cascade that cancels group `first` necessarily squashed
     * the whole suffix, so the batch is dead as a unit; a cascade
     * starting inside the batch leaves the earlier lanes live and the
     * task runs for them, skipping squashed lanes on completion.
     */
    exec::Task
    makeBatchAuxTask(std::size_t first, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            _groups[first + i].status = GroupStatus::AuxRunning;
        ++_stats.auxTasks;

        BatchAuxRec *rec = &_groups[first].batchAux;
        exec::Task task;
        task.width = 1;
        task.cancel = _groups[first].cancel;
        task.tag = {obs::TaskKind::Aux,
                    static_cast<std::int32_t>(first),
                    static_cast<std::int64_t>(auxWindowBegin(first)),
                    static_cast<std::int64_t>(
                        _groups[first + count - 1].begin),
                    static_cast<std::int64_t>(count)};
        task.run = [this, first, count, rec] {
            std::vector<AuxBatchItem> items;
            items.reserve(count);
            for (std::size_t i = 0; i < count; ++i) {
                items.push_back({auxWindowBegin(first + i),
                                 _groups[first + i].begin});
            }
            rec->results = _batchAux(items);
            if (rec->results.size() != count) {
                support::panic("SpecEngine: batched auxiliary "
                               "returned ",
                               rec->results.size(), " results for ",
                               count, " windows");
            }
            double units = 0.0;
            for (const auto &result : rec->results)
                units += result.workUnits;
            units += _config.stateCloneCost *
                     static_cast<double>(count);
            rec->workDone = units;
            rec->ran = true;
            return exec::Work{units, 0.0};
        };
        task.onComplete = [this, first, count, rec] {
            if (!rec->ran) { // Cancelled before dispatch.
                *rec = {};
                return;
            }
            _stats.auxWorkSeconds += rec->workDone;
            for (std::size_t i = 0; i < count; ++i) {
                Group &g = _groups[first + i];
                if (g.status == GroupStatus::Squashed)
                    continue;
                deliverAuxResult(first + i,
                                 std::move(rec->results[i].state));
            }
            *rec = {};
        };
        return task;
    }

    void
    submitBody(std::size_t j)
    {
        _executor.submit(makeBodyTask(j));
    }

    /** Build group j's body task (does not change the group status). */
    exec::Task
    makeBodyTask(std::size_t j)
    {
        Group &group = _groups[j];
        TaskRec *rec = &group.task;

        exec::Task task;
        task.width = _config.innerThreads;
        task.cancel = group.cancel;
        task.tag = {obs::TaskKind::Body, static_cast<std::int32_t>(j),
                    static_cast<std::int64_t>(group.begin),
                    static_cast<std::int64_t>(group.end), 0};
        task.run = [this, j, rec] {
            Group &g = _groups[j];
            State state = j == 0 ? _initialState : *g.specStart;
            ComputeContext context{_config.innerThreads, false};
            exec::Work work =
                runRange(g.begin, g.end, state, rec->outputs, context,
                         &rec->checkpoint, g.checkpointPos);
            work.units += _config.stateCloneCost;
            rec->workDone = work.units;
            rec->finalState = std::move(state);
            return work;
        };
        task.onComplete = [this, j, rec] {
            Group &g = _groups[j];
            if (g.status == GroupStatus::Squashed ||
                !rec->finalState.has_value()) {
                *rec = {}; // Squashed / cancelled.
                return;
            }
            ++_stats.stateClones;
            _stats.bodyWorkSeconds += rec->workDone;
            g.outputs = std::move(rec->outputs);
            g.finalState = std::move(rec->finalState);
            g.checkpointState = std::move(rec->checkpoint);
            g.status = GroupStatus::BodyDone;
            *rec = {};
            _stats.invocations +=
                static_cast<std::int64_t>(g.end - g.begin);
            if (j == _frontier && (j == 0 || g.startValidated))
                commitFrom(j);
        };
        return task;
    }

    /** Commit group j and cascade through already-finished groups. */
    void
    commitFrom(std::size_t j)
    {
        while (j < _groups.size()) {
            Group &group = _groups[j];
            if (group.status != GroupStatus::BodyDone ||
                (j != 0 && !group.startValidated)) {
                break;
            }
            group.status = GroupStatus::Committed;
            group.originalFinals.push_back(*group.finalState);
            traceEvent(obs::EventType::Commit, j, group.begin,
                       group.end);
            if (_session.engaged()) {
                replayMark(
                    _session.commit(static_cast<std::int32_t>(j)), j,
                    group.begin, group.end);
            }
            _frontier = j + 1;
            traceEvent(obs::EventType::FrontierAdvance, j, group.begin,
                       group.end,
                       static_cast<std::int64_t>(_frontier));
            submitNextWindowGroup();
            if (_frontier >= _groups.size())
                return; // All inputs processed speculatively.
            validate(_frontier);
            // validate() may have cascaded into nested commits (when
            // the frontier group was already BodyDone); re-read the
            // frontier and only continue if there is fresh work.
            if (_aborted || _frontier >= _groups.size())
                return;
            Group &next = _groups[_frontier];
            if (!next.startValidated ||
                next.status != GroupStatus::BodyDone) {
                return; // Pending aux/body/mismatch, or already done.
            }
            j = _frontier;
        }
    }

    void
    submitNextWindowGroup()
    {
        if (_nextToSubmit < _groups.size() && !_aborted) {
            submitAux(_nextToSubmit);
            ++_nextToSubmit;
        }
    }

    /**
     * Check group j's speculative start against the committed
     * predecessor's set of original final states.
     */
    void
    validate(std::size_t j)
    {
        Group &group = _groups[j];
        Group &producer = _groups[j - 1];
        if (group.startValidated || _aborted)
            return;
        if (!group.specStart.has_value()) {
            _pendingValidation = static_cast<std::ptrdiff_t>(j);
            return; // Aux still running; retried on its completion.
        }
        _pendingValidation = -1;

        int matched =
            _match ? _match(*group.specStart, producer.originalFinals)
                   : 0; // No comparison fn: valid by construction.
        // Record/replay: the verdict is the engine's central
        // nondeterministic choice point. The session may override it —
        // with a fault-forced mismatch, or with the logged verdict
        // during replay — and the overridden value is what the rest of
        // the engine (and the ValidateMatch/Mismatch events) sees.
        if (_session.engaged()) {
            const replay::VerdictOutcome outcome = _session.matchVerdict(
                static_cast<std::int32_t>(j), matched);
            if (outcome.faultInjected) {
                traceEvent(obs::EventType::FaultInjected, j,
                           group.begin, group.end, outcome.faultKind);
            }
            replayMark(outcome.diverged, j, group.begin, group.end);
            matched = outcome.verdict;
        }
        if (matched >= 0) {
            traceEvent(obs::EventType::ValidateMatch, j, group.begin,
                       group.end, matched);
            acceptSpeculation(j, static_cast<std::size_t>(matched));
            return;
        }

        ++_stats.mismatches;
        traceEvent(obs::EventType::ValidateMismatch, j, group.begin,
                   group.end, producer.reexecsDone);
        if (producer.reexecsDone < _config.maxReexecutions) {
            submitReexecution(j - 1);
        } else {
            abortSpeculation(j);
        }
    }

    void
    acceptSpeculation(std::size_t j, std::size_t matched_index)
    {
        Group &producer = _groups[j - 1];
        // If a re-execution's final state matched, that re-execution's
        // tail outputs are the committed ones for the producer.
        if (matched_index > 0) {
            auto &tail = producer.reexecTails[matched_index - 1];
            const std::size_t tail_begin =
                producer.checkpointPos - producer.begin;
            producer.outputs.resize(tail_begin);
            for (auto &out : tail)
                producer.outputs.push_back(std::move(out));
        }
        Group &group = _groups[j];
        group.startValidated = true;
        ++_stats.validations;
        if (group.status == GroupStatus::BodyDone)
            commitFrom(j);
    }

    /** Re-execute the last b inputs of committed group `p`. */
    void
    submitReexecution(std::size_t p)
    {
        Group &producer = _groups[p];
        ++producer.reexecsDone;
        ++_stats.reexecutions;
        // The rollback decision: the producer goes back b inputs (to
        // its checkpoint) before re-executing.
        traceEvent(obs::EventType::Rollback, p, producer.checkpointPos,
                   producer.end, producer.reexecsDone);
        if (_session.engaged()) {
            replayMark(_session.reexecution(static_cast<std::int32_t>(p),
                                            producer.reexecsDone),
                       p, producer.checkpointPos, producer.end);
        }

        TaskRec *rec = &producer.task;
        exec::Task task;
        task.width = _config.innerThreads;
        task.tag = {obs::TaskKind::ReExec,
                    static_cast<std::int32_t>(p),
                    static_cast<std::int64_t>(producer.checkpointPos),
                    static_cast<std::int64_t>(producer.end),
                    producer.reexecsDone};
        task.run = [this, p, rec] {
            Group &g = _groups[p];
            // Roll back to the checkpoint; nondeterminism may yield a
            // different final state this time.
            State state = g.checkpointPos == g.begin && p == 0
                              ? _initialState
                              : (g.checkpointPos == g.begin
                                     ? *g.specStart
                                     : *g.checkpointState);
            ComputeContext context{_config.innerThreads, false};
            exec::Work work = runRange(g.checkpointPos, g.end, state,
                                       rec->outputs, context);
            work.units += _config.stateCloneCost;
            rec->workDone = work.units;
            rec->finalState = std::move(state);
            return work;
        };
        task.onComplete = [this, p, rec] {
            Group &g = _groups[p];
            ++_stats.stateClones;
            _stats.bodyWorkSeconds += rec->workDone;
            _stats.invocations +=
                static_cast<std::int64_t>(g.end - g.checkpointPos);
            g.originalFinals.push_back(std::move(*rec->finalState));
            g.reexecTails.push_back(std::move(rec->outputs));
            *rec = {};
            validate(p + 1);
        };
        _executor.submit(std::move(task));
    }

    /** Squash groups >= j and restart sequentially (paper sec. 3.1). */
    void
    abortSpeculation(std::size_t j)
    {
        _aborted = true;
        _abortGroup = j;
        ++_stats.aborts;
        traceEvent(obs::EventType::Abort, j, _groups[j].begin,
                   _inputs.size(), static_cast<std::int64_t>(j));
        if (_session.engaged()) {
            replayMark(
                _session.abortSpeculation(static_cast<std::int32_t>(j)),
                j, _groups[j].begin, _inputs.size());
        }
        for (std::size_t g = j; g < _groups.size(); ++g) {
            if (_groups[g].status != GroupStatus::Committed) {
                _groups[g].status = GroupStatus::Squashed;
                if (_groups[g].cancel)
                    _groups[g].cancel->store(true);
                ++_stats.squashedGroups;
                traceEvent(obs::EventType::Squash, g, _groups[g].begin,
                           _groups[g].end,
                           static_cast<std::int64_t>(j));
                if (_session.engaged()) {
                    replayMark(
                        _session.squash(static_cast<std::int32_t>(g),
                                        static_cast<std::int32_t>(j)),
                        g, _groups[g].begin, _groups[g].end);
                }
            }
        }

        // Restart from the *first* original state of the previous
        // group; no further speculation for the current inputs.
        const std::size_t restart_begin = _groups[j].begin;
        const std::size_t n = _inputs.size();
        _stats.sequentialInputs +=
            static_cast<std::int64_t>(n - restart_begin);

        TaskRec *rec = &_sequentialTask;
        exec::Task task;
        task.width = _config.innerThreads;
        task.tag = {obs::TaskKind::Recovery,
                    static_cast<std::int32_t>(j),
                    static_cast<std::int64_t>(restart_begin),
                    static_cast<std::int64_t>(n), 0};
        task.run = [this, j, rec] {
            State state = _groups[j - 1].originalFinals.front();
            ComputeContext context{_config.innerThreads, false};
            exec::Work work = runRange(_groups[j].begin,
                                       _inputs.size(), state,
                                       rec->outputs, context);
            work.units += _config.stateCloneCost;
            rec->workDone = work.units;
            return work;
        };
        task.onComplete = [this, rec] {
            ++_stats.stateClones;
            _stats.bodyWorkSeconds += rec->workDone;
            _recoveryOutputs = std::move(rec->outputs);
            *rec = {};
            _stats.invocations +=
                static_cast<std::int64_t>(_recoveryOutputs.size());
        };
        _executor.submit(std::move(task));
    }

    void
    assembleOutputs()
    {
        _finalOutputs.clear();
        if (_conventional) {
            _finalOutputs = std::move(_conventionalOutputs);
            return;
        }
        for (auto &group : _groups) {
            if (group.status != GroupStatus::Committed)
                break;
            for (auto &out : group.outputs)
                _finalOutputs.push_back(std::move(out));
        }
        for (auto &out : _recoveryOutputs)
            _finalOutputs.push_back(std::move(out));
        if (_finalOutputs.size() != _inputs.size()) {
            support::panic("SpecEngine produced ", _finalOutputs.size(),
                           " outputs for ", _inputs.size(), " inputs");
        }
    }

    exec::Executor &_executor;
    replay::ReplaySession &_session;
    const std::vector<Input> &_inputs;
    State _initialState;
    ComputeFn _compute;
    ComputeFn _auxiliary;
    MatchFn _match;
    BatchAuxFn _batchAux;
    SpecConfig _config;

    std::vector<Group> _groups;
    std::size_t _frontier = 0;
    std::size_t _nextToSubmit = 0;
    std::ptrdiff_t _pendingValidation = -1;
    bool _aborted = false;
    std::size_t _abortGroup = 0;
    bool _started = false;
    bool _conventional = false;

    /** The conventional run's or the squash-recovery run's slot. */
    TaskRec _sequentialTask;

    std::vector<std::unique_ptr<Output>> _conventionalOutputs;
    std::vector<std::unique_ptr<Output>> _recoveryOutputs;
    std::vector<std::unique_ptr<Output>> _finalOutputs;
    EngineStats _stats;
};

} // namespace stats::sdi
