#include "replay/session.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "support/log.hpp"

namespace stats::replay {

namespace {

/** "sdThreads 4 → 8, inputCount 32 → 34": each field that differs. */
std::string
configChanges(const RunConfigRecord &expected,
              const RunConfigRecord &actual)
{
    using Field = std::int64_t RunConfigRecord::*;
    static constexpr std::pair<const char *, Field> kFields[] = {
        {"useAuxiliary", &RunConfigRecord::useAuxiliary},
        {"groupSize", &RunConfigRecord::groupSize},
        {"auxWindow", &RunConfigRecord::auxWindow},
        {"maxReexecutions", &RunConfigRecord::maxReexecutions},
        {"rollbackDepth", &RunConfigRecord::rollbackDepth},
        {"sdThreads", &RunConfigRecord::sdThreads},
        {"innerThreads", &RunConfigRecord::innerThreads},
        {"inputCount", &RunConfigRecord::inputCount},
    };
    std::string out;
    for (const auto &[name, field] : kFields) {
        if (expected.*field == actual.*field)
            continue;
        out += (out.empty() ? "" : ", ") + std::string(name) + " " +
               std::to_string(expected.*field) + " → " +
               std::to_string(actual.*field);
    }
    return out;
}

} // namespace

std::string
Divergence::describe() const
{
    std::ostringstream out;
    out << "run " << run << " epoch " << epoch << ": expected "
        << recordKindName(expectedKind);
    if (expectedGroup >= 0)
        out << " group " << expectedGroup;
    if (expectedKind == RecordKind::MatchVerdict ||
        expectedKind == RecordKind::Reexec ||
        expectedKind == RecordKind::FaultInjected ||
        expectedValue != actualValue) {
        out << " (value " << expectedValue << ")";
    }
    out << ", got " << recordKindName(actualKind);
    if (actualGroup >= 0)
        out << " group " << actualGroup;
    if (expectedValue != actualValue)
        out << " (value " << actualValue << ")";
    if (expectedKind == RecordKind::RunBegin &&
        actualKind == RecordKind::RunBegin) {
        const auto expected = decodeConfig(expectedPayload);
        const auto actual = decodeConfig(actualPayload);
        if (expected && actual && *expected != *actual)
            out << ": " << configChanges(*expected, *actual);
    }
    return out.str();
}

ReplaySession &
ReplaySession::global()
{
    static ReplaySession session;
    return session;
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

void
ReplaySession::startRecording(std::uint64_t root_seed)
{
    _log = RecordLog{};
    _log.rootSeed = root_seed;
    _run = 0;
    _epoch = 0;
    _runOpen = false;
    _cursor = 0;
    _matched = 0;
    _diverged = false;
    _structuralLoss = false;
    _first = Divergence{};
    _mode.store(Mode::Record, std::memory_order_relaxed);
}

void
ReplaySession::setMetadata(const std::string &key,
                           const std::string &value)
{
    _log.setMeta(key, value);
}

RecordLog
ReplaySession::finishRecording()
{
    if (mode() != Mode::Record)
        support::panic("finishRecording: session is not recording");
    _mode.store(Mode::Off, std::memory_order_relaxed);
    RecordLog out = std::move(_log);
    _log = RecordLog{};
    return out;
}

void
ReplaySession::startReplay(RecordLog log)
{
    _log = std::move(log);
    _run = 0;
    _epoch = 0;
    _runOpen = false;
    _cursor = 0;
    _matched = 0;
    _diverged = false;
    _structuralLoss = false;
    _first = Divergence{};
    _mode.store(Mode::Replay, std::memory_order_relaxed);
}

ReplayReport
ReplaySession::finishReplay()
{
    if (mode() != Mode::Replay)
        support::panic("finishReplay: session is not replaying");
    _mode.store(Mode::Off, std::memory_order_relaxed);

    // Records the execution never reached count as a divergence too:
    // the log promised more decisions than the process made.
    if (!_diverged) {
        std::size_t left = _cursor;
        while (left < _log.records.size() &&
               _log.records[left].kind == RecordKind::FaultInjected &&
               !faultsActive()) {
            ++left; // Annotation records are skippable (REPLAY.md §3).
        }
        if (left < _log.records.size()) {
            const Record &expected = _log.records[left];
            _diverged = true;
            _first.run = _run;
            _first.epoch = _epoch;
            _first.expectedKind = expected.kind;
            _first.expectedGroup = expected.group;
            _first.expectedValue = expected.a;
            _first.actualKind = RecordKind::RunEnd;
            _first.actualGroup = -1;
            _first.actualValue =
                static_cast<std::int64_t>(_log.records.size() - left);
        }
    }

    ReplayReport report;
    report.diverged = _diverged;
    report.first = _first;
    report.runsReplayed = _run;
    report.recordsMatched = _matched;
    _log = RecordLog{};
    return report;
}

void
ReplaySession::setFaultPlan(FaultPlan plan)
{
    _plan = std::move(plan);
    _faultsActive.store(_plan.active(), std::memory_order_relaxed);
}

std::uint64_t
ReplaySession::faultCount(FaultKind kind) const
{
    return _faultCounts[static_cast<int>(kind)].load(
        std::memory_order_relaxed);
}

void
ReplaySession::countExternalFault(FaultKind kind)
{
    _faultCounts[static_cast<int>(kind)].fetch_add(
        1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// The record/verify step
// ---------------------------------------------------------------------

void
ReplaySession::reportDivergence(const Record *expected,
                                const Record &actual)
{
    if (_diverged)
        return;
    _diverged = true;
    _first.run = actual.run;
    _first.epoch = actual.epoch;
    if (expected != nullptr) {
        _first.expectedKind = expected->kind;
        _first.expectedGroup = expected->group;
        _first.expectedValue = expected->a;
        _first.expectedPayload = expected->payload;
    } else {
        // Log exhausted: the recording ended before the execution did.
        _first.expectedKind = RecordKind::RunEnd;
        _first.expectedGroup = -1;
        _first.expectedValue = 0;
    }
    _first.actualKind = actual.kind;
    _first.actualGroup = actual.group;
    _first.actualValue = actual.a;
    _first.actualPayload = actual.payload;
}

void
ReplaySession::recordStep(Record record)
{
    _log.records.push_back(std::move(record));
}

bool
ReplaySession::replayStep(const Record &actual, std::int64_t *forced_a)
{
    // After a structural divergence the cursor is meaningless: the
    // execution is on a different path, so stop consuming the log and
    // let the engine's own decisions pass through.
    if (_structuralLoss)
        return false;

    // FaultInjected records are annotations, not engine decisions.
    // When replaying without the fault plan the execution never emits
    // them, so skip them here; the *consequence* of the fault (the
    // forced MatchVerdict value) is still compared — and reported as a
    // value divergence — at the next step.
    while (_cursor < _log.records.size() &&
           _log.records[_cursor].kind == RecordKind::FaultInjected &&
           actual.kind != RecordKind::FaultInjected) {
        ++_cursor;
    }

    if (_cursor >= _log.records.size()) {
        const bool fresh = !_diverged;
        reportDivergence(nullptr, actual);
        _structuralLoss = true;
        return fresh;
    }

    const Record &expected = _log.records[_cursor];
    if (expected.kind != actual.kind ||
        expected.group != actual.group) {
        const bool fresh = !_diverged;
        reportDivergence(&expected, actual);
        _structuralLoss = true;
        return fresh;
    }

    ++_cursor;
    bool fresh_divergence = false;
    if (expected.a != actual.a || expected.b != actual.b ||
        expected.payload != actual.payload) {
        fresh_divergence = !_diverged;
        reportDivergence(&expected, actual);
    } else {
        ++_matched;
    }
    // Force the logged value so execution stays on the recorded path
    // even past a value divergence.
    if (forced_a != nullptr)
        *forced_a = expected.a;
    return fresh_divergence;
}

bool
ReplaySession::step(RecordKind kind, std::int32_t group, std::int64_t a,
                    std::int64_t b, std::vector<std::int64_t> payload,
                    std::int64_t *forced_a)
{
    Record record;
    record.kind = kind;
    record.run = _run;
    record.epoch = _epoch++;
    record.group = group;
    record.a = a;
    record.b = b;
    record.payload = std::move(payload);

    switch (mode()) {
      case Mode::Record:
        recordStep(std::move(record));
        return false;
      case Mode::Replay:
        return replayStep(record, forced_a);
      case Mode::Off:
        return false;
    }
    return false;
}

// ---------------------------------------------------------------------
// Engine hooks
// ---------------------------------------------------------------------

bool
ReplaySession::engineRunBegin(const RunConfigRecord &config)
{
    if (!engaged())
        return false;
    _epoch = 0;
    _runOpen = true;
    return step(RecordKind::RunBegin, -1, 0, 0, encodeConfig(config),
                nullptr);
}

VerdictOutcome
ReplaySession::matchVerdict(std::int32_t group, int computed)
{
    VerdictOutcome out;
    out.verdict = computed;
    if (!engaged())
        return out;

    // Fault injection first: the forced verdict is what gets recorded,
    // so a faulty recording replays exactly under the same plan. The
    // verdict is the matched-original index; -1 means mismatch, so a
    // forced mismatch only fires when the check would have matched.
    if (faultsActive() && computed >= 0) {
        const bool listed =
            std::find(_plan.mismatchGroups.begin(),
                      _plan.mismatchGroups.end(),
                      group) != _plan.mismatchGroups.end();
        if (listed || _plan.forcesMismatch(_run, group)) {
            out.verdict = -1;
            out.faultInjected = true;
            out.faultKind = static_cast<std::int64_t>(
                listed ? FaultKind::ForcedMismatch
                       : FaultKind::StormMismatch);
            _faultCounts[out.faultKind].fetch_add(
                1, std::memory_order_relaxed);
            out.diverged |= step(RecordKind::FaultInjected, group,
                                 out.faultKind, computed, {}, nullptr);
        }
    }

    std::int64_t forced = out.verdict;
    out.diverged |=
        step(RecordKind::MatchVerdict, group, out.verdict,
             out.faultInjected ? 1 : 0, {}, &forced);
    if (mode() == Mode::Replay)
        out.verdict = static_cast<int>(forced);
    return out;
}

bool
ReplaySession::corruptSpecState(std::int32_t group)
{
    if (!faultsActive())
        return false;
    if (!_plan.corruptsSpecState(_run, group))
        return false;
    _faultCounts[static_cast<int>(FaultKind::CorruptState)].fetch_add(
        1, std::memory_order_relaxed);
    step(RecordKind::FaultInjected, group,
         static_cast<std::int64_t>(FaultKind::CorruptState), 0, {},
         nullptr);
    return true;
}

bool
ReplaySession::reexecution(std::int32_t group, int attempt)
{
    if (!engaged())
        return false;
    return step(RecordKind::Reexec, group, attempt, 0, {}, nullptr);
}

bool
ReplaySession::commit(std::int32_t group)
{
    if (!engaged())
        return false;
    return step(RecordKind::Commit, group, 0, 0, {}, nullptr);
}

bool
ReplaySession::squash(std::int32_t group, std::int32_t aborting_group)
{
    if (!engaged())
        return false;
    return step(RecordKind::Squash, group, aborting_group, 0, {},
                nullptr);
}

bool
ReplaySession::abortSpeculation(std::int32_t group)
{
    if (!engaged())
        return false;
    return step(RecordKind::Abort, group, group, 0, {}, nullptr);
}

bool
ReplaySession::engineRunEnd(const RunStatsRecord &stats)
{
    if (!engaged())
        return false;
    const bool diverged = step(RecordKind::RunEnd, -1, 0, 0,
                               encodeStats(stats), nullptr);
    _runOpen = false;
    ++_run;
    return diverged;
}

// ---------------------------------------------------------------------
// Executor / autotuner hooks
// ---------------------------------------------------------------------

double
ReplaySession::taskStallSeconds(int task_kind, std::int32_t group) const
{
    if (!faultsActive())
        return 0.0;
    return _plan.stallSeconds(task_kind, group);
}

double
ReplaySession::mistrainObjective(double objective)
{
    if (!faultsActive() || _plan.mistrainAmplitude <= 0.0)
        return objective;
    const std::uint64_t evaluation =
        _mistrainEvaluations.fetch_add(1, std::memory_order_relaxed);
    _faultCounts[static_cast<int>(FaultKind::Mistrain)].fetch_add(
        1, std::memory_order_relaxed);
    return objective * _plan.mistrainFactor(evaluation);
}

} // namespace stats::replay
