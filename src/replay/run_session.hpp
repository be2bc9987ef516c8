/**
 * @file
 * The run session: the one lifecycle of a seeded, observable,
 * reproducible run, shared by `statscc run`/`tune`/`trace` and every
 * figure harness. It reads these options of a parsed command line:
 *
 *   --trace=FILE    export the run's events as chrome://tracing JSON
 *   --metrics=FILE  export the trace-derived metrics JSON
 *   --seed=N        root seed (0 = entropy, unpinned)
 *   --record=FILE   record the engine's choice points (docs/REPLAY.md);
 *                   an unseeded recording is pinned to seed 1
 *   --replay=FILE   re-drive the run from a recording; the recorded
 *                   root seed wins, and a divergence is exit 1
 *   --faults=PLAN   inject faults (spec string or file; grammar in
 *                   docs/REPLAY.md §4)
 *
 * Lifecycle:
 *  1. The constructor validates the options, enables the global
 *     trace for --trace/--metrics, installs the fault plan, and loads
 *     the replay log. A malformed seed or plan is a usage error
 *     (exit 1) before any work runs.
 *  2. The caller may read recorded defaults (recorded()).
 *  3. start() begins recording or replaying on
 *     ReplaySession::global() and returns the effective root seed.
 *     The caller applies that seed its own way and writes its own
 *     record metadata (setMetadata()).
 *  4. finish() exports the trace and metrics, prints the trace
 *     summary, saves the recording or judges the replay, and returns
 *     the process exit code.
 *
 * Every note the session prints goes to stderr, so stdout carries
 * only the caller's own output.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "observability/summary.hpp"
#include "observability/trace.hpp"
#include "replay/record_log.hpp"
#include "support/cli_args.hpp"

namespace stats::replay {

/**
 * Turn the global trace on before the work it should observe; a
 * usage error naming `requester` when tracing is compiled out.
 */
void enableTrace(const std::string &requester);

/** The events the global trace holds, and the metrics they derive. */
struct TraceCapture
{
    std::vector<obs::Event> events;
    obs::TraceSummary summary;

    static TraceCapture collect();

    /** Write the chrome://tracing JSON to `path` (exit 1 on error). */
    void writeChrome(const std::string &path) const;
};

class RunSession
{
  public:
    /** The option keys a session reads. */
    static const std::vector<std::string> &options();

    explicit RunSession(const support::CliArgs &args);

    RunSession(const RunSession &) = delete;
    RunSession &operator=(const RunSession &) = delete;

    /**
     * The value of `--key`; on replay, an option the command line
     * omits falls back to what the recording stored under `key`.
     */
    std::string recorded(const support::CliArgs &args,
                         const std::string &key,
                         const std::string &fallback) const;

    /**
     * Begin recording or replaying; returns the effective root seed:
     * the recording's on replay, else --seed, else `default_seed`
     * (pinned to 1 when recording would otherwise draw entropy).
     */
    std::uint64_t start(std::uint64_t default_seed);

    /** Attach metadata to the recording; a no-op unless recording. */
    void setMetadata(const std::string &key, const std::string &value);

    /** Export, save or judge; the exit code (1 = replay diverged). */
    int finish();

  private:
    bool recording() const { return !_recordPath.empty(); }
    bool replaying() const { return !_replayPath.empty(); }

    std::string _tracePath;
    std::string _metricsPath;
    std::string _recordPath;
    std::string _replayPath;
    std::optional<std::uint64_t> _seed; ///< --seed, when given.
    RecordLog _log;                     ///< Loaded; consumed by start().
};

} // namespace stats::replay
