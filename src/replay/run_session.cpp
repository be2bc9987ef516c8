#include "replay/run_session.hpp"

#include <fstream>
#include <iostream>

#include "observability/chrome_trace.hpp"
#include "replay/fault_plan.hpp"
#include "replay/session.hpp"
#include "support/log.hpp"

namespace stats::replay {

void
enableTrace(const std::string &requester)
{
    obs::Trace::global().enable();
    // Folds to false when the layer is compiled out.
    if (!obs::traceActive())
        support::fatal(requester,
                       " tracing compiled in "
                       "(built with STATS_OBS_DISABLE)");
}

TraceCapture
TraceCapture::collect()
{
    auto &trace = obs::Trace::global();
    TraceCapture capture;
    capture.events = trace.collect();
    capture.summary = obs::summarizeTrace(capture.events, trace.dropped());
    return capture;
}

void
TraceCapture::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        support::fatal("cannot open '", path, "'");
    obs::writeChromeTrace(out, events);
    std::cerr << "wrote " << events.size() << " trace events to " << path
              << " (load in chrome://tracing)\n";
}

const std::vector<std::string> &
RunSession::options()
{
    static const std::vector<std::string> keys{
        "trace", "metrics", "seed", "record", "replay", "faults"};
    return keys;
}

RunSession::RunSession(const support::CliArgs &args)
    : _tracePath(args.get("trace", "")),
      _metricsPath(args.get("metrics", "")),
      _recordPath(args.get("record", "")),
      _replayPath(args.get("replay", ""))
{
    if (recording() && replaying())
        support::fatal("--record and --replay are exclusive");
    if (args.has("seed"))
        _seed = args.getU64("seed", 0);
    const std::string fault_spec = args.get("faults", "");
    if (!fault_spec.empty()) {
        std::string error;
        auto plan = FaultPlan::fromSpec(fault_spec, error);
        if (!plan)
            support::fatal(error);
        ReplaySession::global().setFaultPlan(*plan);
        std::cerr << "fault plan: " << plan->describe() << "\n";
    }
    if (replaying()) {
        std::string error;
        auto log = RecordLog::loadFile(_replayPath, error);
        if (!log)
            support::fatal(_replayPath, ": ", error);
        _log = std::move(*log);
    }
    if (!_tracePath.empty() || !_metricsPath.empty())
        enableTrace("--trace/--metrics need");
}

std::string
RunSession::recorded(const support::CliArgs &args, const std::string &key,
                     const std::string &fallback) const
{
    return args.get(key, replaying() ? _log.meta(key, fallback)
                                     : fallback);
}

std::uint64_t
RunSession::start(std::uint64_t default_seed)
{
    auto &session = ReplaySession::global();
    if (replaying()) {
        const std::uint64_t seed = _log.rootSeed;
        session.startReplay(std::move(_log));
        return seed;
    }
    std::uint64_t seed = _seed.value_or(default_seed);
    if (recording()) {
        if (seed == 0) {
            // Entropy seeding cannot be reproduced; pin the run.
            seed = 1;
            std::cerr << "note: --record without --seed; pinning root "
                         "seed to 1 for determinism\n";
        }
        session.startRecording(seed);
    }
    return seed;
}

void
RunSession::setMetadata(const std::string &key, const std::string &value)
{
    if (recording())
        ReplaySession::global().setMetadata(key, value);
}

int
RunSession::finish()
{
    if (!_tracePath.empty() || !_metricsPath.empty()) {
        const TraceCapture trace = TraceCapture::collect();
        if (!_tracePath.empty())
            trace.writeChrome(_tracePath);
        if (!_metricsPath.empty()) {
            std::ofstream out(_metricsPath);
            if (!out)
                support::fatal("cannot open '", _metricsPath, "'");
            obs::writeSummaryJson(out, trace.summary);
            std::cerr << "wrote metrics to " << _metricsPath << "\n";
        }
        obs::printSummaryTable(std::cerr, trace.summary);
    }

    auto &session = ReplaySession::global();
    if (recording()) {
        const RecordLog log = session.finishRecording();
        log.saveFile(_recordPath);
        std::cerr << "recorded " << log.records.size()
                  << " choice points (" << log.runCount()
                  << " engine runs, seed " << log.rootSeed << ") to "
                  << _recordPath << "\n";
    } else if (replaying()) {
        const ReplayReport report = session.finishReplay();
        if (report.diverged) {
            std::cerr << "replay DIVERGED: " << report.first.describe()
                      << "\n";
            return 1;
        }
        std::cerr << "replay OK: matched " << report.recordsMatched
                  << " choice points across " << report.runsReplayed
                  << " engine runs\n";
    }
    return 0;
}

} // namespace stats::replay
