#include "observability/summary.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "support/json.hpp"
#include "support/table.hpp"

namespace stats::obs {

TraceSummary
summarizeTrace(const std::vector<Event> &events,
               std::uint64_t dropped_events)
{
    TraceSummary summary;
    summary.droppedEvents = dropped_events;

    std::set<std::int32_t> groups;
    // Last body-or-reexec end time per group (for frontier stall).
    std::map<std::int32_t, double> last_body_end;
    // Commit time per group (for validation latency of group + 1).
    std::map<std::int32_t, double> commit_ts;

    std::map<std::int32_t, double> span_begin; // Keyed by track.

    for (const Event &event : events) {
        ++summary.counts[static_cast<std::size_t>(event.type)];
        if (event.group >= 0)
            groups.insert(event.group);

        if (isSpanStart(event.type)) {
            span_begin[event.track] = event.ts;
            continue;
        }
        if (isSpanEnd(event.type)) {
            const auto it = span_begin.find(event.track);
            const double duration =
                it != span_begin.end() ? event.ts - it->second : 0.0;
            switch (event.type) {
              case EventType::AuxEnd:
                summary.auxSeconds += duration;
                break;
              case EventType::BodyEnd:
                summary.bodySeconds += duration;
                last_body_end[event.group] = event.ts;
                break;
              case EventType::ReExecEnd:
                summary.reexecSeconds += duration;
                last_body_end[event.group] = event.ts;
                break;
              case EventType::RecoveryEnd:
                summary.recoverySeconds += duration;
                break;
              default:
                break;
            }
            continue;
        }

        switch (event.type) {
          case EventType::Commit: {
            commit_ts[event.group] = event.ts;
            const auto body = last_body_end.find(event.group);
            if (body != last_body_end.end())
                summary.frontierStallSeconds +=
                    std::max(0.0, event.ts - body->second);
            break;
          }
          case EventType::ValidateMatch: {
            const auto producer = commit_ts.find(event.group - 1);
            if (producer != commit_ts.end()) {
                const double latency =
                    std::max(0.0, event.ts - producer->second);
                summary.validationLatencyTotal += latency;
                summary.validationLatencyMax =
                    std::max(summary.validationLatencyMax, latency);
                ++summary.validationLatencyCount;
            }
            break;
          }
          default:
            break;
        }
    }

    summary.groupsSeen = static_cast<std::int64_t>(groups.size());

    const double commits =
        static_cast<double>(summary.count(EventType::Commit));
    const double squashes =
        static_cast<double>(summary.count(EventType::Squash));
    if (commits + squashes > 0.0) {
        summary.commitRate = commits / (commits + squashes);
        summary.squashRate = squashes / (commits + squashes);
    }
    if (summary.groupsSeen > 0) {
        summary.reexecsPerGroup =
            static_cast<double>(summary.count(EventType::ReExecStart)) /
            static_cast<double>(summary.groupsSeen);
    }
    return summary;
}

void
writeSummaryJson(std::ostream &out, const TraceSummary &summary,
                 bool pretty)
{
    support::JsonWriter json(out, pretty);
    json.beginObject();
    json.field("schemaVersion", kSchemaVersion);

    json.key("events").beginObject();
    for (int i = 0; i < kEventTypeCount; ++i) {
        const auto type = static_cast<EventType>(i);
        json.field(eventTypeName(type), summary.count(type));
    }
    json.endObject();

    json.field("groupsSeen", summary.groupsSeen)
        .field("commits", summary.count(EventType::Commit))
        .field("squashes", summary.count(EventType::Squash))
        .field("commitRate", summary.commitRate)
        .field("squashRate", summary.squashRate)
        .field("reexecsPerGroup", summary.reexecsPerGroup)
        .field("frontierStallSeconds", summary.frontierStallSeconds)
        .field("validationLatencyMeanSeconds",
               summary.validationLatencyMean())
        .field("validationLatencyMaxSeconds", summary.validationLatencyMax)
        .field("auxSeconds", summary.auxSeconds)
        .field("bodySeconds", summary.bodySeconds)
        .field("reexecSeconds", summary.reexecSeconds)
        .field("recoverySeconds", summary.recoverySeconds)
        .field("droppedEvents",
               static_cast<std::int64_t>(summary.droppedEvents));
    json.endObject();
    out << "\n";
}

void
printSummaryTable(std::ostream &out, const TraceSummary &summary)
{
    support::TextTable table({"metric", "value"});
    const auto fmt = [](double v) {
        return support::TextTable::formatDouble(v, 6);
    };
    table.addRow({"groups seen", std::to_string(summary.groupsSeen)});
    table.addRow({"commits",
                  std::to_string(summary.count(EventType::Commit))});
    table.addRow({"squashes",
                  std::to_string(summary.count(EventType::Squash))});
    table.addRow({"validate matches",
                  std::to_string(summary.count(EventType::ValidateMatch))});
    table.addRow(
        {"validate mismatches",
         std::to_string(summary.count(EventType::ValidateMismatch))});
    table.addRow({"re-executions",
                  std::to_string(summary.count(EventType::ReExecStart))});
    table.addRow({"aborts",
                  std::to_string(summary.count(EventType::Abort))});
    table.addRow({"commit rate", fmt(summary.commitRate)});
    table.addRow({"squash rate", fmt(summary.squashRate)});
    table.addRow({"re-execs / group", fmt(summary.reexecsPerGroup)});
    table.addRow({"frontier stall (s)", fmt(summary.frontierStallSeconds)});
    table.addRow({"validation latency mean (s)",
                  fmt(summary.validationLatencyMean())});
    table.addRow({"validation latency max (s)",
                  fmt(summary.validationLatencyMax)});
    table.addRow({"aux time (s)", fmt(summary.auxSeconds)});
    table.addRow({"body time (s)", fmt(summary.bodySeconds)});
    table.addRow({"re-exec time (s)", fmt(summary.reexecSeconds)});
    table.addRow({"recovery time (s)", fmt(summary.recoverySeconds)});
    table.addRow({"worker parks",
                  std::to_string(summary.count(EventType::WorkerPark))});
    table.addRow({"worker unparks",
                  std::to_string(summary.count(EventType::WorkerUnpark))});
    table.addRow({"dropped events",
                  std::to_string(summary.droppedEvents)});
    table.print(out);
}

} // namespace stats::obs
