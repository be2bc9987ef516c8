/**
 * @file
 * Aggregation of a collected trace into the speculation metrics the
 * evaluation cares about: commit/squash rates, re-executions per
 * group, frontier stall time, validation latency, and per-kind work
 * time. The same numbers can be dumped as JSON (the `--metrics`
 * file) or printed as a table.
 *
 * Every derived quantity is defined in docs/OBSERVABILITY.md
 * ("Derived metrics"); tests reconcile the counts against the
 * engine's own EngineStats counters.
 */

#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "observability/trace.hpp"

namespace stats::obs {

/** Metrics derived from one collected trace. */
struct TraceSummary
{
    /** Event count per EventType (indexed by the enum value). */
    std::array<std::int64_t, kEventTypeCount> counts{};

    /** Distinct group indices seen in group-scoped events. */
    std::int64_t groupsSeen = 0;

    /** Commits / (commits + squashes): the commit rate. */
    double commitRate = 1.0;

    /** Squashes / (commits + squashes). */
    double squashRate = 0.0;

    /** Re-executions per group seen. */
    double reexecsPerGroup = 0.0;

    /**
     * Sum over committed groups of (commit time - the group's last
     * body/re-execution end): time the commit frontier sat on a
     * finished body waiting for validation.
     */
    double frontierStallSeconds = 0.0;

    /**
     * Per consumer group: time from the producer's Commit to the
     * consumer's ValidateMatch (covers waiting on auxiliary results
     * and producer re-executions).
     */
    double validationLatencyTotal = 0.0;
    double validationLatencyMax = 0.0;
    std::int64_t validationLatencyCount = 0;

    /** Span time per task kind, seconds (virtual or wall). */
    double auxSeconds = 0.0;
    double bodySeconds = 0.0;
    double reexecSeconds = 0.0;
    double recoverySeconds = 0.0;

    /** Ring-buffer overwrites at collection time. */
    std::uint64_t droppedEvents = 0;

    std::int64_t count(EventType type) const
    {
        return counts[static_cast<std::size_t>(type)];
    }

    double
    validationLatencyMean() const
    {
        return validationLatencyCount > 0
                   ? validationLatencyTotal / validationLatencyCount
                   : 0.0;
    }
};

/** Aggregate a seq-sorted event list (as returned by collect()). */
TraceSummary summarizeTrace(const std::vector<Event> &events,
                            std::uint64_t dropped_events = 0);

/** The `--metrics` JSON document: summary + per-type counts. */
void writeSummaryJson(std::ostream &out, const TraceSummary &summary,
                      bool pretty = true);

/** Plain-text summary (support::TextTable layout). */
void printSummaryTable(std::ostream &out, const TraceSummary &summary);

} // namespace stats::obs
