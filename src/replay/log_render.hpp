/**
 * @file
 * Text rendering of record logs: the single source of the line
 * formats `statscc log inspect` and `statscc log diff` print.
 *
 * Kept out of the driver so the formats can be golden-tested
 * (tests/replay_diff_golden_test.cpp): the renderers return strings
 * byte-identical to what the driver writes to stdout.
 */

#pragma once

#include <string>

#include "replay/record_log.hpp"

namespace stats::replay {

/** One record listing line, trailing newline included. */
std::string renderRecord(const Record &record);

struct DiffRender
{
    /** Exactly what `statscc log diff a b` prints. */
    std::string text;

    /** True when the logs match (the driver's exit-0 condition). */
    bool identical = false;
};

/** Compare two logs the way `statscc log diff` does. */
DiffRender renderDiff(const RecordLog &a, const RecordLog &b);

} // namespace stats::replay
