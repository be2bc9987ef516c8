/**
 * @file
 * The serving workload: a closed loop of clients against an
 * in-process statsd daemon over its unix socket, each request timed
 * from the submit frame to the received result bytes.
 */

#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace e2ebench {

/**
 * Run `serve-mix` for `seconds` with the daemon's socket in
 * `work_dir`. With `spans`, the second half of the run is traced and
 * the report's per-layer metrics are filled in.
 */
Report runServeWorkload(std::uint64_t seed, double seconds,
                        const std::string &work_dir, SpanLog *spans);

/**
 * Replay the serve-mix plan stream on one thread through the public
 * serving stages (plan codec, admission, scheduler, runner) and add
 * each stage's median cost to the per-layer metrics.
 */
void addServingStageSplit(std::uint64_t seed, Report &report);

/**
 * Self-test of the served-result check: it must pass genuine result
 * blobs and reject one with a flipped byte. Returns "" on success.
 */
std::string checkServeVerifierRejectsCorruptBlob(std::uint64_t seed);

} // namespace e2ebench
