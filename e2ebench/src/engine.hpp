/**
 * @file
 * The engine workloads: STATS runs of a paper benchmark kernel on
 * real threads, start() to join(), against a plain sequential loop
 * over the same closure.
 */

#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace e2ebench {

/**
 * Run `sdi-coarse` (swaptions) or `sdi-misspec` (fluidanimate) for
 * `seconds`. With `spans`, every other STATS run is traced and the
 * report's per-layer metrics are filled in.
 */
Report runEngineWorkload(const std::string &workload, std::uint64_t seed,
                         double seconds, SpanLog *spans);

/**
 * Self-test of the engine correctness check: fluidanimate with a
 * matcher that accepts every speculative state commits auxiliary
 * states the full-history dependence never reproduces, and the
 * quality band must reject those runs. Returns "" on success.
 */
std::string checkEngineBandRejectsBadOutput(std::uint64_t seed);

} // namespace e2ebench
