/**
 * @file
 * Shared pieces of the end-to-end benchmark: the clock, quantiles,
 * the result line every workload prints, and the in-memory span log
 * of traced runs.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - begin).count();
}

/** Linearly interpolated quantile (q in [0, 1]); 0 for no samples. */
double quantile(std::vector<double> samples, double q);

inline double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

/** `num / den`, or 0 when there is nothing to divide by. */
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every end-to-end metric; each workload measures all of them. */
extern const std::vector<MetricDef> kEndToEnd;

/**
 * Every per-layer metric. A workload whose path does not reach a
 * layer reports 0 for that layer's counts and shares.
 */
extern const std::vector<MetricDef> kPerLayer;

/** What one run of one workload reports, by metric name. */
struct Report
{
    /** Operations attempted and those failed, rejected or wrong. */
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;
};

/**
 * Print the result line with the end-to-end or the per-layer metrics.
 * Returns an error when the report misses an end-to-end metric or
 * names one that is not declared.
 */
std::string printResult(const Report &report, bool per_layer);

/**
 * Time `set_up` `reps` times and return the median in seconds. The
 * last result is kept in `out`, so the measured phase starts from a
 * set-up exactly like the ones that were timed.
 */
template <class T, class F>
double
medianSetupSeconds(int reps, T &out, F &&set_up)
{
    std::vector<double> seconds;
    for (int i = 0; i < reps; ++i) {
        out = T(); // Tear-down of the previous set-up is not timed.
        const auto begin = Clock::now();
        out = set_up();
        seconds.push_back(msBetween(begin, Clock::now()) / 1e3);
    }
    return median(seconds);
}

/**
 * Spans recorded around the calls into each layer. Every thread
 * appends to its own buffer, so recording takes no lock after a
 * thread's first span; `spans()` may only be read once the recording
 * threads are quiescent. Nothing leaves memory until `writeChrome`.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name = "";
        /** Name of the span that caused this one ("" at the top). */
        const char *parent = "";
        /** Operation (engine run or request) the span belongs to. */
        std::uint64_t op = 0;
        std::int64_t beginNs = 0;
        std::int64_t endNs = 0;
        std::uint32_t thread = 0;
    };

    SpanLog();

    /** Nanoseconds since the log was created. */
    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - _origin)
            .count();
    }

    void record(const char *name, const char *parent, std::uint64_t op,
                std::int64_t begin_ns, std::int64_t end_ns);

    /** Every span so far, thread by thread. */
    std::vector<Span> spans() const;

    /** Total duration of the spans named `name`, in ms. */
    double totalMs(const char *name) const;

    /** Write the spans as a Chrome trace (chrome://tracing). */
    bool writeChrome(const std::string &path) const;

  private:
    struct Buffer
    {
        std::uint32_t thread = 0;
        std::vector<Span> spans;
    };

    Buffer &threadBuffer();

    const Clock::time_point _origin;
    /** Distinguishes this log from earlier ones in thread caches. */
    const std::uint64_t _generation;
    mutable std::mutex _mutex;
    std::vector<std::unique_ptr<Buffer>> _buffers; ///< Guarded by _mutex.
};

} // namespace e2ebench
