/**
 * @file
 * The metrics registry of the observability layer: named counters,
 * gauges, and histograms, queryable programmatically and dumped as
 * JSON.
 *
 * Counters and gauges are single relaxed atomics; histograms take a
 * per-histogram mutex (they are updated off the engine's hot path —
 * by the profiler, the autotuner, and trace summarization — never
 * from inside the engine's callback-serialized transitions).
 *
 * Metric handles returned by the registry are stable for the
 * registry's lifetime, so callers hoist the lookup out of loops.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace stats::obs {

/** Monotonic integer counter. */
class Counter
{
  public:
    void add(std::int64_t delta = 1)
    {
        _value.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { _value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> _value{0};
};

/** Last-write-wins floating-point gauge. */
class Gauge
{
  public:
    void set(double v) { _value.store(v, std::memory_order_relaxed); }

    double value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { set(0.0); }

  private:
    std::atomic<double> _value{0.0};
};

/**
 * Streaming histogram over base-10 log buckets (9 per decade), plus
 * exact count/sum/min/max. Suited to latencies and work amounts that
 * span orders of magnitude.
 */
class Histogram
{
  public:
    struct Snapshot
    {
        std::int64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        /** (bucket upper bound, count) pairs, ascending, non-empty
         *  buckets only. */
        std::vector<std::pair<double, std::int64_t>> buckets;

        double mean() const { return count > 0 ? sum / count : 0.0; }
    };

    void observe(double v);
    Snapshot snapshot() const;
    void reset();

  private:
    mutable std::mutex _mutex;
    std::int64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    std::map<int, std::int64_t> _buckets; ///< Keyed by bucket index.
};

/**
 * Named metric registry. Lookup-or-create is mutex-guarded;
 * returned references remain valid until clear().
 */
class MetricsRegistry
{
  public:
    /** The process-wide default registry. */
    static MetricsRegistry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Look up without creating; nullptr when absent. */
    const Counter *findCounter(const std::string &name) const;
    const Gauge *findGauge(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    /**
     * Dump every metric as one JSON object:
     * {"counters": {...}, "gauges": {...}, "histograms": {...}}.
     */
    void writeJson(std::ostream &out, bool pretty = true) const;

    /** Remove every metric (invalidates previously returned refs). */
    void clear();

    /** Zero every metric, keeping registrations (and refs) alive. */
    void resetValues();

  private:
    mutable std::mutex _mutex;
    std::map<std::string, std::unique_ptr<Counter>> _counters;
    std::map<std::string, std::unique_ptr<Gauge>> _gauges;
    std::map<std::string, std::unique_ptr<Histogram>> _histograms;
};

} // namespace stats::obs
