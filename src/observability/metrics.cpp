#include "observability/metrics.hpp"

#include <cmath>
#include <limits>

#include "support/json.hpp"

namespace stats::obs {

namespace {

/** Base-10 log bucketing, 9 buckets per decade (1,2,..,9,10,20,..). */
int
bucketIndex(double v)
{
    if (v <= 0.0)
        return std::numeric_limits<int>::min() / 2;
    const double exponent = std::floor(std::log10(v));
    const double base = std::pow(10.0, exponent);
    int mantissa = static_cast<int>(std::ceil(v / base - 1e-12));
    if (mantissa > 9) { // Rounding pushed us into the next decade.
        mantissa = 1;
        return static_cast<int>(exponent + 1) * 9 + (mantissa - 1);
    }
    return static_cast<int>(exponent) * 9 + (mantissa - 1);
}

/** Upper bound of a bucket index (inverse of bucketIndex). */
double
bucketUpperBound(int index)
{
    if (index == std::numeric_limits<int>::min() / 2)
        return 0.0;
    const int decade = index >= 0 ? index / 9
                                  : -((-index + 8) / 9);
    const int mantissa = index - decade * 9 + 1;
    return mantissa * std::pow(10.0, decade);
}

} // namespace

void
Histogram::observe(double v)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_count == 0) {
        _min = v;
        _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    ++_count;
    _sum += v;
    ++_buckets[bucketIndex(v)];
}

Histogram::Snapshot
Histogram::snapshot() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    Snapshot snap;
    snap.count = _count;
    snap.sum = _sum;
    snap.min = _min;
    snap.max = _max;
    for (const auto &[index, count] : _buckets)
        snap.buckets.emplace_back(bucketUpperBound(index), count);
    return snap;
}

void
Histogram::reset()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _count = 0;
    _sum = 0.0;
    _min = 0.0;
    _max = 0.0;
    _buckets.clear();
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry instance;
    return instance;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto &slot = _counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto &slot = _gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto &slot = _histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

const Counter *
MetricsRegistry::findCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _counters.find(name);
    return it == _counters.end() ? nullptr : it->second.get();
}

const Gauge *
MetricsRegistry::findGauge(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _gauges.find(name);
    return it == _gauges.end() ? nullptr : it->second.get();
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _histograms.find(name);
    return it == _histograms.end() ? nullptr : it->second.get();
}

void
MetricsRegistry::writeJson(std::ostream &out, bool pretty) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    support::JsonWriter json(out, pretty);
    json.beginObject();
    json.field("schemaVersion", 1);

    json.key("counters").beginObject();
    for (const auto &[name, counter] : _counters)
        json.field(name, counter->value());
    json.endObject();

    json.key("gauges").beginObject();
    for (const auto &[name, gauge] : _gauges)
        json.field(name, gauge->value());
    json.endObject();

    json.key("histograms").beginObject();
    for (const auto &[name, histogram] : _histograms) {
        const auto snap = histogram->snapshot();
        json.key(name).beginObject();
        json.field("count", snap.count)
            .field("sum", snap.sum)
            .field("min", snap.min)
            .field("max", snap.max)
            .field("mean", snap.mean());
        json.key("buckets").beginArray();
        for (const auto &[bound, count] : snap.buckets) {
            json.beginObject()
                .field("le", bound)
                .field("count", count)
                .endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endObject();

    json.endObject();
    out << "\n";
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _counters.clear();
    _gauges.clear();
    _histograms.clear();
}

void
MetricsRegistry::resetValues()
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &[name, counter] : _counters)
        counter->reset();
    for (auto &[name, gauge] : _gauges)
        gauge->reset();
    for (auto &[name, histogram] : _histograms)
        histogram->reset();
}

} // namespace stats::obs
