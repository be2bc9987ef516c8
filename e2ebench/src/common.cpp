#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace e2ebench {

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"op_ms.p50", "ms"},
    {"op_ms.p95", "ms"},
    {"ops_per_s", "1/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"seq_ms.p50", "ms"},
    {"speedup_vs_seq", "x"},
    {"trace.overhead_share", "share"},
    {"fail_share", "share"},
    {"benchmarks.body_share", "share"},
    {"benchmarks.aux_share", "share"},
    {"sdi.match_share", "share"},
    {"sdi.useful_ratio", "share"},
    {"sdi.commit_rate", "share"},
    {"sdi.mismatches", "count/run"},
    {"sdi.reexecutions", "count/run"},
    {"sdi.aborts", "count/run"},
    {"sdi.squashed_groups", "count/run"},
    {"sdi.sequential_inputs", "count/run"},
    {"sdi.state_clones", "count/run"},
    {"exec.busy_share", "share"},
    {"exec.lane_enqueues", "count/run"},
    {"exec.lane_deferred", "count/run"},
    {"threading.parks", "count/run"},
    {"threading.unparks", "count/run"},
    {"threading.steals", "count/run"},
    {"serving.submit_share", "share"},
    {"serving.wait_share", "share"},
    {"serving.result_share", "share"},
    {"serving.polls_per_req", "count/req"},
    {"serving.req_rel.seq", "x"},
    {"serving.req_rel.spec", "x"},
    {"serving.req_rel.hit", "x"},
    {"serving.req_rel.fresh", "x"},
    {"serving.batches_formed", "count"},
    {"serving.batch_lanes.mean", "count"},
    {"serving.compile_cache.hit_ratio", "share"},
    {"serving.result_cache.hit_ratio", "share"},
    {"serving.rejected.backpressure", "count"},
    {"serving.rejected.invalid", "count"},
    {"serving.codec.load_us", "us"},
    {"serving.admission.validate_us.known", "us"},
    {"serving.admission.validate_us.fresh", "us"},
    {"serving.scheduler.next_batch_us", "us"},
    {"serving.runner.run_us.seq", "us"},
    {"serving.runner.run_us.spec", "us"},
    {"serving.runner.run_us.fresh", "us"},
    {"serving.codec.save_us", "us"},
};

std::string
printResult(const Report &report, bool per_layer)
{
    const auto &defs = per_layer ? kPerLayer : kEndToEnd;
    const auto &values = per_layer ? report.perLayer : report.endToEnd;
    for (const auto &[name, value] : values) {
        if (std::none_of(defs.begin(), defs.end(), [&](const MetricDef &d) {
                return name == d.name;
            }))
            return "undeclared metric " + name;
    }

    std::string line = "{\"correct\": ";
    line += report.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(report.attempted);
    line += ", \"failed\": " + std::to_string(report.failed);
    line += ", \"metrics\": {";
    char value[64];
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        if (it == values.end() && !per_layer)
            return std::string("missing metric ") + defs[i].name;
        const double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            return std::string("non-finite metric ") + defs[i].name;
        // Full precision: the value exactly as measured.
        std::snprintf(value, sizeof value, "%.17g", v);
        line += std::string(i ? ", \"" : "\"") + defs[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                defs[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return "";
}

namespace {

std::atomic<std::uint64_t> nextGeneration{1};

} // namespace

SpanLog::SpanLog()
    : _origin(Clock::now()), _generation(nextGeneration.fetch_add(1))
{
}

SpanLog::Buffer &
SpanLog::threadBuffer()
{
    thread_local std::uint64_t cached_generation = 0;
    thread_local Buffer *cached = nullptr;
    if (cached_generation != _generation) {
        std::lock_guard<std::mutex> lock(_mutex);
        _buffers.push_back(std::make_unique<Buffer>());
        _buffers.back()->thread =
            static_cast<std::uint32_t>(_buffers.size());
        cached = _buffers.back().get();
        cached_generation = _generation;
    }
    return *cached;
}

void
SpanLog::record(const char *name, const char *parent, std::uint64_t op,
                std::int64_t begin_ns, std::int64_t end_ns)
{
    Buffer &buffer = threadBuffer();
    buffer.spans.push_back(
        {name, parent, op, begin_ns, end_ns, buffer.thread});
}

std::vector<SpanLog::Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<Span> all;
    for (const auto &buffer : _buffers)
        all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    return all;
}

double
SpanLog::totalMs(const char *name) const
{
    double ns = 0.0;
    for (const Span &span : spans())
        if (std::strcmp(span.name, name) == 0)
            ns += static_cast<double>(span.endNs - span.beginNs);
    return ns / 1e6;
}

bool
SpanLog::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\": [\n";
    bool first = true;
    char line[512];
    for (const Span &span : spans()) {
        std::snprintf(line, sizeof line,
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"op\": %llu, \"parent\": \"%s\"}}",
                      first ? "" : ",\n", span.name, span.thread,
                      static_cast<double>(span.beginNs) / 1e3,
                      static_cast<double>(span.endNs - span.beginNs) / 1e3,
                      static_cast<unsigned long long>(span.op),
                      span.parent);
        out << line;
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace e2ebench
