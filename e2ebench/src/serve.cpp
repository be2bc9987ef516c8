#include "serve.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <unistd.h>
#include <vector>

#include "observability/metrics.hpp"
#include "serving/admission.hpp"
#include "serving/client.hpp"
#include "serving/daemon.hpp"
#include "serving/execution_plan.hpp"
#include "serving/runner.hpp"
#include "serving/scheduler.hpp"
#include "support/rng.hpp"
#include "support/seed_sequence.hpp"

namespace e2ebench {

namespace {

using namespace stats;
using serving::ExecutionPlan;

constexpr int kClients = 4;
constexpr std::size_t kWorkers = 2;
constexpr int kSetupReps = 5;
/** Inputs of every inline-IR plan. */
constexpr int kInputs = 256;
/** Completed plans a client may resubmit verbatim. */
constexpr std::size_t kHistory = 16;
/** Requests that warm a freshly started daemon. */
constexpr int kWarmupRequests = 200;
/** Plans the single-thread stage replay times. */
constexpr int kStagePlans = 400;
const auto kPollInterval = std::chrono::microseconds(50);

enum class Kind
{
    Seq,   ///< Fusable sequential plan on a shared module.
    Spec,  ///< Speculative plan: engine on the simulator, choices logged.
    Fresh, ///< Never-seen module: full admission plus compile.
    Hit,   ///< Exact resubmit of a completed plan: result-cache hit.
};
constexpr int kKinds = 4;
const char *const kKindNames[kKinds] = {"seq", "spec", "fresh", "hit"};

/** The two modules every shared-module plan runs. */
const char *const kSharedModules[2] = {
    "module \"mix_add\"\n"
    "statedep SD0 compute=@computeOutput\n"
    "\n"
    "func @computeOutput(i64 %input, i64 %state) -> i64 {\n"
    "entry:\n"
    "  %a = add i64 %state, %input\n"
    "  ret i64 %a\n"
    "}\n",
    "module \"mix_affine\"\n"
    "statedep SD0 compute=@computeOutput\n"
    "\n"
    "func @computeOutput(i64 %input, i64 %state) -> i64 {\n"
    "entry:\n"
    "  %a = mul i64 %state, 3\n"
    "  %b = add i64 %a, %input\n"
    "  ret i64 %b\n"
    "}\n",
};

/** A module no earlier plan used: its constant is `n`. */
std::string
freshModule(std::uint64_t n)
{
    const std::string k = std::to_string(n);
    return "module \"fresh_" + k +
           "\"\n"
           "statedep SD0 compute=@computeOutput\n"
           "\n"
           "func @computeOutput(i64 %input, i64 %state) -> i64 {\n"
           "entry:\n"
           "  %a = mul i64 %state, 3\n"
           "  %b = add i64 %a, " +
           k +
           "\n"
           "  %c = add i64 %b, %input\n"
           "  ret i64 %c\n"
           "}\n";
}

/** Everything needed to rebuild one drawn plan's bytes. */
struct PlanKey
{
    serving::JobKind kind = serving::JobKind::IrSequential;
    int client = 0;
    int module = 0;          ///< Shared module index; -1 for fresh.
    std::uint64_t fresh = 0; ///< Number of the fresh module.
    std::uint64_t rootSeed = 0;
};

ExecutionPlan
planFor(const PlanKey &key)
{
    ExecutionPlan plan;
    // Two tenants with weights 1:2 (set on the daemon).
    plan.tenant = key.client % 2 == 0 ? "alpha" : "beta";
    plan.kind = key.kind;
    plan.moduleText = key.module < 0 ? freshModule(key.fresh)
                                     : kSharedModules[key.module];
    plan.rootSeed = key.rootSeed;
    plan.inputs = kInputs;
    plan.noisyPercent = 25;
    plan.maxNoise = 2;
    return plan;
}

/**
 * One client's seeded request stream: 70% sequential plans on the
 * shared modules, 15% speculative plans, 10% never-seen modules and
 * 5% exact resubmits, all others with fresh root seeds.
 */
class PlanMix
{
  public:
    struct Draw
    {
        Kind kind = Kind::Seq;
        PlanKey key;
    };

    PlanMix(std::uint64_t seed, int client)
        : _rng(support::SeedSequence(seed).derive(
              "client", static_cast<std::uint64_t>(client))),
          _client(client)
    {
    }

    Draw
    next()
    {
        const double u = _rng.nextDouble();
        Kind kind = u < 0.70   ? Kind::Seq
                    : u < 0.85 ? Kind::Spec
                    : u < 0.95 ? Kind::Fresh
                               : Kind::Hit;
        if (kind == Kind::Hit) {
            if (!_history.empty())
                return {Kind::Hit,
                        _history[_rng.nextBelow(_history.size())]};
            kind = Kind::Seq;
        }
        PlanKey key;
        key.client = _client;
        key.kind = kind == Kind::Spec ? serving::JobKind::IrSpeculative
                                      : serving::JobKind::IrSequential;
        if (kind == Kind::Fresh) {
            key.module = -1;
            key.fresh = static_cast<std::uint64_t>(_client) << 40 |
                        ++_freshCount;
        } else {
            key.module = static_cast<int>(_rng.nextBelow(2));
        }
        key.rootSeed = _rng();
        return {kind, key};
    }

    /** A plan's result arrived: it may be resubmitted from now on. */
    void
    completed(const PlanKey &key)
    {
        if (_history.size() == kHistory)
            _history.erase(_history.begin());
        _history.push_back(key);
    }

  private:
    support::Xoshiro256 _rng;
    int _client;
    std::uint64_t _freshCount = 0;
    std::vector<PlanKey> _history;
};

/** Result bytes are kept as a digest: 64-bit FNV-1a plus length. */
struct Digest
{
    std::uint64_t hash = 0;
    std::size_t size = 0;

    bool operator==(const Digest &) const = default;
};

Digest
digestOf(const std::string &bytes)
{
    Digest d{0xcbf29ce484222325ULL, bytes.size()};
    for (const unsigned char c : bytes)
        d.hash = (d.hash ^ c) * 0x100000001b3ULL;
    return d;
}

/** One request as the client saw it. */
struct Served
{
    Kind kind = Kind::Seq;
    PlanKey key;
    bool ok = false;
    bool traced = false;
    Digest result;
    int polls = 0;
    double submitMs = 0.0; ///< Submit frame out → ack in.
    double waitMs = 0.0;   ///< Ack → first status reading Done.
    double resultMs = 0.0; ///< Result request out → result bytes in.
    double totalMs = 0.0;  ///< Submit frame out → result bytes in.
    Clock::time_point done; ///< When the last reply arrived.
};

/** Records one span when `spans` is set. */
void
span(SpanLog *spans, const char *name, const char *parent,
     std::uint64_t op, std::int64_t begin_ns)
{
    if (spans)
        spans->record(name, parent, op, begin_ns, spans->now());
}

/**
 * One request: submit, poll status until the request finished, fetch
 * the result. A rejection or transport failure leaves `ok` false.
 */
Served
request(serving::Client &client, PlanMix::Draw draw, SpanLog *trace)
{
    Served s;
    s.kind = draw.kind;
    s.key = draw.key;
    s.traced = trace != nullptr;
    const std::string bytes = planFor(s.key).saveToString();
    std::string error;
    const std::int64_t begin_ns = trace ? trace->now() : 0;

    const auto t0 = Clock::now();
    serving::AdmissionVerdict verdict;
    const auto id = client.submit(bytes, verdict, error);
    const auto t1 = Clock::now();
    const std::uint64_t op = id.value_or(0);
    span(trace, "client.submit", "serve.request", op, begin_ns);
    if (!id) {
        s.totalMs = msBetween(t0, t1);
        s.done = t1;
        return s;
    }

    for (;;) {
        const std::int64_t poll_ns = trace ? trace->now() : 0;
        std::string tenant;
        const auto state = client.status(*id, tenant, error);
        ++s.polls;
        span(trace, "client.status", "serve.request", op, poll_ns);
        if (!state || (*state != serving::RequestState::Queued &&
                       *state != serving::RequestState::Running))
            break;
        std::this_thread::sleep_for(kPollInterval);
    }
    const auto t2 = Clock::now();
    const std::int64_t result_ns = trace ? trace->now() : 0;
    auto result = client.result(*id, error);
    const auto t3 = Clock::now();
    span(trace, "client.result", "serve.request", op, result_ns);
    span(trace, "serve.request", "", op, begin_ns);

    s.ok = result && result->state == serving::RequestState::Done &&
           result->result.ok;
    if (s.ok)
        s.result = digestOf(result->result.resultBlob);
    s.submitMs = msBetween(t0, t1);
    s.waitMs = msBetween(t1, t2);
    s.resultMs = msBetween(t2, t3);
    s.totalMs = msBetween(t0, t3);
    s.done = t3;
    return s;
}

/** One closed-loop client: next request only after the last result. */
void
clientLoop(const std::string &socket, PlanMix &mix,
           Clock::time_point trace_from, Clock::time_point deadline,
           SpanLog *spans, std::vector<Served> &served)
{
    std::string error;
    serving::Client client(socket, error);
    while (Clock::now() < deadline) {
        SpanLog *trace = Clock::now() >= trace_from ? spans : nullptr;
        served.push_back(request(client, mix.next(), trace));
        const Served &s = served.back();
        if (s.ok && s.kind != Kind::Hit)
            mix.completed(s.key);
        if (!client.connected())
            return;
    }
}

/** An in-process daemon accepting on its socket in a thread. */
class Service
{
  public:
    explicit Service(const std::string &socket)
    {
        serving::Server::Options options;
        options.executionWorkers = kWorkers;
        // Wide-open quotas: any rejection is a real failure.
        options.defaultQuota.ratePerSec = 1e9;
        options.defaultQuota.burst = 1e9;
        options.defaultQuota.maxQueued = 1u << 20;
        _daemon = std::make_unique<serving::Daemon>(socket, options);
        for (const auto &[tenant, weight] :
             {std::pair{"alpha", 1}, std::pair{"beta", 2}}) {
            serving::TenantQuota quota = options.defaultQuota;
            quota.weight = weight;
            _daemon->server().setQuota(tenant, quota);
        }
        _loop = std::thread([this] { _daemon->serveForever(); });
    }

    /** Stops accepting, then waits for every connection and plan. */
    ~Service()
    {
        _daemon->stop();
        _loop.join();
    }

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

  private:
    std::unique_ptr<serving::Daemon> _daemon;
    std::thread _loop; ///< Declared after the daemon it serves.
};

/**
 * Start a daemon and warm it with requests from a stream no measured
 * client draws from, so the measured phase starts with warm compiles
 * and connection paths.
 */
std::unique_ptr<Service>
startService(const std::string &socket, std::uint64_t seed)
{
    auto service = std::make_unique<Service>(socket);
    std::string error;
    serving::Client client(socket, error);
    PlanMix warm(seed, kClients);
    for (int i = 0; i < kWarmupRequests; ++i) {
        const Served s = request(client, warm.next(), nullptr);
        if (s.ok && s.kind != Kind::Hit)
            warm.completed(s.key);
    }
    return service;
}

std::int64_t
counter(const char *name)
{
    const auto *c = obs::MetricsRegistry::global().findCounter(name);
    return c ? c->value() : 0;
}

/** Per-window request statistics over the untraced span of a run. */
struct Windows
{
    std::vector<double> p50, p95, perSecond;
};

/**
 * Cut `span` after `begin` into whole seconds and take each one's
 * latency percentiles and throughput from the untraced requests that
 * completed in it. The reported figures are medians over windows, so
 * a stall of the host that lasts a few seconds moves few of them.
 */
Windows
windowed(const std::vector<Served> &served, Clock::time_point begin,
         Clock::duration span)
{
    const auto count = std::max<std::int64_t>(
        1, std::chrono::duration_cast<std::chrono::seconds>(span).count());
    const Clock::duration width = span / count;
    std::vector<std::vector<double>> ms(static_cast<std::size_t>(count));
    for (const Served &s : served) {
        const auto w = (s.done - begin) / width;
        if (s.ok && !s.traced && w >= 0 && w < count)
            ms[static_cast<std::size_t>(w)].push_back(s.totalMs);
    }
    Windows windows;
    const double width_s = std::chrono::duration<double>(width).count();
    for (const auto &window : ms) {
        windows.p50.push_back(quantile(window, 0.5));
        windows.p95.push_back(quantile(window, 0.95));
        windows.perSecond.push_back(
            static_cast<double>(window.size()) / width_s);
    }
    return windows;
}

/**
 * Rerun every served plan solo and count the requests whose result
 * bytes differ (or that failed). Fills `solo_ms` with the solo run
 * times. The runner is replaced now and then so that its compile
 * cache of never-seen modules stays small.
 */
std::int64_t
countWrongResults(const std::vector<Served> &served,
                  std::vector<double> &solo_ms)
{
    constexpr std::size_t kPlansPerRunner = 1024;
    std::unique_ptr<serving::PlanRunner> runner;
    std::size_t runs = 0;
    std::int64_t wrong = 0;
    for (const Served &s : served) {
        if (!s.ok) {
            ++wrong;
            continue;
        }
        if (runs++ % kPlansPerRunner == 0)
            runner = std::make_unique<serving::PlanRunner>();
        const ExecutionPlan plan = planFor(s.key);
        const auto begin = Clock::now();
        const serving::PlanResult solo = runner->runPlan(plan);
        solo_ms.push_back(msBetween(begin, Clock::now()));
        if (!solo.ok || digestOf(solo.resultBlob) != s.result)
            ++wrong;
    }
    return wrong;
}

} // namespace

Report
runServeWorkload(std::uint64_t seed, double seconds,
                 const std::string &work_dir, SpanLog *spans)
{
    Report report;
    const std::string socket =
        work_dir + "/e2ebench-" + std::to_string(::getpid()) + ".sock";

    std::unique_ptr<Service> service;
    report.endToEnd["setup_s"] = medianSetupSeconds(
        kSetupReps, service, [&] { return startService(socket, seed); });

    // Counters from here on belong to the measured phase.
    obs::MetricsRegistry::global().resetValues();
    std::vector<PlanMix> mixes;
    for (int c = 0; c < kClients; ++c)
        mixes.emplace_back(seed, c);
    std::vector<std::vector<Served>> per_client(kClients);
    const auto begin = Clock::now();
    const auto duration = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    const auto deadline = begin + duration;
    // A traced run measures its first half untraced: the difference
    // is the tracing overhead.
    const auto trace_from = begin + duration / 2;
    {
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                clientLoop(socket, mixes[c], trace_from, deadline, spans,
                           per_client[c]);
            });
        for (auto &client : clients)
            client.join();
    }
    service.reset();

    std::vector<Served> served;
    for (auto &requests : per_client)
        for (auto &s : requests)
            served.push_back(std::move(s));

    const std::int64_t compile_hits =
        counter("serving.compile_cache_hits");
    const std::int64_t compile_misses =
        counter("serving.compile_cache_misses");
    const std::int64_t cache_hits = counter("serving.cache.hits");
    const std::int64_t cache_misses = counter("serving.cache.misses");
    const std::int64_t batches = counter("serving.batches_formed");
    const std::int64_t backpressure =
        counter("serving.rejected.QuotaExceeded") +
        counter("serving.rejected.QueueFull") +
        counter("serving.rejected.Draining");
    const std::int64_t rejected = counter("serving.requests_rejected");
    const auto *lanes =
        obs::MetricsRegistry::global().findHistogram("serving.batch_lanes");
    const double lanes_mean = lanes ? lanes->snapshot().mean() : 0.0;

    std::vector<double> solo_ms;
    report.attempted = static_cast<std::int64_t>(served.size());
    report.failed = countWrongResults(served, solo_ms);

    const Windows windows =
        windowed(served, begin, spans ? duration / 2 : duration);
    std::vector<double> untraced_ms, traced_ms;
    std::vector<double> by_kind[kKinds];
    double submit_ms = 0.0, wait_ms = 0.0, result_ms = 0.0, total_ms = 0.0;
    double polls = 0.0;
    for (const Served &s : served) {
        if (!s.ok)
            continue;
        (s.traced ? traced_ms : untraced_ms).push_back(s.totalMs);
        if (!s.traced || !spans) {
            by_kind[static_cast<int>(s.kind)].push_back(s.totalMs);
            submit_ms += s.submitMs;
            wait_ms += s.waitMs;
            result_ms += s.resultMs;
            total_ms += s.totalMs;
            polls += s.polls;
        }
    }

    report.endToEnd["op_ms.p50"] = median(windows.p50);
    report.endToEnd["op_ms.p95"] = median(windows.p95);
    report.endToEnd["ops_per_s"] = median(windows.perSecond);

    if (!spans)
        return report;

    const double p50 = median(untraced_ms);
    auto &layer = report.perLayer;
    layer["seq_ms.p50"] = median(solo_ms);
    layer["speedup_vs_seq"] = ratio(median(solo_ms), p50);
    layer["trace.overhead_share"] = ratio(median(traced_ms), p50) - 1.0;
    layer["fail_share"] = ratio(static_cast<double>(report.failed),
                                static_cast<double>(report.attempted));
    layer["serving.submit_share"] = ratio(submit_ms, total_ms);
    layer["serving.wait_share"] = ratio(wait_ms, total_ms);
    layer["serving.result_share"] = ratio(result_ms, total_ms);
    layer["serving.polls_per_req"] =
        ratio(polls, static_cast<double>(untraced_ms.size()));
    for (int k = 0; k < kKinds; ++k)
        layer[std::string("serving.req_rel.") + kKindNames[k]] =
            ratio(median(by_kind[k]), p50);
    layer["serving.batches_formed"] = static_cast<double>(batches);
    layer["serving.batch_lanes.mean"] = lanes_mean;
    layer["serving.compile_cache.hit_ratio"] =
        ratio(static_cast<double>(compile_hits),
              static_cast<double>(compile_hits + compile_misses));
    layer["serving.result_cache.hit_ratio"] =
        ratio(static_cast<double>(cache_hits),
              static_cast<double>(cache_hits + cache_misses));
    layer["serving.rejected.backpressure"] =
        static_cast<double>(backpressure);
    layer["serving.rejected.invalid"] =
        static_cast<double>(rejected - backpressure);
    return report;
}

void
addServingStageSplit(std::uint64_t seed, Report &report)
{
    PlanMix mix(seed, 0);
    serving::PlanScheduler scheduler;
    serving::PlanRunner runner;
    std::set<std::string> seen_modules;
    std::vector<double> load_us, save_us, validate_known, validate_fresh,
        next_batch_us, run_seq, run_spec, run_fresh;
    const auto us_since = [](Clock::time_point begin) {
        return msBetween(begin, Clock::now()) * 1e3;
    };
    for (int i = 0; i < kStagePlans; ++i) {
        const PlanKey key = mix.next().key;
        const std::string bytes = planFor(key).saveToString();
        std::string error;
        auto begin = Clock::now();
        const auto plan = ExecutionPlan::load(bytes, error);
        load_us.push_back(us_since(begin));
        if (!plan)
            continue;

        const bool fresh = seen_modules.insert(plan->moduleText).second;
        begin = Clock::now();
        const auto verdict =
            serving::AdmissionController::validate(*plan, true);
        (fresh ? validate_fresh : validate_known)
            .push_back(us_since(begin));
        if (!verdict.admitted())
            continue;

        begin = Clock::now();
        scheduler.enqueue(static_cast<std::uint64_t>(i) + 1,
                          std::make_shared<const ExecutionPlan>(*plan));
        const auto batch = scheduler.nextBatch();
        next_batch_us.push_back(us_since(begin));

        begin = Clock::now();
        const auto results = runner.runBatch(batch);
        const double run_us = us_since(begin);
        (fresh ? run_fresh
         : plan->kind == serving::JobKind::IrSpeculative ? run_spec
                                                         : run_seq)
            .push_back(run_us);
        if (!results.empty() && results.front().ok)
            mix.completed(key);

        begin = Clock::now();
        const std::string saved = plan->saveToString();
        save_us.push_back(us_since(begin));
    }
    auto &layer = report.perLayer;
    layer["serving.codec.load_us"] = median(load_us);
    layer["serving.admission.validate_us.known"] = median(validate_known);
    layer["serving.admission.validate_us.fresh"] = median(validate_fresh);
    layer["serving.scheduler.next_batch_us"] = median(next_batch_us);
    layer["serving.runner.run_us.seq"] = median(run_seq);
    layer["serving.runner.run_us.spec"] = median(run_spec);
    layer["serving.runner.run_us.fresh"] = median(run_fresh);
    layer["serving.codec.save_us"] = median(save_us);
}

std::string
checkServeVerifierRejectsCorruptBlob(std::uint64_t seed)
{
    PlanMix mix(seed, 0);
    serving::PlanRunner runner;
    std::vector<Served> served;
    std::string corrupted;
    for (int i = 0; i < 8; ++i) {
        Served s;
        s.key = mix.next().key;
        const serving::PlanResult result = runner.runPlan(planFor(s.key));
        s.ok = result.ok;
        s.result = digestOf(result.resultBlob);
        if (i == 3) {
            corrupted = result.resultBlob;
            corrupted[corrupted.size() / 2] ^= 0x01;
        }
        served.push_back(s);
    }
    std::vector<double> solo_ms;
    if (countWrongResults(served, solo_ms) != 0)
        return "the check rejects genuine result blobs";
    served[3].result = digestOf(corrupted);
    if (countWrongResults(served, solo_ms) != 1)
        return "the check accepts a corrupted result blob";
    return "";
}

} // namespace e2ebench
