/**
 * @file
 * Per-tenant admission control for the serving control plane
 * (docs/SERVING.md §3).
 *
 * Two layers, both applied *before* a request becomes a plan in a
 * queue, so overload produces a graceful `RejectedBackpressure`
 * response instead of unbounded queue growth:
 *
 *  - **validation** — the request must decode (schema-versioned),
 *    pass the plan's structural checks, and its program must pass the
 *    same gates `statscc` applies: IR parse + verifier + middle-end +
 *    speculation-safety lint + post-regalloc bytecode verifier for
 *    inline-IR plans (docs/ANALYSIS.md), a known benchmark name for
 *    benchmark plans. Split in two pure steps: `admitModule` judges
 *    the module bytes alone, `bindPlan` checks one plan against an
 *    admitted module. A server memoizes the first in an
 *    AdmittedModuleTable, so a known module is admitted once;
 *  - **quota** — a token bucket per tenant (ratePerSec, burst) plus a
 *    bounded per-tenant queue. A request that finds the bucket empty
 *    or the queue full is rejected with a retry-after hint.
 *
 * The clock is injected so tests drive quota refill deterministically.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "ir/ir.hpp"
#include "serving/execution_plan.hpp"
#include "serving/lru.hpp"

namespace stats::serving {

/** Why a request was not admitted. Names are part of the wire
 *  protocol and of docs/SERVING.md §3; keep all three in lockstep. */
enum class RejectReason : std::uint8_t
{
    None,          ///< Admitted.
    MalformedPlan, ///< Undecodable bytes or failed structural checks.
    VersionSkew,   ///< Plan schema version this build does not speak.
    ParseError,    ///< Inline IR did not parse.
    VerifyError,   ///< IR verifier rejected the module.
    AnalysisError, ///< Speculation-safety lint found errors.
    UnknownModule, ///< Benchmark plan names no known benchmark.
    QuotaExceeded, ///< Tenant token bucket empty (backpressure).
    QueueFull,     ///< Tenant queue at capacity (backpressure).
    Draining,      ///< Server is draining; no new work accepted.
};

inline constexpr int kRejectReasonCount = 10;

const char *rejectReasonName(RejectReason reason);

/** True for the load-shedding reasons (the RejectedBackpressure
 *  family): the request was fine, the system is protecting itself. */
bool isBackpressure(RejectReason reason);

/** Per-tenant quota configuration. */
struct TenantQuota
{
    /** Token-bucket refill rate, requests per second. */
    double ratePerSec = 50.0;
    /** Token-bucket capacity (burst size). */
    double burst = 20.0;
    /** Bound on the tenant's queued-but-not-dispatched plans. */
    std::size_t maxQueued = 64;
    /** Weighted-deficit-round-robin share (scheduler.hpp). */
    int weight = 1;
};

/** The admission verdict for one request. */
struct AdmissionVerdict
{
    RejectReason reason = RejectReason::None;
    std::string detail;
    /** Backpressure rejections: seconds until a retry may succeed. */
    double retryAfterSeconds = 0.0;

    bool admitted() const { return reason == RejectReason::None; }
};

/**
 * The module-level half of validation: a pure function of the module
 * bytes and the lint switch, shared by every plan that carries them.
 */
struct AdmittedModule
{
    /** None, or the ParseError / VerifyError / AnalysisError verdict
     *  the module earns whatever plan carries it. */
    AdmissionVerdict verdict;
    /** Tradeoff name -> value count, the first declaration winning
     *  as in Module::findTradeoff. Filled for admitted modules. */
    std::map<std::string, std::int64_t> tradeoffSizes;
    /** The verified, middle-ended module, frozen; null when parsing
     *  or verification rejected the module. */
    std::shared_ptr<const ir::Module> module;
};

/**
 * The admission controller. Not internally synchronized: the server
 * calls it under its own lock (admission is off the execution hot
 * path — it runs once per request, not per input).
 */
class AdmissionController
{
  public:
    using Clock = std::function<double()>;

    /**
     * `defaultQuota` applies to tenants not explicitly configured
     * (every tenant is known; quotas are how tenants differ).
     * `clock` returns monotonic seconds.
     */
    AdmissionController(TenantQuota default_quota, Clock clock);

    /** Configure one tenant's quota explicitly. */
    void setQuota(const std::string &tenant, TenantQuota quota);

    /** The quota in effect for `tenant`. */
    const TenantQuota &quotaFor(const std::string &tenant) const;

    /**
     * Quota gate only (validation is the server's job, since it owns
     * the compile cache): spend one token and check the queue bound.
     * `queued` is the tenant's current queue depth.
     */
    AdmissionVerdict admitQuota(const std::string &tenant,
                                std::size_t queued);

    /**
     * Full semantic validation of a plan: structural checks, then the
     * IR pipeline gates or the benchmark-name check. Pure (no quota
     * spend). `runAnalysis` gates the lint stage (statsd
     * --no-analysis). Equal to bindPlan(plan, admitModule(...)).
     */
    static AdmissionVerdict validate(const ExecutionPlan &plan,
                                     bool run_analysis);

    /**
     * Parse, verify, check the state dependence, run the middle end,
     * verify again, and (when `runAnalysis`) lint with the bytecode
     * verifier.
     */
    static std::shared_ptr<const AdmittedModule>
    admitModule(const std::string &module_text, bool run_analysis);

    /**
     * The per-request half: the plan's structural checks, its fault
     * spec, and the binding of its configuration point, in the order
     * validate() reports them. `admitted` is admitModule() of the
     * plan's module text; benchmark plans pass nullptr.
     */
    static AdmissionVerdict bindPlan(const ExecutionPlan &plan,
                                     const AdmittedModule *admitted);

  private:
    struct Bucket
    {
        double tokens = 0.0;
        double lastRefill = 0.0;
        bool primed = false; ///< First sight: start at full burst.
    };

    TenantQuota _defaultQuota;
    Clock _clock;
    std::map<std::string, TenantQuota> _quotas;
    std::map<std::string, Bucket> _buckets;
};

/** Bound on the modules one AdmittedModuleTable keeps resident. */
inline constexpr std::size_t kAdmittedModuleCapacity = 256;

/**
 * One server's admitted modules: admitModule() memoized by the exact
 * module bytes in a bounded LRU. Per server, not process-wide,
 * because the verdict depends on `runAnalysis`. Thread-safe.
 * Concurrent misses on the same bytes may both compute; the result
 * is deterministic and the first insert wins.
 */
class AdmittedModuleTable
{
  public:
    explicit AdmittedModuleTable(bool run_analysis)
        : _runAnalysis(run_analysis)
    {
    }

    /** The admitted module for `module_text`; computed on a miss. */
    std::shared_ptr<const AdmittedModule>
    admit(const std::string &module_text);

    /** Resident entries. */
    std::size_t size() const;

  private:
    const bool _runAnalysis;
    mutable std::mutex _mutex;
    LruMap<std::shared_ptr<const AdmittedModule>> _modules{
        kAdmittedModuleCapacity};
};

} // namespace stats::serving
