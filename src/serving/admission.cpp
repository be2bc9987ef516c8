#include "serving/admission.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/lint.hpp"
#include "benchmarks/common/benchmark.hpp"
#include "ir/bytecode_verifier.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "midend/midend.hpp"
#include "midend/substitute.hpp"
#include "observability/metrics.hpp"
#include "replay/fault_plan.hpp"

namespace stats::serving {

const char *
rejectReasonName(RejectReason reason)
{
    switch (reason) {
      case RejectReason::None:          return "None";
      case RejectReason::MalformedPlan: return "MalformedPlan";
      case RejectReason::VersionSkew:   return "VersionSkew";
      case RejectReason::ParseError:    return "ParseError";
      case RejectReason::VerifyError:   return "VerifyError";
      case RejectReason::AnalysisError: return "AnalysisError";
      case RejectReason::UnknownModule: return "UnknownModule";
      case RejectReason::QuotaExceeded: return "QuotaExceeded";
      case RejectReason::QueueFull:     return "QueueFull";
      case RejectReason::Draining:      return "Draining";
    }
    return "?";
}

bool
isBackpressure(RejectReason reason)
{
    return reason == RejectReason::QuotaExceeded ||
           reason == RejectReason::QueueFull ||
           reason == RejectReason::Draining;
}

AdmissionController::AdmissionController(TenantQuota default_quota,
                                         Clock clock)
    : _defaultQuota(default_quota), _clock(std::move(clock))
{
}

void
AdmissionController::setQuota(const std::string &tenant,
                              TenantQuota quota)
{
    _quotas[tenant] = quota;
}

const TenantQuota &
AdmissionController::quotaFor(const std::string &tenant) const
{
    const auto it = _quotas.find(tenant);
    return it == _quotas.end() ? _defaultQuota : it->second;
}

AdmissionVerdict
AdmissionController::admitQuota(const std::string &tenant,
                                std::size_t queued)
{
    const TenantQuota &quota = quotaFor(tenant);
    const double now = _clock();
    Bucket &bucket = _buckets[tenant];
    if (!bucket.primed) {
        bucket.tokens = quota.burst;
        bucket.lastRefill = now;
        bucket.primed = true;
    } else {
        const double elapsed = std::max(0.0, now - bucket.lastRefill);
        bucket.tokens = std::min(
            quota.burst, bucket.tokens + elapsed * quota.ratePerSec);
        bucket.lastRefill = now;
    }

    AdmissionVerdict verdict;
    if (queued >= quota.maxQueued) {
        verdict.reason = RejectReason::QueueFull;
        verdict.detail = "tenant '" + tenant + "' has " +
                         std::to_string(queued) +
                         " queued plans (bound " +
                         std::to_string(quota.maxQueued) + ")";
        // The queue drains by being served, not by time; suggest one
        // token interval as the polling cadence.
        verdict.retryAfterSeconds =
            quota.ratePerSec > 0.0 ? 1.0 / quota.ratePerSec : 1.0;
        return verdict;
    }
    if (bucket.tokens < 1.0) {
        verdict.reason = RejectReason::QuotaExceeded;
        verdict.detail = "tenant '" + tenant +
                         "' is over its admission rate";
        verdict.retryAfterSeconds =
            quota.ratePerSec > 0.0
                ? (1.0 - bucket.tokens) / quota.ratePerSec
                : 1.0;
        return verdict;
    }
    bucket.tokens -= 1.0;
    return verdict;
}

AdmissionVerdict
AdmissionController::validate(const ExecutionPlan &plan,
                              bool run_analysis)
{
    std::shared_ptr<const AdmittedModule> admitted;
    if (plan.kind != JobKind::Benchmark)
        admitted = admitModule(plan.moduleText, run_analysis);
    return bindPlan(plan, admitted.get());
}

std::shared_ptr<const AdmittedModule>
AdmissionController::admitModule(const std::string &module_text,
                                 bool run_analysis)
{
    // Inline IR: the same gates statscc pipeline applies, reusing the
    // lint registry and the post-regalloc bytecode verifier at
    // admission time — a plan in a queue is already known-good.
    auto admitted = std::make_shared<AdmittedModule>();
    AdmissionVerdict &verdict = admitted->verdict;
    std::string parse_error;
    auto module = ir::tryParseModule(module_text, parse_error);
    if (!module) {
        verdict.reason = RejectReason::ParseError;
        verdict.detail = parse_error;
        return admitted;
    }
    if (const auto problems = ir::verifyModule(*module);
        !problems.empty()) {
        verdict.reason = RejectReason::VerifyError;
        verdict.detail = problems.front();
        return admitted;
    }
    if (module->stateDeps.empty()) {
        verdict.reason = RejectReason::VerifyError;
        verdict.detail = "module declares no state dependence";
        return admitted;
    }
    midend::runMiddleEnd(*module);
    if (const auto problems = ir::verifyModule(*module);
        !problems.empty()) {
        verdict.reason = RejectReason::VerifyError;
        verdict.detail = "midend: " + problems.front();
        return admitted;
    }
    if (run_analysis) {
        analysis::LintOptions lint;
        lint.bytecodeVerifier = ir::bc::verifyCompiledModule;
        const auto diagnostics = analysis::runAnalyses(*module, lint);
        if (analysis::hasErrors(diagnostics)) {
            std::ostringstream detail;
            analysis::writeDiagnosticsText(detail, "plan",
                                           diagnostics);
            verdict.reason = RejectReason::AnalysisError;
            verdict.detail = detail.str();
        }
    }
    // Tradeoff sizes run module code, so only an admitted module has
    // them evaluated up front (instantiation evaluates them anyway).
    if (verdict.admitted())
        for (const auto &meta : module->tradeoffs)
            admitted->tradeoffSizes.emplace(
                meta.name, midend::sizeOf(*module, meta));
    admitted->module =
        std::make_shared<const ir::Module>(std::move(*module));
    return admitted;
}

AdmissionVerdict
AdmissionController::bindPlan(const ExecutionPlan &plan,
                              const AdmittedModule *admitted)
{
    AdmissionVerdict verdict;
    if (const std::string problem = plan.validate(); !problem.empty()) {
        verdict.reason = RejectReason::MalformedPlan;
        verdict.detail = problem;
        return verdict;
    }
    // Fault specs are inert for sequential interpretation (no engine
    // choice points), but a spec that cannot parse is a client bug —
    // reject it up front for every kind.
    if (!plan.faults.empty()) {
        std::string fault_error;
        if (!replay::FaultPlan::fromSpec(plan.faults, fault_error)) {
            verdict.reason = RejectReason::MalformedPlan;
            verdict.detail = "fault plan: " + fault_error;
            return verdict;
        }
    }

    if (plan.kind == JobKind::Benchmark) {
        const auto &names = benchmarks::allBenchmarkNames();
        if (std::find(names.begin(), names.end(), plan.moduleRef) ==
            names.end()) {
            verdict.reason = RejectReason::UnknownModule;
            verdict.detail =
                "unknown benchmark '" + plan.moduleRef + "'";
        }
        return verdict;
    }

    // A module rejected before the middle end completed has no
    // module to bind against; a lint rejection ranks below the
    // binding checks.
    if (!admitted->module)
        return admitted->verdict;
    const ir::Module &module = *admitted->module;
    // The configuration point must bind to real tradeoffs with
    // in-range indices — the back-end treats violations as compiler
    // bugs (panics), so they must never get past admission.
    for (const auto &[name, index] : plan.tradeoffIndices) {
        const auto *meta = module.findTradeoff(name);
        if (meta == nullptr) {
            verdict.reason = RejectReason::VerifyError;
            verdict.detail =
                "configuration point names unknown tradeoff '" +
                name + "'";
            return verdict;
        }
        const auto known = admitted->tradeoffSizes.find(name);
        const std::int64_t size =
            known != admitted->tradeoffSizes.end()
                ? known->second
                : midend::sizeOf(module, *meta);
        if (index < 0 || index >= size) {
            verdict.reason = RejectReason::VerifyError;
            verdict.detail = "configuration point index " +
                             std::to_string(index) +
                             " out of range for tradeoff '" + name +
                             "' (size " + std::to_string(size) + ")";
            return verdict;
        }
    }
    return admitted->verdict;
}

std::shared_ptr<const AdmittedModule>
AdmittedModuleTable::admit(const std::string &module_text)
{
    auto &metrics = obs::MetricsRegistry::global();
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (const auto *hit = _modules.find(module_text)) {
            metrics.counter("serving.admission.module_hits").add();
            return *hit;
        }
    }
    metrics.counter("serving.admission.module_misses").add();
    auto admitted =
        AdmissionController::admitModule(module_text, _runAnalysis);
    std::lock_guard<std::mutex> lock(_mutex);
    return _modules.insert(module_text, std::move(admitted));
}

std::size_t
AdmittedModuleTable::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _modules.size();
}

} // namespace stats::serving
