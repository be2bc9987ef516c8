/**
 * @file
 * statsd — the STATS serving daemon (docs/SERVING.md).
 *
 * Serves ExecutionPlans over a unix-domain socket: admission
 * (validation + per-tenant token-bucket quotas), weighted
 * deficit-round-robin scheduling, cross-request batching, and
 * record/replay capture per served run. `stats-cli` is the matching
 * client; `stats-cli drain` is the clean shutdown path.
 *
 * Usage:
 *   statsd [--socket=PATH] [--quota=tenant:rate:burst:maxq:weight]...
 *          [--default-quota=rate:burst:maxq:weight] [--quantum=Q]
 *          [--execution-workers=N] [--no-analysis] [--trace]
 *          [--metrics=FILE]
 *
 * `--quota` may repeat (and each accepts a comma-separated list).
 * Every option is validated before the socket is created, so a
 * malformed one never leaves a listening daemon or a stale socket.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "serving/daemon.hpp"
#include "support/cli_args.hpp"
#include "support/log.hpp"
#include "support/string_utils.hpp"

namespace {

using namespace stats;
using namespace stats::serving;

void
usage()
{
    std::cerr
        << "usage: statsd [options]\n"
        << "options:\n"
        << "  --socket=PATH            listen socket "
           "(default statsd.sock)\n"
        << "  --quota=T:R:B:Q:W        tenant T: R req/s, burst B,\n"
        << "                           queue bound Q, WDRR weight W\n"
        << "                           (repeatable, comma-separable)\n"
        << "  --default-quota=R:B:Q:W  quota for unlisted tenants\n"
        << "  --quantum=Q              WDRR quantum (default 1)\n"
        << "  --execution-workers=N    plan execution threads\n"
        << "                           (default: half the cores)\n"
        << "  --no-analysis            skip the admission lint stage\n"
        << "  --trace                  enable the trace layer\n"
        << "  --metrics=FILE           dump metrics JSON on drain\n";
}

/**
 * Parse "rate:burst:maxQueued:weight" (the `tenant:`-less form).
 * Returns an empty string on success, else what is wrong.
 */
std::string
parseQuota(const std::string &spec, TenantQuota &quota)
{
    const std::vector<std::string> parts = support::split(spec, ':');
    if (parts.size() != 4)
        return "want rate:burst:maxQueued:weight";
    const auto rate = support::parseDouble(parts[0]);
    const auto burst = support::parseDouble(parts[1]);
    const auto max_queued = support::parseU64(parts[2]);
    const auto weight = support::parseInt(parts[3]);
    if (!rate || !burst || !max_queued || !weight)
        return "malformed number in quota spec";
    if (*rate <= 0.0 || *burst < 1.0 || *max_queued < 1 ||
        *weight < 1 || *weight > INT_MAX)
        return "quota values out of range";
    quota.ratePerSec = *rate;
    quota.burst = *burst;
    quota.maxQueued = static_cast<std::size_t>(*max_queued);
    quota.weight = static_cast<int>(*weight);
    return "";
}

/** Every `--quota` spec, comma lists expanded, as (tenant, quota). */
std::vector<std::pair<std::string, TenantQuota>>
tenantQuotas(const support::CliArgs &args)
{
    std::vector<std::pair<std::string, TenantQuota>> quotas;
    for (const auto &list : args.getAll("quota")) {
        for (const auto &spec : support::split(list, ',')) {
            if (spec.empty())
                continue;
            const auto colon = spec.find(':');
            TenantQuota quota;
            const std::string error =
                colon == std::string::npos || colon == 0
                    ? "want tenant:rate:burst:maxQueued:weight"
                    : parseQuota(spec.substr(colon + 1), quota);
            if (!error.empty())
                support::fatal("--quota '", spec, "': ", error);
            quotas.emplace_back(spec.substr(0, colon), quota);
        }
    }
    return quotas;
}

} // namespace

int
main(int argc, char **argv)
{
    const support::CliArgs args(argc, argv, 1);
    if (args.has("help")) {
        usage();
        return 0;
    }
    if (!args.positional().empty() ||
        args.unknownOption({"socket", "quota", "default-quota",
                            "quantum", "execution-workers",
                            "no-analysis", "trace", "metrics"})) {
        usage();
        return 1;
    }

    Server::Options options;
    options.runAnalysis = !args.has("no-analysis");
    options.quantum = args.getDouble("quantum", 1.0);
    if (!(options.quantum > 0.0))
        support::fatal("--quantum must be positive");
    options.executionWorkers = args.getU64("execution-workers", 0);
    if (args.has("execution-workers") && options.executionWorkers < 1)
        support::fatal("--execution-workers must be at least 1");
    const std::string default_quota = args.get("default-quota", "");
    if (!default_quota.empty()) {
        const std::string error =
            parseQuota(default_quota, options.defaultQuota);
        if (!error.empty())
            support::fatal("--default-quota: ", error);
    }
    const auto quotas = tenantQuotas(args);
    const std::string metrics_path = args.get("metrics", "");
    if (args.has("trace")) {
        obs::Trace::global().enable();
        if (!obs::traceActive())
            support::fatal("--trace needs tracing compiled in "
                           "(built with STATS_OBS_DISABLE)");
    }

    Daemon daemon(args.get("socket", "statsd.sock"), std::move(options));
    for (const auto &[tenant, quota] : quotas)
        daemon.server().setQuota(tenant, quota);

    std::cout << "statsd: serving on " << daemon.socketPath()
              << " (analysis "
              << (args.has("no-analysis") ? "off" : "on") << ", "
              << daemon.server().workerCount() << " worker(s))\n";
    daemon.serveForever();

    std::cout << "statsd: drained after "
              << daemon.server().completedCount()
              << " completed request(s)\n";
    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (!out)
            support::fatal("cannot open '", metrics_path, "'");
        obs::MetricsRegistry::global().writeJson(out);
        std::cout << "statsd: wrote metrics to " << metrics_path
                  << "\n";
    }
    return 0;
}
