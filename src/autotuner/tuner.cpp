#include "autotuner/tuner.hpp"

#include "observability/metrics.hpp"
#include "replay/session.hpp"
#include "support/json.hpp"
#include "support/log.hpp"

namespace stats::autotuner {

void
TuneResult::writeAuditJson(std::ostream &out,
                           const tradeoff::StateSpace &space,
                           bool pretty) const
{
    support::JsonWriter json(out, pretty);
    json.beginObject();
    json.field("evaluations", evaluations)
        .field("bestObjective", bestObjective)
        .field("best", space.describe(best));
    json.key("audit").beginArray();
    for (const auto &entry : audit) {
        json.beginObject()
            .field("config", space.describe(entry.config))
            .field("objective", entry.objective)
            .field("technique", entry.technique)
            .field("cached", entry.cached)
            .field("becameBest", entry.becameBest)
            .endObject();
    }
    json.endArray();
    json.endObject();
    out << "\n";
}

Autotuner::Autotuner(tradeoff::StateSpace space, std::uint64_t seed)
    : _space(std::move(space)), _rng(seed),
      _techniques(defaultTechniques()), _bandit(_techniques.size())
{
}

void
Autotuner::preload(
    const std::map<tradeoff::Configuration, double> &store)
{
    for (const auto &[config, objective] : store) {
        if (_space.valid(config))
            _results.emplace(config, objective);
    }
}

TuneResult
Autotuner::tune(const Objective &objective, int budget,
                const std::vector<tradeoff::Configuration> &seeds)
{
    TuneResult result;
    std::vector<EvalRecord> history;
    EvalRecord best;
    bool has_best = false;

    auto &metrics = obs::MetricsRegistry::global();
    auto &evaluations_counter = metrics.counter("autotuner.evaluations");
    auto &cache_hits_counter = metrics.counter("autotuner.cacheHits");
    auto &objective_histogram = metrics.histogram("autotuner.objective");

    const auto evaluate = [&](const tradeoff::Configuration &config,
                              std::size_t technique) {
        auto cached = _results.find(config);
        double value = 0.0;
        const bool was_cached = cached != _results.end();
        if (was_cached) {
            value = cached->second;
            cache_hits_counter.add();
        } else {
            value = objective(config);
            // Mistrain fault: perturb the measured objective before it
            // reaches the cache, the bandit, and the techniques — the
            // tuner trains on systematically wrong observations.
            value = replay::ReplaySession::global().mistrainObjective(value);
            _results.emplace(config, value);
            ++result.evaluations;
            evaluations_counter.add();
            objective_histogram.observe(value);
        }
        history.push_back({config, value});
        const bool new_best = !has_best || value < best.objective;
        if (new_best) {
            best = {config, value};
            has_best = true;
            metrics.gauge("autotuner.bestObjective").set(value);
        }
        result.trace.push_back(best.objective);
        result.audit.push_back({config, value,
                                technique < _techniques.size()
                                    ? _techniques[technique]->name()
                                    : "seed",
                                was_cached, new_best});
        if (technique < _techniques.size()) {
            _techniques[technique]->feedback(config, value, new_best);
            _bandit.reward(technique, new_best);
        }
    };

    // Always profile the default configuration first (the baseline
    // "tradeoffs at default, dependences satisfied conventionally" is
    // configuration-representable too), then any caller seeds.
    evaluate(_space.defaultConfiguration(), _techniques.size());
    for (const auto &seed : seeds) {
        if (_space.valid(seed))
            evaluate(seed, _techniques.size());
    }

    int stale_retries = 0;
    while (result.evaluations < budget &&
           static_cast<double>(_results.size()) < _space.totalPoints()) {
        const std::size_t arm = _bandit.select();
        TuningContext context(_space, _rng, history,
                              has_best ? &best : nullptr);
        tradeoff::Configuration config =
            _techniques[arm]->propose(context);
        if (!_space.valid(config))
            support::panic("technique '", _techniques[arm]->name(),
                           "' proposed an invalid configuration");
        if (_results.count(config)) {
            // Already evaluated: feed the cached outcome back to the
            // technique a few times, then inject pure exploration.
            if (++stale_retries >= 3) {
                stale_retries = 0;
                config = _space.randomConfiguration(_rng);
                if (!_results.count(config))
                    evaluate(config, _techniques.size());
                continue;
            }
            evaluate(config, arm);
            continue;
        }
        stale_retries = 0;
        evaluate(config, arm);
    }

    if (!has_best)
        support::panic("Autotuner: no evaluations performed");
    result.best = best.config;
    result.bestObjective = best.objective;
    return result;
}

} // namespace stats::autotuner
