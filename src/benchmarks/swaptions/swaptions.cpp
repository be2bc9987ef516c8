#include "benchmarks/swaptions/swaptions.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "benchmarks/common/sdi_runner.hpp"
#include "platform/cost_model.hpp"
#include "quality/metrics.hpp"
#include "sdi/matchers.hpp"

namespace stats::benchmarks::swaptions {

namespace {

constexpr double kOpSeconds = 2.2e-6;

/**
 * The original TLP of swaptions parallelizes across independent
 * swaption simulations: close to embarrassingly parallel, with a
 * small serial portion (setup/aggregation) and mild imbalance that
 * we fold into the serial fraction.
 */
const platform::InnerParallelModel &
innerModel()
{
    static const platform::InnerParallelModel model{
        /* serialFraction */ 0.035,
        /* syncCostPerThread */ 1.0e-5,
        /* memBound */ 0.1,
    };
    return model;
}

} // namespace

Workload
makeWorkload(WorkloadKind kind, std::uint64_t seed)
{
    support::Xoshiro256 rng(seed * 0x5eedULL + 99);
    Workload workload;
    for (int s = 0; s < kSwaptions; ++s) {
        SwaptionTerms terms;
        if (kind == WorkloadKind::NonRepresentative) {
            // Unrealistic market parameters (paper section 4.6).
            terms.strike = rng.uniform(0.5, 5.0);
            terms.maturityYears = rng.uniform(80.0, 200.0);
            terms.rate0 = rng.uniform(0.3, 0.9);
            terms.volatility = rng.uniform(0.2, 0.8);
        } else {
            terms.strike = rng.uniform(0.02, 0.06);
            terms.maturityYears = rng.uniform(1.0, 10.0);
            terms.rate0 = rng.uniform(0.02, 0.06);
            terms.volatility = rng.uniform(0.005, 0.02);
        }
        terms.meanReversion = rng.uniform(0.1, 0.3);
        terms.longTermRate = terms.rate0 + rng.uniform(-0.01, 0.01);
        workload.terms.push_back(terms);

        for (int b = 0; b < kBatchesPerSwaption; ++b)
            workload.batches.push_back(Batch{s, b, kTrialsPerBatch});
    }
    return workload;
}

double
simulateBatch(PriceState &state, const Batch &batch,
              const SwaptionTerms &terms, const McParams &params,
              support::Xoshiro256 &rng)
{
    if (state.swaption != batch.swaption) {
        // A new swaption's simulation begins: fresh accumulator.
        state = PriceState{};
        state.swaption = batch.swaption;
    }

    const double dt = terms.maturityYears / kPathSteps;
    const double sqrt_dt = std::sqrt(dt);
    for (int trial = 0; trial < batch.trials; ++trial) {
        // Mean-reverting short-rate path (Vasicek dynamics).
        double rate = terms.rate0;
        double discount = 1.0;
        for (int step = 0; step < kPathSteps; ++step) {
            const double shock = rng.gaussian(0.0, 1.0);
            rate += terms.meanReversion * (terms.longTermRate - rate) * dt +
                    terms.volatility * sqrt_dt * shock;
            if (params.floatRatePath)
                rate = static_cast<float>(rate);
            discount *= std::exp(-std::max(rate, -0.5) * dt);
            if (params.floatDiscount)
                discount = static_cast<float>(discount);
        }
        const double payoff =
            std::max(rate - terms.strike, 0.0) * discount * 100.0;
        state.sumPayoff += payoff;
        state.sumSquares += payoff * payoff;
        ++state.trials;
    }

    return static_cast<double>(batch.trials) * kPathSteps * 9.0;
}

SwaptionsBenchmark::SwaptionsBenchmark()
{
    using tradeoff::NameListOptions;
    using tradeoff::TradeoffValue;

    _registry.add("typeRatePath",
                  std::make_unique<NameListOptions>(
                      TradeoffValue::Kind::TypeName,
                      std::vector<std::string>{"double", "float"}, 0));
    _registry.add("typeDiscount",
                  std::make_unique<NameListOptions>(
                      TradeoffValue::Kind::TypeName,
                      std::vector<std::string>{"double", "float"}, 0));
    _registry.cloneForAuxiliary("typeRatePath");
    _registry.cloneForAuxiliary("typeDiscount");
}

tradeoff::StateSpace
SwaptionsBenchmark::stateSpace(int threads) const
{
    tradeoff::StateSpace space;
    addRuntimeDimensions(space, threads);
    for (const auto &name : _registry.auxNames()) {
        const auto &t = _registry.get(name);
        space.add(name, t.valueCount(), t.options().getDefaultIndex());
    }
    return space;
}

McParams
SwaptionsBenchmark::paramsFrom(const tradeoff::Assignment &assignment,
                               bool auxiliary) const
{
    const std::string prefix = auxiliary ? tradeoff::kAuxPrefix : "";
    McParams params;
    params.floatRatePath =
        _registry.nameValue(prefix + "typeRatePath", assignment) ==
        "float";
    params.floatDiscount =
        _registry.nameValue(prefix + "typeDiscount", assignment) ==
        "float";
    return params;
}

RunResult
SwaptionsBenchmark::run(const RunRequest &request)
{
    const auto workload =
        std::make_shared<Workload>(
            makeWorkload(request.workload, request.workloadSeed));
    const tradeoff::StateSpace space = stateSpace(request.threads);
    const tradeoff::Configuration config =
        request.config.empty() ? space.defaultConfiguration()
                               : request.config;
    const tradeoff::Assignment assignment =
        assignmentFor(space, config, _registry);

    const McParams original_params =
        paramsFrom(_registry.defaults(), false);
    const McParams aux_params = paramsFrom(assignment, true);

    std::optional<support::ScopedDeterministicSeeds> pinned;
    if (request.runSeed != 0)
        pinned.emplace(request.runSeed);

    SdiProgram<Batch, PriceState, PriceOutput> program;
    program.inputs = workload->batches;
    program.initialState = PriceState{};

    const sim::MachineConfig machine = request.machine;
    const auto make_compute = [workload, machine](McParams params,
                                                  bool auxiliary) {
        return [workload, machine, params, auxiliary](
                   const Batch &batch, PriceState &state,
                   const sdi::ComputeContext &ctx)
                   -> SdiProgram<Batch, PriceState, PriceOutput>::
                       Engine::Invocation {
            support::Xoshiro256 rng(support::entropySeed());
            const auto &terms =
                workload->terms[static_cast<std::size_t>(batch.swaption)];
            double ops = simulateBatch(state, batch, terms, params, rng);
            // The float tradeoffs buy throughput (vectorized lanes).
            if (params.floatRatePath)
                ops *= 0.72;
            if (params.floatDiscount)
                ops *= 0.9;
            (void)auxiliary;

            auto output = std::make_unique<PriceOutput>();
            output->swaption = batch.swaption;
            output->runningPrice =
                state.trials > 0
                    ? state.sumPayoff / static_cast<double>(state.trials)
                    : 0.0;
            output->lastBatchOfSwaption =
                batch.indexInSwaption == kBatchesPerSwaption - 1;
            const double eff = platform::effectiveParallelism(
                machine, ctx.innerThreads, innerModel().memBound);
            return {std::move(output),
                    innerModel().work(ops * kOpSeconds,
                                      ctx.innerThreads, eff)};
        };
    };
    program.compute = make_compute(original_params, false);
    program.auxiliary = make_compute(aux_params, true);

    // By construction, any accumulator the auxiliary code produces is
    // a value the nondeterministic original producer could have
    // produced (partial Monte-Carlo means are unbiased), so no state
    // comparison is needed (paper section 4.2).
    program.matcher = sdi::alwaysMatch<PriceState>();

    program.appendSignature = [](const PriceOutput &out,
                                 std::vector<double> &signature) {
        if (out.lastBatchOfSwaption)
            signature.push_back(out.runningPrice);
    };

    const sdi::SpecConfig spec =
        specConfigFor(space, config, request.mode, request.threads);
    sdi::SpecConfig policy_spec = spec;
    applyPolicy(request.policy, program, policy_spec);
    return runSdiProgram(program, policy_spec, request);
}

std::vector<double>
SwaptionsBenchmark::oracleSignature(WorkloadKind kind,
                                    std::uint64_t workload_seed)
{
    const auto key = std::make_pair(static_cast<int>(kind), workload_seed);
    auto it = _oracleCache.find(key);
    if (it != _oracleCache.end())
        return it->second;

    // Oracle: many more trials than the default run, averaged.
    const Workload workload = makeWorkload(kind, workload_seed);
    const McParams params{false, false};
    std::vector<double> oracle(kSwaptions, 0.0);
    support::Xoshiro256 rng(0x5af3);
    constexpr int kOracleReps = 8;
    for (int rep = 0; rep < kOracleReps; ++rep) {
        PriceState state;
        for (const auto &batch : workload.batches) {
            const auto &terms =
                workload.terms[static_cast<std::size_t>(batch.swaption)];
            simulateBatch(state, batch, terms, params, rng);
            if (batch.indexInSwaption == kBatchesPerSwaption - 1) {
                oracle[static_cast<std::size_t>(batch.swaption)] +=
                    state.sumPayoff / static_cast<double>(state.trials);
            }
        }
    }
    for (double &price : oracle)
        price /= kOracleReps;
    _oracleCache.emplace(key, oracle);
    return oracle;
}

double
SwaptionsBenchmark::quality(const std::vector<double> &signature,
                            const std::vector<double> &oracle) const
{
    // Paper: average relative difference between the prices.
    return quality::averageRelativeDifference(signature, oracle, 1e-6);
}

} // namespace stats::benchmarks::swaptions
