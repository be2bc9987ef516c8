#include "benchmarks/swaptions/swaptions.hpp"

#include <algorithm>
#include <cmath>

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

namespace {

/**
 * Trials advanced together as lanes. A block's shocks, rates and
 * floored-rate sums (or float discounts) take 7 KB, so they stay in
 * L1 while the block runs.
 */
constexpr int kLanes = 64;

/** One block's lanes, structure of arrays. */
struct LaneBlock
{
    /** shock[step][lane]: the block's draws, transposed. */
    double shock[kPathSteps][kLanes];
    double rate[kLanes];
    /** The floored-rate sum, or the float discount under that
     *  tradeoff. */
    double discount[kLanes];
};

/**
 * Advance `lanes` trials' short-rate paths (Vasicek dynamics) one
 * step at a time across all lanes. Each lane runs the same IEEE
 * operations, in the same order, as one trial run alone; the tradeoff
 * branches are hoisted out of the lane loops.
 */
template <bool FloatRate, bool FloatDiscount>
void
advanceLanes(LaneBlock &block, int lanes, const SwaptionTerms &terms,
             double dt, double sqrt_dt)
{
    // Locals, so the lane loops need not reload them after each store.
    const double mean_reversion = terms.meanReversion;
    const double long_term_rate = terms.longTermRate;
    const double vol_sqrt_dt = terms.volatility * sqrt_dt;
    for (int lane = 0; lane < lanes; ++lane) {
        block.rate[lane] = terms.rate0;
        // The double discount is one exp of the summed floored rates;
        // the float tradeoff keeps its per-step rounded product.
        block.discount[lane] = FloatDiscount ? 1.0 : 0.0;
    }
    for (int step = 0; step < kPathSteps; ++step) {
        const double *shock = block.shock[step];
        for (int lane = 0; lane < lanes; ++lane) {
            double rate = block.rate[lane];
            rate += mean_reversion * (long_term_rate - rate) * dt +
                    vol_sqrt_dt * shock[lane];
            if (FloatRate)
                rate = static_cast<float>(rate);
            if (FloatDiscount)
                block.discount[lane] = static_cast<float>(
                    block.discount[lane] *
                    std::exp(-std::max(rate, -0.5) * dt));
            else
                block.discount[lane] += std::max(rate, -0.5);
            block.rate[lane] = rate;
        }
    }
    if (!FloatDiscount) {
        for (int lane = 0; lane < lanes; ++lane)
            block.discount[lane] = std::exp(-dt * block.discount[lane]);
    }
}

} // namespace

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
    const auto advance =
        params.floatRatePath
            ? (params.floatDiscount ? advanceLanes<true, true>
                                    : advanceLanes<true, false>)
            : (params.floatDiscount ? advanceLanes<false, true>
                                    : advanceLanes<false, false>);
    LaneBlock block;
    for (int first = 0; first < batch.trials; first += kLanes) {
        const int lanes = std::min(kLanes, batch.trials - first);
        // Draw in trial order, as one trial after another would.
        for (int lane = 0; lane < lanes; ++lane) {
            for (int step = 0; step < kPathSteps; ++step)
                block.shock[step][lane] = rng.gaussian();
        }
        advance(block, lanes, terms, dt, sqrt_dt);
        // Accumulate in trial order.
        for (int lane = 0; lane < lanes; ++lane) {
            const double payoff =
                std::max(block.rate[lane] - terms.strike, 0.0) *
                block.discount[lane] * 100.0;
            state.sumPayoff += payoff;
            state.sumSquares += payoff * payoff;
            ++state.trials;
        }
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
    return stateSpaceFor(_registry, threads);
}

namespace {

McParams
paramsFrom(const tradeoff::Registry &registry,
           const tradeoff::Assignment &assignment, bool auxiliary)
{
    const std::string prefix = auxiliary ? tradeoff::kAuxPrefix : "";
    McParams params;
    params.floatRatePath =
        registry.nameValue(prefix + "typeRatePath", assignment) ==
        "float";
    params.floatDiscount =
        registry.nameValue(prefix + "typeDiscount", assignment) ==
        "float";
    return params;
}

using Program = SdiProgram<Batch, PriceState, PriceOutput>;

Program
buildProgram(const Workload &workload, const McParams &original,
             const McParams &aux, const sim::MachineConfig &machine)
{
    Program program;
    program.inputs = workload.batches;

    const auto make_compute = [&workload, machine](McParams params) {
        return [&workload, machine, params](
                   const Batch &batch, PriceState &state,
                   const sdi::ComputeContext &ctx)
                   -> Program::Engine::Invocation {
            support::Xoshiro256 rng(support::entropySeed());
            const auto &terms =
                workload.terms[static_cast<std::size_t>(batch.swaption)];
            double ops = simulateBatch(state, batch, terms, params, rng);
            // The float tradeoffs buy throughput (vectorized lanes).
            if (params.floatRatePath)
                ops *= 0.72;
            if (params.floatDiscount)
                ops *= 0.9;

            auto output = std::make_unique<PriceOutput>();
            output->swaption = batch.swaption;
            output->runningPrice =
                state.trials > 0
                    ? state.sumPayoff / static_cast<double>(state.trials)
                    : 0.0;
            output->lastBatchOfSwaption =
                batch.indexInSwaption == kBatchesPerSwaption - 1;
            return {std::move(output),
                    innerModel().workOn(machine, ops * kOpSeconds,
                                        ctx.innerThreads)};
        };
    };
    program.compute = make_compute(original);
    program.auxiliary = make_compute(aux);

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
    return program;
}

} // namespace

RunResult
SwaptionsBenchmark::run(const RunRequest &request)
{
    return runSdiBenchmark(
        request, _registry,
        makeWorkload(request.workload, request.workloadSeed),
        paramsFrom, buildProgram);
}

std::vector<double>
SwaptionsBenchmark::computeOracle(WorkloadKind kind,
                                  std::uint64_t workload_seed) const
{
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
