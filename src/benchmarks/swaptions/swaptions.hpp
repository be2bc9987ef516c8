/**
 * @file
 * Reimplementation of PARSEC's swaptions (paper section 4.2).
 *
 * Prices a portfolio of swaptions with Monte-Carlo simulation of a
 * mean-reverting short-rate model. Each swaption's price accumulates
 * over a sequence of trial batches; the accumulator update is the
 * state dependence ("the state dependence is on updating the price of
 * a swaption during the simulation"). The simulation is randomized,
 * so any partial accumulation the auxiliary code produces is a value
 * the original nondeterministic producer could have produced — by
 * construction no state-comparison function is needed (paper
 * section 4.2).
 *
 * Tradeoffs: the data types of two values used during the Monte
 * Carlo simulation (the rate path and the discount factor).
 *
 * Following the paper's input sizing, the portfolio has 34 swaptions
 * (reduced from the native 128 so that bottlenecks manifest below
 * 128 cores).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "benchmarks/common/benchmark.hpp"
#include "support/rng.hpp"

namespace stats::benchmarks::swaptions {

constexpr int kSwaptions = 34;
constexpr int kBatchesPerSwaption = 32;
constexpr int kTrialsPerBatch = 48;
constexpr int kPathSteps = 12;

/** Contract terms of one swaption. */
struct SwaptionTerms
{
    double strike = 0.04;
    double maturityYears = 5.0;
    double rate0 = 0.04;
    double meanReversion = 0.2;
    double longTermRate = 0.045;
    double volatility = 0.01;
};

/** One Monte-Carlo trial batch — the input of the state dependence. */
struct Batch
{
    int swaption = 0;
    int indexInSwaption = 0;
    int trials = kTrialsPerBatch;
};

/** Running price accumulator — the dependence-carried state. */
struct PriceState
{
    int swaption = -1;
    double sumPayoff = 0.0;
    double sumSquares = 0.0;
    long long trials = 0;
};

/** Running price after one batch — the output. */
struct PriceOutput
{
    int swaption = 0;
    double runningPrice = 0.0;
    bool lastBatchOfSwaption = false;
};

/** Simulation parameters bound from tradeoff values. */
struct McParams
{
    bool floatRatePath = false;
    bool floatDiscount = false;
};

struct Workload
{
    std::vector<SwaptionTerms> terms;
    std::vector<Batch> batches;
};

/**
 * Representative: market-plausible strikes/maturities.
 * Non-representative (paper section 4.6): "unrealistic swaption
 * parameters like market strikes and maturity dates".
 */
Workload makeWorkload(WorkloadKind kind, std::uint64_t seed);

/**
 * Run one trial batch, updating the accumulator.
 * @return abstract operation count.
 */
double simulateBatch(PriceState &state, const Batch &batch,
                     const SwaptionTerms &terms, const McParams &params,
                     support::Xoshiro256 &rng);

/** The swaptions benchmark. */
class SwaptionsBenchmark : public Benchmark
{
  public:
    SwaptionsBenchmark();

    std::string name() const override { return "swaptions"; }
    tradeoff::StateSpace stateSpace(int threads) const override;
    int tradeoffCount() const override { return 4; }
    RunResult run(const RunRequest &request) override;
    double quality(const std::vector<double> &signature,
                   const std::vector<double> &oracle) const override;
    bool supportsQualityIteration() const override { return true; }

  protected:
    std::vector<double>
    computeOracle(WorkloadKind kind,
                  std::uint64_t workload_seed) const override;

  private:
    tradeoff::Registry _registry;
};

} // namespace stats::benchmarks::swaptions
