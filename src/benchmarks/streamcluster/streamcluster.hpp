/**
 * @file
 * Reimplementation of PARSEC's streamcluster and its classification
 * variant streamclassifier (paper section 4.2).
 *
 * An online k-median-style algorithm consumes a stream of candidate
 * points and maintains a current solution (a set of weighted
 * centroids). Candidate centroids are opened probabilistically — a
 * randomized local-search decision — and the solution is updated
 * point by point: these updates serialize the execution and are the
 * state dependence. Auxiliary code rebuilds a solution from a window
 * of recent candidates; since the stream is stationary, the result is
 * a solution the nondeterministic original could have produced — by
 * construction no comparison function is needed.
 *
 * Tradeoffs: the data types of three variables used to estimate the
 * quality of the current solution, plus the maximum and minimum
 * number of clusters.
 *
 * streamcluster's quality metric is the difference of Davies-Bouldin
 * indices; streamclassifier's is the difference of B-cubed metrics
 * against the generator's gold labels.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "benchmarks/common/benchmark.hpp"
#include "support/rng.hpp"

namespace stats::benchmarks::streamcluster {

constexpr int kDim = 4;
constexpr int kBatches = 96;
constexpr int kPointsPerBatch = 8;
constexpr int kTrueClusters = 8;

using Point = std::array<double, kDim>;

/** One batch of stream points — the input. */
struct PointBatch
{
    int id = 0;
    std::vector<Point> points;
    std::vector<int> gold; ///< Generating mixture component.
};

/** A weighted centroid of the current solution. */
struct Centroid
{
    Point pos{};
    double weight = 0.0;
};

/** The current solution — the dependence-carried state. */
struct Solution
{
    std::vector<Centroid> centroids;
    double facilityCost = 4.0;

    /** Index of the nearest centroid (-1 when empty). */
    int nearest(const Point &p) const;

    /** Squared distance to the nearest centroid (inf when empty). */
    double nearestDistance2(const Point &p) const;
};

/** Snapshot of the solution after one batch — the output. */
struct SolutionSnapshot
{
    int batchId = 0;
    std::vector<Centroid> centroids;
};

/** Parameters bound from tradeoff values. */
struct ClusterParams
{
    int maxClusters = 16;
    int minClusters = 4;
    bool floatDistance = false;
    bool floatCost = false;
    bool floatWeight = false;
};

struct Workload
{
    std::vector<PointBatch> batches;
    std::vector<Point> allPoints;
    std::vector<int> allGold;
};

/**
 * Representative: a stationary Gaussian mixture.
 * Non-representative (paper section 4.6): "points overlap in the
 * multidimensional space".
 */
Workload makeWorkload(WorkloadKind kind, std::uint64_t seed);

/** Process one batch of candidates; returns the abstract op count. */
double processBatch(Solution &solution, const PointBatch &batch,
                    const ClusterParams &params,
                    support::Xoshiro256 &rng);

/** Assign every point to its final centroid. */
std::vector<int> assignAll(const std::vector<Point> &points,
                           const Solution &solution);

/** Shared implementation of the two stream benchmarks. */
class StreamBenchmarkBase : public Benchmark
{
  public:
    explicit StreamBenchmarkBase(bool classifier);

    std::string name() const override;
    tradeoff::StateSpace stateSpace(int threads) const override;
    int tradeoffCount() const override { return 7; }
    RunResult run(const RunRequest &request) override;
    double quality(const std::vector<double> &signature,
                   const std::vector<double> &oracle) const override;

  protected:
    std::vector<double>
    computeOracle(WorkloadKind kind,
                  std::uint64_t workload_seed) const override;

  private:
    /** Domain metric of a finished run: DB index or B-cubed F1. */
    double scoreOf(const Workload &workload,
                   const Solution &final_solution) const;

    bool _classifier;
    tradeoff::Registry _registry;
};

/** streamcluster: clustering quality via Davies-Bouldin. */
class StreamclusterBenchmark : public StreamBenchmarkBase
{
  public:
    StreamclusterBenchmark() : StreamBenchmarkBase(false) {}
};

/** streamclassifier: classification quality via B-cubed. */
class StreamclassifierBenchmark : public StreamBenchmarkBase
{
  public:
    StreamclassifierBenchmark() : StreamBenchmarkBase(true) {}
};

} // namespace stats::benchmarks::streamcluster
