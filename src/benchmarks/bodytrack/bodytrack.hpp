/**
 * @file
 * Reimplementation of PARSEC's bodytrack (paper sections 2.2, 4.2).
 *
 * An annealed particle filter tracks a 5-part body moving through 3-D
 * space across a stream of frames. Analyzing frame i consumes the
 * model produced by frame i-1 — the paper's canonical state
 * dependence. The filter is randomized (resampling and particle
 * perturbation draw from a freshly-seeded PRVG), so independent runs
 * produce slightly different, equally-acceptable part positions.
 *
 * Tradeoffs (paper Table 1 / section 4.2): the number of simulated
 * annealing layers, the number of particles, and the precision of the
 * perturbation variable. State comparison: the paper's rule — the
 * speculative state is accepted if its distance to an original state
 * is within the spread of the original states themselves, where
 * distance is the sum of absolute part-position differences. With a
 * single original state available the comparison falls back to a
 * developer-calibrated tolerance on the same distance (the paper
 * leaves single-original strictness to the developer).
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "benchmarks/common/benchmark.hpp"
#include "benchmarks/common/vec.hpp"
#include "support/rng.hpp"

namespace stats::benchmarks::bodytrack {

/** Number of tracked body parts. */
constexpr int kParts = 5;

/** Frames in the (native-like) input stream. */
constexpr int kFrames = 96;

/** One camera quadruple, reduced to per-part noisy observations. */
struct Frame
{
    int id = 0;
    std::array<Vec3, kParts> observed;
};

/** One particle: a body-pose hypothesis. */
struct Particle
{
    std::array<Vec3, kParts> pos;
    double logWeight = 0.0;
};

/** The model of the body — the dependence-carried state. */
struct BodyModel
{
    std::vector<Particle> particles;

    /** Current belief: mean part positions. */
    std::array<Vec3, kParts> estimate() const;

    /** Paper's distance: sum of absolute part-position differences. */
    double distance(const BodyModel &other) const;
};

/** Estimated part positions for one frame — the output. */
struct Positions
{
    std::array<Vec3, kParts> estimate;
};

/** Filter parameters; tradeoff values feed these. */
struct FilterParams
{
    int annealingLayers = 5;
    int particles = 50;
    bool singlePrecision = false;
};

/** The generated input stream plus ground truth. */
struct Workload
{
    std::vector<Frame> frames;
    std::vector<std::array<Vec3, kParts>> truth;
};

/**
 * Generate a workload. Representative: the body follows a smooth
 * random trajectory. Non-representative (paper section 4.6): "the
 * subject does not move across quadruples".
 */
Workload makeWorkload(WorkloadKind kind, std::uint64_t seed,
                      int frames = kFrames);

/** Initial model: a broad particle cloud around the first frame. */
BodyModel makeInitialModel(const Workload &workload,
                           const FilterParams &params);

/**
 * One annealed particle-filter update (the paper's updateModel()).
 *
 * @return abstract operation count, for the platform cost model.
 */
double updateModel(BodyModel &model, const Frame &frame,
                   const FilterParams &params,
                   support::Xoshiro256 &rng);

/** The bodytrack benchmark. */
class BodytrackBenchmark : public Benchmark
{
  public:
    BodytrackBenchmark();

    std::string name() const override { return "bodytrack"; }
    tradeoff::StateSpace stateSpace(int threads) const override;
    int tradeoffCount() const override { return 5; }
    RunResult run(const RunRequest &request) override;
    double quality(const std::vector<double> &signature,
                   const std::vector<double> &oracle) const override;
    bool supportsQualityIteration() const override { return true; }

    /** Single-original acceptance tolerance of the state comparison. */
    static constexpr double kMatchTolerance = 5.0;

  protected:
    std::vector<double>
    computeOracle(WorkloadKind kind,
                  std::uint64_t workload_seed) const override;

  private:
    tradeoff::Registry _registry;
};

} // namespace stats::benchmarks::bodytrack
