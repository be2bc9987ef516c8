/**
 * @file
 * Reimplementation of the paper's facedet benchmark (OpenCV face
 * detection on a video stream, paper section 4.2).
 *
 * A randomized particle filter updates the position of a detected
 * face box at each frame, exploiting the position found in the
 * previous frame — the state dependence. Tradeoffs: the number of
 * particles and the number of Gaussian-noise rounds (plus two minor
 * ones: the perturbation magnitude and the likelihood precision).
 * State comparison: average Euclidean distance of the four corners
 * of the face box (paper's measure) under the same bracket rule as
 * bodytrack.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "benchmarks/common/benchmark.hpp"
#include "benchmarks/common/vec.hpp"
#include "support/rng.hpp"

namespace stats::benchmarks::facedet {

/** Frames in the synthetic 40-second video. */
constexpr int kFrames = 100;

/** A face bounding box in image coordinates. */
struct FaceBox
{
    Vec2 center;
    double width = 80.0;
    double height = 100.0;

    /** The four corners, clockwise from top-left. */
    std::array<Vec2, 4> corners() const;

    /** Average Euclidean distance of the four corners. */
    double cornerDistance(const FaceBox &other) const;
};

/** One video frame, reduced to a noisy face-box observation. */
struct Frame
{
    int id = 0;
    FaceBox observed;
};

/** One particle: a face-box hypothesis. */
struct Particle
{
    FaceBox box;
    double logWeight = 0.0;
};

/** The dependence-carried state: the belief about the face. */
struct FaceModel
{
    std::vector<Particle> particles;

    FaceBox estimate() const;
    double distance(const FaceModel &other) const;
};

/** The output: the detected face box for one frame. */
struct Detection
{
    FaceBox box;
};

/** Filter parameters bound from tradeoff values. */
struct FilterParams
{
    int particles = 60;
    int noiseRounds = 4;
    double noiseSigma = 6.0;
    bool singlePrecision = false;
};

struct Workload
{
    std::vector<Frame> frames;
    std::vector<FaceBox> truth;
};

/**
 * Representative: a person moves in front of the camera.
 * Non-representative (paper section 4.6): the face does not move.
 */
Workload makeWorkload(WorkloadKind kind, std::uint64_t seed,
                      int frames = kFrames);

FaceModel makeInitialModel(const Workload &workload,
                           const FilterParams &params);

/** One particle-filter update; returns the abstract op count. */
double updateModel(FaceModel &model, const Frame &frame,
                   const FilterParams &params,
                   support::Xoshiro256 &rng);

/** The facedet benchmark. */
class FacedetBenchmark : public Benchmark
{
  public:
    FacedetBenchmark();

    std::string name() const override { return "facedet"; }
    tradeoff::StateSpace stateSpace(int threads) const override;
    int tradeoffCount() const override { return 6; }
    RunResult run(const RunRequest &request) override;
    double quality(const std::vector<double> &signature,
                   const std::vector<double> &oracle) const override;
    bool supportsQualityIteration() const override { return true; }

    /** Single-original acceptance tolerance, in pixels. */
    static constexpr double kMatchTolerance = 12.0;

  protected:
    std::vector<double>
    computeOracle(WorkloadKind kind,
                  std::uint64_t workload_seed) const override;

  private:
    tradeoff::Registry _registry;
};

} // namespace stats::benchmarks::facedet
