/**
 * @file
 * Reimplementation of PARSEC's fluidanimate (paper sections 4.2, 4.8).
 *
 * A smoothed-particle-hydrodynamics style fluid simulation advances a
 * particle system through time frames; the fluid condition (particle
 * positions and velocities) carried between frames is the state
 * dependence. The per-step force accumulation carries a tiny random
 * perturbation that stands in for the floating-point reordering races
 * of the original multi-threaded code (the paper's Figure 2 lists
 * fluidanimate's variability as race-condition induced).
 *
 * This benchmark deliberately has the *full-history* property: the
 * fluid state at step i requires all previous steps, so auxiliary
 * code that starts from the initial state and a window of recent
 * inputs can never reproduce it. STATS must learn (via its runtime
 * checks and autotuner) to satisfy this dependence conventionally —
 * the paper includes fluidanimate exactly "to test the limits of
 * STATS".
 *
 * Tradeoffs: the sqrt implementation, the data types of three
 * simulation variables, and the x/y/z dimensions of the per-thread
 * simulation prism.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "benchmarks/common/benchmark.hpp"
#include "benchmarks/common/vec.hpp"
#include "support/rng.hpp"

namespace stats::benchmarks::fluidanimate {

constexpr int kParticles = 160;
constexpr int kSteps = 32;

/** One simulation time frame — the input. */
struct TimeStep
{
    int id = 0;
    double dt = 0.004;
};

/** The fluid condition — the dependence-carried state. */
struct Fluid
{
    std::vector<Vec3> positions;
    std::vector<Vec3> velocities;

    /** Average Euclidean distance between particle positions. */
    double distance(const Fluid &other) const;
};

/** Positions after one frame — the output. */
struct FrameOutput
{
    int step = 0;
    bool last = false;
    std::vector<Vec3> positions;
};

/** Simulation parameters bound from tradeoff values. */
struct SphParams
{
    int sqrtVariant = 0; ///< 0 exact, 1 two-step Newton, 2 table.
    bool floatDensity = false;
    bool floatPressure = false;
    bool floatViscosity = false;
    int prismX = 2;
    int prismY = 2;
    int prismZ = 1;
};

struct Workload
{
    Fluid initial;
    std::vector<TimeStep> steps;
};

/** A randomly perturbed block of fluid released inside a unit box. */
Workload makeWorkload(WorkloadKind kind, std::uint64_t seed);

/** Advance the fluid one frame; returns the abstract op count. */
double advanceFrame(Fluid &fluid, const TimeStep &step,
                    const SphParams &params, support::Xoshiro256 &rng);

/** The fluidanimate benchmark. */
class FluidanimateBenchmark : public Benchmark
{
  public:
    FluidanimateBenchmark();

    std::string name() const override { return "fluidanimate"; }
    tradeoff::StateSpace stateSpace(int threads) const override;
    int tradeoffCount() const override { return 9; }
    RunResult run(const RunRequest &request) override;
    double quality(const std::vector<double> &signature,
                   const std::vector<double> &oracle) const override;

    /** Single-original acceptance tolerance on the fluid distance. */
    static constexpr double kMatchTolerance = 2.0e-4;

  protected:
    std::vector<double>
    computeOracle(WorkloadKind kind,
                  std::uint64_t workload_seed) const override;

  private:
    tradeoff::Registry _registry;
};

} // namespace stats::benchmarks::fluidanimate
