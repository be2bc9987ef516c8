#include "benchmarks/fluidanimate/fluidanimate.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "benchmarks/common/sdi_runner.hpp"
#include "platform/cost_model.hpp"
#include "quality/metrics.hpp"

namespace stats::benchmarks::fluidanimate {

namespace {

constexpr double kOpSeconds = 4.0e-7;
constexpr double kSmoothing = 0.14; ///< SPH kernel radius.
constexpr double kRestDensity = 22.0;
constexpr double kStiffness = 30.0;
constexpr double kViscosity = 3.5;
constexpr double kGravity = -9.8;
constexpr double kRaceNoise = 1.0e-7;

/**
 * fluidanimate's original TLP partitions space into per-thread
 * prisms and scales well within a socket, but is strongly
 * memory-bound (NUMA-sensitive once both sockets are used).
 */
platform::InnerParallelModel
innerModel(const SphParams &params)
{
    platform::InnerParallelModel model{
        /* serialFraction */ 0.03,
        /* syncCostPerThread */ 2.5e-5,
        /* memBound */ 0.45,
    };
    // Flatter prisms exchange more halo data: mild sync penalty.
    const double cells = static_cast<double>(params.prismX) *
                         params.prismY * params.prismZ;
    const double surface = 2.0 * (params.prismX * params.prismY +
                                  params.prismY * params.prismZ +
                                  params.prismX * params.prismZ);
    model.syncCostPerThread *= 0.5 + 0.1 * surface / cells;
    return model;
}

/** The sqrt tradeoff: exact, two-Newton-step, or table lookup. */
double
sqrtVariant(double x, int variant)
{
    switch (variant) {
      case 1: {
        // Two Newton iterations from a cheap initial guess.
        if (x <= 0.0)
            return 0.0;
        double guess = x > 1.0 ? x * 0.5 : 1.0;
        guess = 0.5 * (guess + x / guess);
        guess = 0.5 * (guess + x / guess);
        return guess;
      }
      case 2: {
        // Piecewise-linear table on [0, 4).
        if (x <= 0.0)
            return 0.0;
        static const double table[] = {0.0,  0.5,  0.707, 0.866,
                                       1.0,  1.118, 1.224, 1.323,
                                       1.414, 1.5,  1.581, 1.658,
                                       1.732, 1.803, 1.871, 1.936, 2.0};
        const double scaled = std::min(x, 3.999) * 4.0;
        const int idx = static_cast<int>(scaled);
        const double frac = scaled - idx;
        return table[idx] * (1.0 - frac) + table[idx + 1] * frac;
      }
      default:
        return std::sqrt(x);
    }
}

} // namespace

double
Fluid::distance(const Fluid &other) const
{
    double total = 0.0;
    const std::size_t n =
        std::min(positions.size(), other.positions.size());
    for (std::size_t i = 0; i < n; ++i)
        total += (positions[i] - other.positions[i]).norm();
    return n ? total / static_cast<double>(n) : 0.0;
}

Workload
makeWorkload(WorkloadKind kind, std::uint64_t seed)
{
    support::Xoshiro256 rng(seed * 0xf1a1dULL + 31);
    Workload workload;
    workload.initial.positions.reserve(kParticles);
    workload.initial.velocities.reserve(kParticles);

    // A block of fluid released in a corner of the unit box; the
    // non-representative variant packs it into a thin sheet.
    for (int i = 0; i < kParticles; ++i) {
        Vec3 p{rng.uniform(0.1, 0.5), rng.uniform(0.4, 0.9),
               rng.uniform(0.1, 0.5)};
        if (kind == WorkloadKind::NonRepresentative)
            p.z = 0.3 + 0.01 * rng.nextDouble();
        workload.initial.positions.push_back(p);
        workload.initial.velocities.push_back(
            {rng.uniform(-0.05, 0.05), 0.0, rng.uniform(-0.05, 0.05)});
    }
    for (int t = 0; t < kSteps; ++t)
        workload.steps.push_back(TimeStep{t, 0.004});
    return workload;
}

double
advanceFrame(Fluid &fluid, const TimeStep &step, const SphParams &params,
             support::Xoshiro256 &rng)
{
    const std::size_t n = fluid.positions.size();
    const double h = kSmoothing;
    const double h2 = h * h;
    double ops = 0.0;

    // Densities (gather over neighbours; O(n^2) at this scale, the
    // original uses a cell grid — the cost model accounts for that).
    std::vector<double> density(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            const double r2 = (fluid.positions[i] - fluid.positions[j])
                                  .norm2();
            if (r2 < h2) {
                const double w = (h2 - r2) * (h2 - r2) * (h2 - r2);
                density[i] += w;
                if (j != i)
                    density[j] += w;
                ops += 14.0;
            }
        }
    }
    const double kernel_norm = 315.0 / (64.0 * M_PI * std::pow(h, 9.0));
    for (std::size_t i = 0; i < n; ++i) {
        density[i] *= kernel_norm;
        if (params.floatDensity)
            density[i] = static_cast<float>(density[i]);
    }

    // Pressure + viscosity forces and integration.
    std::vector<Vec3> force(n, Vec3{0.0, 0.0, 0.0});
    for (std::size_t i = 0; i < n; ++i) {
        double pi = kStiffness * (density[i] - kRestDensity);
        if (params.floatPressure)
            pi = static_cast<float>(pi);
        for (std::size_t j = i + 1; j < n; ++j) {
            const Vec3 delta = fluid.positions[i] - fluid.positions[j];
            const double r2 = delta.norm2();
            if (r2 >= h2 || r2 <= 0.0)
                continue;
            const double r = sqrtVariant(r2, params.sqrtVariant);
            double pj = kStiffness * (density[j] - kRestDensity);
            const double shared =
                (pi + pj) * 0.5 * (h - r) * (h - r) / std::max(r, 1e-9);
            Vec3 f = delta * shared;
            double visc = kViscosity * (h - r);
            if (params.floatViscosity)
                visc = static_cast<float>(visc);
            f += (fluid.velocities[j] - fluid.velocities[i]) * visc;
            force[i] += f;
            force[j] += f * -1.0;
            ops += 30.0;
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        const double rho = std::max(density[i], 1.0);
        Vec3 accel = force[i] * (1.0 / rho);
        accel.y += kGravity;
        // Race-reordering noise: independent runs differ slightly.
        accel += Vec3{rng.gaussian(0.0, kRaceNoise),
                      rng.gaussian(0.0, kRaceNoise),
                      rng.gaussian(0.0, kRaceNoise)};
        fluid.velocities[i] += accel * step.dt;
        fluid.positions[i] += fluid.velocities[i] * step.dt;

        // Box walls with damping.
        auto clamp_axis = [](double &pos, double &vel) {
            if (pos < 0.0) {
                pos = 0.0;
                vel = -vel * 0.4;
            } else if (pos > 1.0) {
                pos = 1.0;
                vel = -vel * 0.4;
            }
        };
        clamp_axis(fluid.positions[i].x, fluid.velocities[i].x);
        clamp_axis(fluid.positions[i].y, fluid.velocities[i].y);
        clamp_axis(fluid.positions[i].z, fluid.velocities[i].z);
        ops += 20.0;
    }

    // Cheaper sqrt variants buy a little throughput.
    if (params.sqrtVariant == 1)
        ops *= 0.93;
    else if (params.sqrtVariant == 2)
        ops *= 0.85;
    return ops;
}

FluidanimateBenchmark::FluidanimateBenchmark()
{
    using tradeoff::IntRangeOptions;
    using tradeoff::NameListOptions;
    using tradeoff::TradeoffValue;

    const std::vector<std::string> types{"double", "float"};
    _registry.add("sqrtImpl",
                  std::make_unique<NameListOptions>(
                      TradeoffValue::Kind::FunctionName,
                      std::vector<std::string>{"sqrt_exact",
                                               "sqrt_newton2",
                                               "sqrt_table"},
                      0));
    _registry.add("typeDensity",
                  std::make_unique<NameListOptions>(
                      TradeoffValue::Kind::TypeName, types, 0));
    _registry.add("typePressure",
                  std::make_unique<NameListOptions>(
                      TradeoffValue::Kind::TypeName, types, 0));
    _registry.add("typeViscosity",
                  std::make_unique<NameListOptions>(
                      TradeoffValue::Kind::TypeName, types, 0));
    _registry.add("prismX", std::make_unique<IntRangeOptions>(1, 3, 1, 1));
    _registry.add("prismY", std::make_unique<IntRangeOptions>(1, 3, 1, 1));
    _registry.add("prismZ", std::make_unique<IntRangeOptions>(1, 3, 1, 0));
    for (const auto &name :
         {"sqrtImpl", "typeDensity", "typePressure", "typeViscosity",
          "prismX", "prismY", "prismZ"}) {
        _registry.cloneForAuxiliary(name);
    }
}

tradeoff::StateSpace
FluidanimateBenchmark::stateSpace(int threads) const
{
    tradeoff::StateSpace space;
    addRuntimeDimensions(space, threads);
    for (const auto &name : _registry.auxNames()) {
        const auto &t = _registry.get(name);
        space.add(name, t.valueCount(), t.options().getDefaultIndex());
    }
    return space;
}

SphParams
FluidanimateBenchmark::paramsFrom(const tradeoff::Assignment &assignment,
                                  bool auxiliary) const
{
    const std::string prefix = auxiliary ? tradeoff::kAuxPrefix : "";
    SphParams params;
    const std::string sqrt_name =
        _registry.nameValue(prefix + "sqrtImpl", assignment);
    params.sqrtVariant = sqrt_name == "sqrt_newton2" ? 1
                         : sqrt_name == "sqrt_table" ? 2
                                                     : 0;
    params.floatDensity =
        _registry.nameValue(prefix + "typeDensity", assignment) ==
        "float";
    params.floatPressure =
        _registry.nameValue(prefix + "typePressure", assignment) ==
        "float";
    params.floatViscosity =
        _registry.nameValue(prefix + "typeViscosity", assignment) ==
        "float";
    params.prismX = static_cast<int>(
        _registry.intValue(prefix + "prismX", assignment));
    params.prismY = static_cast<int>(
        _registry.intValue(prefix + "prismY", assignment));
    params.prismZ = static_cast<int>(
        _registry.intValue(prefix + "prismZ", assignment));
    return params;
}

RunResult
FluidanimateBenchmark::run(const RunRequest &request)
{
    const Workload workload =
        makeWorkload(request.workload, request.workloadSeed);
    const tradeoff::StateSpace space = stateSpace(request.threads);
    const tradeoff::Configuration config =
        request.config.empty() ? space.defaultConfiguration()
                               : request.config;
    const tradeoff::Assignment assignment =
        assignmentFor(space, config, _registry);

    const SphParams original_params =
        paramsFrom(_registry.defaults(), false);
    const SphParams aux_params = paramsFrom(assignment, true);

    std::optional<support::ScopedDeterministicSeeds> pinned;
    if (request.runSeed != 0)
        pinned.emplace(request.runSeed);

    SdiProgram<TimeStep, Fluid, FrameOutput> program;
    program.inputs = workload.steps;
    program.initialState = workload.initial;

    const sim::MachineConfig machine = request.machine;
    const auto make_compute = [machine](SphParams params) {
        return [machine, params](const TimeStep &step, Fluid &fluid,
                        const sdi::ComputeContext &ctx)
                   -> SdiProgram<TimeStep, Fluid, FrameOutput>::
                       Engine::Invocation {
            support::Xoshiro256 rng(support::entropySeed());
            const double ops = advanceFrame(fluid, step, params, rng);
            auto output = std::make_unique<FrameOutput>();
            output->step = step.id;
            output->last = step.id == kSteps - 1;
            output->positions = fluid.positions;
            const double eff = platform::effectiveParallelism(
                machine, ctx.innerThreads, innerModel(params).memBound);
            return {std::move(output),
                    innerModel(params).work(ops * kOpSeconds,
                                            ctx.innerThreads, eff)};
        };
    };
    program.compute = make_compute(original_params);
    program.auxiliary = make_compute(aux_params);

    // Bracket rule on the fluid distance (like bodytrack's): because
    // the fluid state needs the *whole* history, the speculative
    // state is always far outside the run-to-run spread and the
    // comparison fails (paper section 4.8).
    program.matcher = [](const Fluid &spec,
                         const std::vector<Fluid> &originals) -> int {
        for (std::size_t a = 0; a < originals.size(); ++a) {
            const double d = spec.distance(originals[a]);
            if (originals.size() == 1) {
                if (d <= kMatchTolerance)
                    return 0;
                continue;
            }
            for (std::size_t b = 0; b < originals.size(); ++b) {
                if (b != a && d <= originals[b].distance(originals[a]))
                    return static_cast<int>(a);
            }
        }
        return -1;
    };

    program.appendSignature = [](const FrameOutput &out,
                                 std::vector<double> &signature) {
        if (!out.last)
            return;
        for (const auto &p : out.positions) {
            signature.push_back(p.x);
            signature.push_back(p.y);
            signature.push_back(p.z);
        }
    };

    const sdi::SpecConfig spec =
        specConfigFor(space, config, request.mode, request.threads);
    sdi::SpecConfig policy_spec = spec;
    applyPolicy(request.policy, program, policy_spec);
    return runSdiProgram(program, policy_spec, request);
}

std::vector<double>
FluidanimateBenchmark::oracleSignature(WorkloadKind kind,
                                       std::uint64_t workload_seed)
{
    const auto key = std::make_pair(static_cast<int>(kind), workload_seed);
    auto it = _oracleCache.find(key);
    if (it != _oracleCache.end())
        return it->second;

    const Workload workload = makeWorkload(kind, workload_seed);
    const SphParams params; // Exact sqrt, double everywhere.
    std::vector<std::vector<double>> runs;
    for (int rep = 0; rep < 3; ++rep) {
        support::Xoshiro256 rng(0xf1 + static_cast<unsigned>(rep));
        Fluid fluid = workload.initial;
        for (const auto &step : workload.steps)
            advanceFrame(fluid, step, params, rng);
        std::vector<double> signature;
        for (const auto &p : fluid.positions) {
            signature.push_back(p.x);
            signature.push_back(p.y);
            signature.push_back(p.z);
        }
        runs.push_back(std::move(signature));
    }
    auto oracle = averageSignatures(runs);
    _oracleCache.emplace(key, oracle);
    return oracle;
}

double
FluidanimateBenchmark::quality(const std::vector<double> &signature,
                               const std::vector<double> &oracle) const
{
    // Paper: average Euclidean distance between particle positions.
    return quality::averageEuclideanDistance(signature, oracle, 3);
}

} // namespace stats::benchmarks::fluidanimate
