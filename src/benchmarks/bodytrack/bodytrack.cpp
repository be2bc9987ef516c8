#include "benchmarks/bodytrack/bodytrack.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "benchmarks/common/sdi_runner.hpp"
#include "platform/cost_model.hpp"
#include "quality/metrics.hpp"
#include "sdi/matchers.hpp"

namespace stats::benchmarks::bodytrack {

namespace {

/** Virtual seconds per abstract filter operation (cost calibration). */
constexpr double kOpSeconds = 2.4e-7;

/** Observation noise of the synthetic cameras. */
constexpr double kObsSigma = 0.05;

/**
 * Original TLP of bodytrack: the per-frame particle evaluation is
 * parallel, but every annealing layer ends in a resampling barrier —
 * the "more frequent inter-thread synchronizations creating a
 * bottleneck" the paper blames for its limited original scaling
 * (section 4.3). The relatively large per-thread sync cost caps the
 * original speedup around 4-5x.
 */
const platform::InnerParallelModel &
innerModel()
{
    static const platform::InnerParallelModel model{
        /* serialFraction */ 0.055,
        /* syncCostPerThread */ 1.6e-4,
        /* memBound */ 0.15,
    };
    return model;
}

} // namespace

std::array<Vec3, kParts>
BodyModel::estimate() const
{
    std::array<Vec3, kParts> mean{};
    if (particles.empty())
        return mean;
    for (const auto &p : particles) {
        for (int part = 0; part < kParts; ++part)
            mean[static_cast<std::size_t>(part)] +=
                p.pos[static_cast<std::size_t>(part)];
    }
    const double inv = 1.0 / static_cast<double>(particles.size());
    for (auto &m : mean)
        m = m * inv;
    return mean;
}

double
BodyModel::distance(const BodyModel &other) const
{
    const auto a = estimate();
    const auto b = other.estimate();
    double total = 0.0;
    for (int part = 0; part < kParts; ++part)
        total += a[static_cast<std::size_t>(part)].l1Distance(
            b[static_cast<std::size_t>(part)]);
    return total;
}

Workload
makeWorkload(WorkloadKind kind, std::uint64_t seed, int frames)
{
    support::Xoshiro256 rng(seed * 0x9e3779b9ULL + 17);
    Workload workload;
    workload.frames.reserve(static_cast<std::size_t>(frames));
    workload.truth.reserve(static_cast<std::size_t>(frames));

    // Per-part offsets from the body center.
    std::array<Vec3, kParts> offsets;
    for (auto &offset : offsets) {
        offset = {rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                  rng.uniform(-0.3, 0.3)};
    }

    // Smooth pseudo-random walk of the body center.
    const double wx = rng.uniform(0.05, 0.12);
    const double wy = rng.uniform(0.05, 0.12);
    const double phase = rng.uniform(0.0, 6.28);
    Vec3 drift{};
    for (int t = 0; t < frames; ++t) {
        Vec3 center;
        if (kind == WorkloadKind::NonRepresentative) {
            center = {0.2, -0.1, 0.05}; // The subject does not move.
        } else {
            drift += Vec3{rng.gaussian(0.0, 0.01),
                          rng.gaussian(0.0, 0.01),
                          rng.gaussian(0.0, 0.01)};
            center = {std::sin(wx * t + phase) * 0.8 + drift.x,
                      std::cos(wy * t) * 0.6 + drift.y,
                      0.2 * std::sin(0.03 * t) + drift.z};
        }

        Frame frame;
        frame.id = t;
        std::array<Vec3, kParts> truth;
        for (int part = 0; part < kParts; ++part) {
            const auto k = static_cast<std::size_t>(part);
            truth[k] = center + offsets[k];
            frame.observed[k] =
                truth[k] + Vec3{rng.gaussian(0.0, kObsSigma),
                                rng.gaussian(0.0, kObsSigma),
                                rng.gaussian(0.0, kObsSigma)};
        }
        workload.frames.push_back(frame);
        workload.truth.push_back(truth);
    }
    return workload;
}

BodyModel
makeInitialModel(const Workload &workload, const FilterParams &params)
{
    // Broad prior cloud around the first observation: wide enough to
    // cover the whole trajectory, so auxiliary code can re-localize
    // the body from any window of recent frames.
    support::Xoshiro256 rng(7);
    BodyModel model;
    model.particles.resize(static_cast<std::size_t>(params.particles));
    const auto &first = workload.frames.front().observed;
    for (auto &particle : model.particles) {
        for (int part = 0; part < kParts; ++part) {
            const auto k = static_cast<std::size_t>(part);
            particle.pos[k] = first[k] + Vec3{rng.uniform(-1.5, 1.5),
                                              rng.uniform(-1.5, 1.5),
                                              rng.uniform(-1.5, 1.5)};
        }
    }
    return model;
}

namespace {

/** Match the particle count to the current tradeoff setting. */
void
ensureParticleCount(BodyModel &model, int count)
{
    const auto target = static_cast<std::size_t>(std::max(1, count));
    if (model.particles.size() == target)
        return;
    if (model.particles.empty()) {
        model.particles.resize(target);
        return;
    }
    std::vector<Particle> resized;
    resized.reserve(target);
    for (std::size_t i = 0; i < target; ++i)
        resized.push_back(model.particles[i % model.particles.size()]);
    model.particles = std::move(resized);
}

/** Systematic resampling by normalized weights. */
void
resample(BodyModel &model, support::Xoshiro256 &rng)
{
    const std::size_t n = model.particles.size();
    double max_log = model.particles.front().logWeight;
    for (const auto &p : model.particles)
        max_log = std::max(max_log, p.logWeight);

    std::vector<double> cumulative(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total += std::exp(model.particles[i].logWeight - max_log);
        cumulative[i] = total;
    }

    std::vector<Particle> resampled;
    resampled.reserve(n);
    const double step = total / static_cast<double>(n);
    double u = rng.nextDouble() * step; // Random offset: the PRVG.
    std::size_t j = 0;
    for (std::size_t i = 0; i < n; ++i) {
        while (j + 1 < n && cumulative[j] < u)
            ++j;
        resampled.push_back(model.particles[j]);
        resampled.back().logWeight = 0.0;
        u += step;
    }
    model.particles = std::move(resampled);
}

} // namespace

double
updateModel(BodyModel &model, const Frame &frame,
            const FilterParams &params, support::Xoshiro256 &rng)
{
    ensureParticleCount(model, params.particles);
    const int layers = std::max(1, params.annealingLayers);

    double sigma = 0.45;
    for (int layer = 0; layer < layers; ++layer) {
        // Annealing: perturbation shrinks, likelihood sharpens.
        const double beta =
            static_cast<double>(layer + 1) / static_cast<double>(layers);
        const double inv_var =
            beta / (2.0 * kObsSigma * kObsSigma * 16.0);
        for (auto &particle : model.particles) {
            double error = 0.0;
            for (int part = 0; part < kParts; ++part) {
                const auto k = static_cast<std::size_t>(part);
                Vec3 &pos = particle.pos[k];
                pos += Vec3{rng.uniform(-sigma, sigma),
                            rng.uniform(-sigma, sigma),
                            rng.uniform(-sigma, sigma)};
                if (params.singlePrecision) {
                    // The precision tradeoff: one simulation variable
                    // stored as float.
                    pos = {static_cast<float>(pos.x),
                           static_cast<float>(pos.y),
                           static_cast<float>(pos.z)};
                }
                error += (pos - frame.observed[k]).norm2();
            }
            particle.logWeight = -error * inv_var;
        }
        resample(model, rng);
        sigma *= 0.55;
    }

    return static_cast<double>(params.particles) * layers * kParts * 44.0;
}

BodytrackBenchmark::BodytrackBenchmark()
{
    using tradeoff::IntRangeOptions;
    using tradeoff::NameListOptions;
    using tradeoff::TradeoffValue;

    // Paper Figure 10: 10 layer counts, default the 5th.
    _registry.add("numAnnealingLayers",
                  std::make_unique<IntRangeOptions>(1, 10, 1, 4));
    _registry.add("numParticles",
                  std::make_unique<IntRangeOptions>(10, 8, 10, 4));
    _registry.add("precision",
                  std::make_unique<NameListOptions>(
                      TradeoffValue::Kind::TypeName,
                      std::vector<std::string>{"double", "float"}, 0));
    // The middle-end clones tradeoffs reachable from computeOutput so
    // auxiliary quality is tuned independently (paper section 3.4).
    _registry.cloneForAuxiliary("numAnnealingLayers");
    _registry.cloneForAuxiliary("numParticles");
    _registry.cloneForAuxiliary("precision");
}

tradeoff::StateSpace
BodytrackBenchmark::stateSpace(int threads) const
{
    tradeoff::StateSpace space;
    addRuntimeDimensions(space, threads);
    for (const auto &name : _registry.auxNames()) {
        const auto &t = _registry.get(name);
        space.add(name, t.valueCount(), t.options().getDefaultIndex());
    }
    return space;
}

FilterParams
BodytrackBenchmark::paramsFrom(const tradeoff::Assignment &assignment,
                               bool auxiliary) const
{
    const std::string prefix = auxiliary ? tradeoff::kAuxPrefix : "";
    FilterParams params;
    params.annealingLayers = static_cast<int>(
        _registry.intValue(prefix + "numAnnealingLayers", assignment));
    params.particles = static_cast<int>(
        _registry.intValue(prefix + "numParticles", assignment));
    params.singlePrecision =
        _registry.nameValue(prefix + "precision", assignment) == "float";
    return params;
}

RunResult
BodytrackBenchmark::run(const RunRequest &request)
{
    const Workload workload =
        makeWorkload(request.workload, request.workloadSeed);
    const tradeoff::StateSpace space = stateSpace(request.threads);
    const tradeoff::Configuration config =
        request.config.empty() ? space.defaultConfiguration()
                               : request.config;
    const tradeoff::Assignment assignment =
        assignmentFor(space, config, _registry);

    // Original code runs with default tradeoffs (paper section 3.4:
    // the middle-end freezes non-auxiliary tradeoffs to defaults);
    // auxiliary code uses the configuration's cloned-tradeoff values.
    const FilterParams original_params =
        paramsFrom(_registry.defaults(), false);
    const FilterParams aux_params = paramsFrom(assignment, true);

    std::optional<support::ScopedDeterministicSeeds> pinned;
    if (request.runSeed != 0)
        pinned.emplace(request.runSeed);

    SdiProgram<Frame, BodyModel, Positions> program;
    program.inputs = workload.frames;
    program.initialState = makeInitialModel(workload, original_params);

    const sim::MachineConfig machine = request.machine;
    const auto make_compute = [machine](FilterParams params) {
        return [machine, params](const Frame &frame, BodyModel &model,
                        const sdi::ComputeContext &ctx)
                   -> SdiProgram<Frame, BodyModel, Positions>::
                       Engine::Invocation {
            support::Xoshiro256 rng(support::entropySeed());
            const double ops = updateModel(model, frame, params, rng);
            auto output = std::make_unique<Positions>();
            output->estimate = model.estimate();
            const double eff = platform::effectiveParallelism(
                machine, ctx.innerThreads, innerModel().memBound);
            return {std::move(output),
                    innerModel().work(ops * kOpSeconds,
                                      ctx.innerThreads, eff)};
        };
    };
    program.compute = make_compute(original_params);
    program.auxiliary = make_compute(aux_params);

    // Paper's comparison rule with the developer-calibrated
    // single-original tolerance.
    program.matcher = [](const BodyModel &spec,
                         const std::vector<BodyModel> &originals) -> int {
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

    program.appendSignature = [](const Positions &out,
                                 std::vector<double> &signature) {
        for (const auto &v : out.estimate) {
            signature.push_back(v.x);
            signature.push_back(v.y);
            signature.push_back(v.z);
        }
    };

    const sdi::SpecConfig spec =
        specConfigFor(space, config, request.mode, request.threads);
    sdi::SpecConfig policy_spec = spec;
    applyPolicy(request.policy, program, policy_spec);
    return runSdiProgram(program, policy_spec, request);
}

std::vector<double>
BodytrackBenchmark::oracleSignature(WorkloadKind kind,
                                    std::uint64_t workload_seed)
{
    const auto key = std::make_pair(static_cast<int>(kind), workload_seed);
    auto it = _oracleCache.find(key);
    if (it != _oracleCache.end())
        return it->second;

    // Oracle: tradeoffs maximized for quality (paper section 4.2),
    // averaged over repetitions to suppress its own nondeterminism.
    const Workload workload = makeWorkload(kind, workload_seed);
    const FilterParams params{10, 80, false};
    std::vector<std::vector<double>> runs;
    for (int rep = 0; rep < 5; ++rep) {
        support::Xoshiro256 rng(0xace0 + static_cast<unsigned>(rep));
        BodyModel model = makeInitialModel(workload, params);
        std::vector<double> signature;
        for (const auto &frame : workload.frames) {
            updateModel(model, frame, params, rng);
            for (const auto &v : model.estimate()) {
                signature.push_back(v.x);
                signature.push_back(v.y);
                signature.push_back(v.z);
            }
        }
        runs.push_back(std::move(signature));
    }
    auto oracle = averageSignatures(runs);
    _oracleCache.emplace(key, oracle);
    return oracle;
}

double
BodytrackBenchmark::quality(const std::vector<double> &signature,
                            const std::vector<double> &oracle) const
{
    // Paper: relative mean square error of the body-part vectors.
    return quality::relativeMeanSquareError(signature, oracle);
}

} // namespace stats::benchmarks::bodytrack
