#include "benchmarks/facedet/facedet.hpp"

#include <algorithm>
#include <cmath>

#include "benchmarks/common/sdi_runner.hpp"
#include "platform/cost_model.hpp"
#include "quality/metrics.hpp"

namespace stats::benchmarks::facedet {

namespace {

constexpr double kOpSeconds = 2.0e-6;
constexpr double kObsSigma = 2.0; // Pixels.

/**
 * facedet's original parallelism is spent on vectorization (paper
 * section 4.3), leaving modest thread-level scaling: a relatively
 * high serial fraction caps the original speedup around 5-6x.
 */
const platform::InnerParallelModel &
innerModel()
{
    static const platform::InnerParallelModel model{
        /* serialFraction */ 0.10,
        /* syncCostPerThread */ 2.0e-5,
        /* memBound */ 0.25,
    };
    return model;
}

} // namespace

std::array<Vec2, 4>
FaceBox::corners() const
{
    const double hw = width / 2.0;
    const double hh = height / 2.0;
    return {Vec2{center.x - hw, center.y - hh},
            Vec2{center.x + hw, center.y - hh},
            Vec2{center.x + hw, center.y + hh},
            Vec2{center.x - hw, center.y + hh}};
}

double
FaceBox::cornerDistance(const FaceBox &other) const
{
    const auto a = corners();
    const auto b = other.corners();
    double total = 0.0;
    for (std::size_t i = 0; i < 4; ++i)
        total += (a[i] - b[i]).norm();
    return total / 4.0;
}

FaceBox
FaceModel::estimate() const
{
    FaceBox mean;
    mean.center = {0.0, 0.0};
    mean.width = 0.0;
    mean.height = 0.0;
    if (particles.empty())
        return mean;
    for (const auto &p : particles) {
        mean.center += p.box.center;
        mean.width += p.box.width;
        mean.height += p.box.height;
    }
    const double inv = 1.0 / static_cast<double>(particles.size());
    mean.center = mean.center * inv;
    mean.width *= inv;
    mean.height *= inv;
    return mean;
}

double
FaceModel::distance(const FaceModel &other) const
{
    return estimate().cornerDistance(other.estimate());
}

Workload
makeWorkload(WorkloadKind kind, std::uint64_t seed, int frames)
{
    support::Xoshiro256 rng(seed * 0x51ed2701ULL + 3);
    Workload workload;

    const double wx = rng.uniform(0.04, 0.1);
    const double wy = rng.uniform(0.03, 0.09);
    Vec2 drift{320.0, 240.0};
    for (int t = 0; t < frames; ++t) {
        FaceBox truth;
        if (kind == WorkloadKind::NonRepresentative) {
            truth.center = {320.0, 240.0}; // The face does not move.
            truth.width = 80.0;
            truth.height = 100.0;
        } else {
            drift += Vec2{rng.gaussian(0.0, 0.8), rng.gaussian(0.0, 0.8)};
            truth.center = {drift.x + 120.0 * std::sin(wx * t),
                            drift.y + 80.0 * std::cos(wy * t)};
            truth.width = 80.0 + 15.0 * std::sin(0.05 * t);
            truth.height = 100.0 + 18.0 * std::sin(0.04 * t + 1.0);
        }

        Frame frame;
        frame.id = t;
        frame.observed = truth;
        frame.observed.center +=
            Vec2{rng.gaussian(0.0, kObsSigma), rng.gaussian(0.0, kObsSigma)};
        frame.observed.width += rng.gaussian(0.0, kObsSigma);
        frame.observed.height += rng.gaussian(0.0, kObsSigma);
        workload.frames.push_back(frame);
        workload.truth.push_back(truth);
    }
    return workload;
}

FaceModel
makeInitialModel(const Workload &workload, const FilterParams &params)
{
    support::Xoshiro256 rng(11);
    FaceModel model;
    model.particles.resize(static_cast<std::size_t>(params.particles));
    const FaceBox &first = workload.frames.front().observed;
    for (auto &particle : model.particles) {
        particle.box = first;
        // Cloud wide enough to cover the whole image-plane motion.
        particle.box.center += Vec2{rng.uniform(-200.0, 200.0),
                                    rng.uniform(-160.0, 160.0)};
        particle.box.width += rng.uniform(-30.0, 30.0);
        particle.box.height += rng.uniform(-30.0, 30.0);
    }
    return model;
}

namespace {

void
ensureParticleCount(FaceModel &model, int count)
{
    const auto target = static_cast<std::size_t>(std::max(1, count));
    if (model.particles.size() == target)
        return;
    std::vector<Particle> resized;
    resized.reserve(target);
    for (std::size_t i = 0; i < target; ++i)
        resized.push_back(model.particles[i % model.particles.size()]);
    model.particles = std::move(resized);
}

void
resample(FaceModel &model, support::Xoshiro256 &rng)
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
    double u = rng.nextDouble() * step;
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
updateModel(FaceModel &model, const Frame &frame,
            const FilterParams &params, support::Xoshiro256 &rng)
{
    ensureParticleCount(model, params.particles);
    const int rounds = std::max(1, params.noiseRounds);

    double sigma = params.noiseSigma * 4.0;
    for (int round = 0; round < rounds; ++round) {
        const double inv_var = 1.0 / (2.0 * kObsSigma * kObsSigma * 36.0);
        for (auto &particle : model.particles) {
            // "The number of times Gaussian noise is added to the
            // particles" is the facedet tradeoff (paper section 4.2).
            particle.box.center += Vec2{rng.gaussian(0.0, sigma),
                                        rng.gaussian(0.0, sigma)};
            particle.box.width += rng.gaussian(0.0, sigma * 0.4);
            particle.box.height += rng.gaussian(0.0, sigma * 0.4);
            if (params.singlePrecision) {
                particle.box.center = {
                    static_cast<float>(particle.box.center.x),
                    static_cast<float>(particle.box.center.y)};
            }
            particle.logWeight =
                -particle.box.cornerDistance(frame.observed) *
                particle.box.cornerDistance(frame.observed) * inv_var;
        }
        resample(model, rng);
        sigma *= 0.5;
    }

    return static_cast<double>(params.particles) * rounds * 30.0;
}

FacedetBenchmark::FacedetBenchmark()
{
    using tradeoff::IntRangeOptions;
    using tradeoff::NameListOptions;
    using tradeoff::RealListOptions;
    using tradeoff::TradeoffValue;

    _registry.add("numParticles",
                  std::make_unique<IntRangeOptions>(10, 8, 10, 4));
    _registry.add("noiseRounds",
                  std::make_unique<IntRangeOptions>(1, 8, 1, 3));
    _registry.add("noiseSigma",
                  std::make_unique<RealListOptions>(
                      std::vector<double>{2.0, 4.0, 6.0, 8.0}, 2));
    _registry.add("precision",
                  std::make_unique<NameListOptions>(
                      TradeoffValue::Kind::TypeName,
                      std::vector<std::string>{"double", "float"}, 0));
    _registry.cloneForAuxiliary("numParticles");
    _registry.cloneForAuxiliary("noiseRounds");
    _registry.cloneForAuxiliary("noiseSigma");
    _registry.cloneForAuxiliary("precision");
}

tradeoff::StateSpace
FacedetBenchmark::stateSpace(int threads) const
{
    return stateSpaceFor(_registry, threads);
}

namespace {

FilterParams
paramsFrom(const tradeoff::Registry &registry,
           const tradeoff::Assignment &assignment, bool auxiliary)
{
    const std::string prefix = auxiliary ? tradeoff::kAuxPrefix : "";
    FilterParams params;
    params.particles = static_cast<int>(
        registry.intValue(prefix + "numParticles", assignment));
    params.noiseRounds = static_cast<int>(
        registry.intValue(prefix + "noiseRounds", assignment));
    params.noiseSigma =
        registry.realValue(prefix + "noiseSigma", assignment);
    params.singlePrecision =
        registry.nameValue(prefix + "precision", assignment) == "float";
    return params;
}

using Program = SdiProgram<Frame, FaceModel, Detection>;

Program
buildProgram(const Workload &workload, const FilterParams &original,
             const FilterParams &aux, const sim::MachineConfig &machine)
{
    Program program;
    program.inputs = workload.frames;
    program.initialState = makeInitialModel(workload, original);

    const auto make_compute = [machine](FilterParams params) {
        return [machine, params](const Frame &frame, FaceModel &model,
                                 const sdi::ComputeContext &ctx)
                   -> Program::Engine::Invocation {
            support::Xoshiro256 rng(support::entropySeed());
            const double ops = updateModel(model, frame, params, rng);
            auto output = std::make_unique<Detection>();
            output->box = model.estimate();
            return {std::move(output),
                    innerModel().workOn(machine, ops * kOpSeconds,
                                        ctx.innerThreads)};
        };
    };
    program.compute = make_compute(original);
    program.auxiliary = make_compute(aux);

    program.matcher = sdi::distanceBracketMatcher<FaceModel>(
        [](const FaceModel &a, const FaceModel &b) { return a.distance(b); },
        FacedetBenchmark::kMatchTolerance);

    program.appendSignature = [](const Detection &out,
                                 std::vector<double> &signature) {
        for (const auto &corner : out.box.corners()) {
            signature.push_back(corner.x);
            signature.push_back(corner.y);
        }
    };
    return program;
}

} // namespace

RunResult
FacedetBenchmark::run(const RunRequest &request)
{
    return runSdiBenchmark(
        request, _registry,
        makeWorkload(request.workload, request.workloadSeed),
        paramsFrom, buildProgram);
}

std::vector<double>
FacedetBenchmark::computeOracle(WorkloadKind kind,
                                std::uint64_t workload_seed) const
{
    const Workload workload = makeWorkload(kind, workload_seed);
    const FilterParams params{80, 8, 6.0, false};
    std::vector<std::vector<double>> runs;
    for (int rep = 0; rep < 5; ++rep) {
        support::Xoshiro256 rng(0xfaced + static_cast<unsigned>(rep));
        FaceModel model = makeInitialModel(workload, params);
        std::vector<double> signature;
        for (const auto &frame : workload.frames) {
            updateModel(model, frame, params, rng);
            for (const auto &corner : model.estimate().corners()) {
                signature.push_back(corner.x);
                signature.push_back(corner.y);
            }
        }
        runs.push_back(std::move(signature));
    }
    return averageSignatures(runs);
}

double
FacedetBenchmark::quality(const std::vector<double> &signature,
                          const std::vector<double> &oracle) const
{
    // Paper: average Euclidean distance of the detected faces' boxes.
    return quality::averageEuclideanDistance(signature, oracle, 2);
}

} // namespace stats::benchmarks::facedet
