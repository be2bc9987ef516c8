#include "benchmarks/streamcluster/streamcluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "benchmarks/common/sdi_runner.hpp"
#include "platform/cost_model.hpp"
#include "quality/metrics.hpp"
#include "sdi/matchers.hpp"

namespace stats::benchmarks::streamcluster {

namespace {

constexpr double kOpSeconds = 6.0e-6;

/**
 * The original streamcluster parallelizes the per-point evaluation
 * with barriers between phases; memory-bound behaviour dominates
 * (the paper's L1-effect discussion), capping its speedup well below
 * linear.
 */
const platform::InnerParallelModel &
innerModel()
{
    static const platform::InnerParallelModel model{
        /* serialFraction */ 0.05,
        /* syncCostPerThread */ 2.5e-5,
        /* memBound */ 0.4,
    };
    return model;
}

double
distance2(const Point &a, const Point &b)
{
    double sum = 0.0;
    for (int d = 0; d < kDim; ++d) {
        const double delta = a[static_cast<std::size_t>(d)] -
                             b[static_cast<std::size_t>(d)];
        sum += delta * delta;
    }
    return sum;
}

} // namespace

int
Solution::nearest(const Point &p) const
{
    int best = -1;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < centroids.size(); ++c) {
        const double d = distance2(p, centroids[c].pos);
        if (d < best_d) {
            best_d = d;
            best = static_cast<int>(c);
        }
    }
    return best;
}

double
Solution::nearestDistance2(const Point &p) const
{
    const int c = nearest(p);
    return c < 0 ? std::numeric_limits<double>::infinity()
                 : distance2(p, centroids[static_cast<std::size_t>(c)].pos);
}

Workload
makeWorkload(WorkloadKind kind, std::uint64_t seed)
{
    support::Xoshiro256 rng(seed * 0xc1a5ULL + 7);
    Workload workload;

    // Mixture component centers.
    std::vector<Point> centers(kTrueClusters);
    const double spread =
        kind == WorkloadKind::NonRepresentative ? 0.4 : 10.0;
    for (auto &center : centers) {
        for (int d = 0; d < kDim; ++d)
            center[static_cast<std::size_t>(d)] =
                rng.uniform(0.0, spread);
    }
    const double sigma =
        kind == WorkloadKind::NonRepresentative ? 1.5 : 0.5;

    for (int b = 0; b < kBatches; ++b) {
        PointBatch batch;
        batch.id = b;
        for (int i = 0; i < kPointsPerBatch; ++i) {
            const int component = static_cast<int>(
                rng.nextBelow(static_cast<std::uint64_t>(kTrueClusters)));
            Point p = centers[static_cast<std::size_t>(component)];
            for (int d = 0; d < kDim; ++d)
                p[static_cast<std::size_t>(d)] += rng.gaussian(0.0, sigma);
            batch.points.push_back(p);
            batch.gold.push_back(component);
            workload.allPoints.push_back(p);
            workload.allGold.push_back(component);
        }
        workload.batches.push_back(std::move(batch));
    }
    return workload;
}

double
processBatch(Solution &solution, const PointBatch &batch,
             const ClusterParams &params, support::Xoshiro256 &rng)
{
    double ops = 0.0;
    for (const auto &point : batch.points) {
        ops += static_cast<double>(solution.centroids.size()) * kDim * 3.0 +
               30.0;
        double d = solution.nearestDistance2(point);
        if (params.floatDistance)
            d = static_cast<float>(d);

        // Randomized facility-opening decision: the nondeterministic
        // local-search step that serializes the solution updates.
        double open_probability =
            std::min(1.0, d / solution.facilityCost);
        if (params.floatCost)
            open_probability = static_cast<float>(open_probability);
        const bool must_open =
            solution.centroids.size() <
            static_cast<std::size_t>(params.minClusters);
        if (must_open || rng.nextDouble() < open_probability) {
            solution.centroids.push_back(Centroid{point, 1.0});
            // Opening gets progressively more expensive, as in
            // streamcluster's facility-cost doubling.
            solution.facilityCost *= 1.12;
        } else {
            const int c = solution.nearest(point);
            Centroid &centroid =
                solution.centroids[static_cast<std::size_t>(c)];
            double weight = centroid.weight + 1.0;
            if (params.floatWeight)
                weight = static_cast<float>(weight);
            for (int dd = 0; dd < kDim; ++dd) {
                const auto k = static_cast<std::size_t>(dd);
                centroid.pos[k] +=
                    (point[k] - centroid.pos[k]) / weight;
            }
            centroid.weight = weight;
        }

        // Enforce the maximum cluster count by merging the closest
        // pair (weighted).
        while (solution.centroids.size() >
               static_cast<std::size_t>(params.maxClusters)) {
            std::size_t best_a = 0, best_b = 1;
            double best_d = std::numeric_limits<double>::infinity();
            for (std::size_t a = 0; a < solution.centroids.size(); ++a) {
                for (std::size_t b2 = a + 1;
                     b2 < solution.centroids.size(); ++b2) {
                    const double dd = distance2(solution.centroids[a].pos,
                                                solution.centroids[b2].pos);
                    if (dd < best_d) {
                        best_d = dd;
                        best_a = a;
                        best_b = b2;
                    }
                }
            }
            Centroid &a = solution.centroids[best_a];
            const Centroid &b = solution.centroids[best_b];
            const double total = a.weight + b.weight;
            for (int dd = 0; dd < kDim; ++dd) {
                const auto k = static_cast<std::size_t>(dd);
                a.pos[k] = (a.pos[k] * a.weight + b.pos[k] * b.weight) /
                           total;
            }
            a.weight = total;
            solution.centroids.erase(solution.centroids.begin() +
                                     static_cast<std::ptrdiff_t>(best_b));
            ops += static_cast<double>(solution.centroids.size()) *
                   static_cast<double>(solution.centroids.size()) * kDim;
        }
    }
    return ops;
}

std::vector<int>
assignAll(const std::vector<Point> &points, const Solution &solution)
{
    std::vector<int> labels;
    labels.reserve(points.size());
    for (const auto &p : points)
        labels.push_back(solution.nearest(p));
    return labels;
}

StreamBenchmarkBase::StreamBenchmarkBase(bool classifier)
    : _classifier(classifier)
{
    using tradeoff::IntRangeOptions;
    using tradeoff::NameListOptions;
    using tradeoff::TradeoffValue;

    const std::vector<std::string> types{"double", "float"};
    _registry.add("maxClusters",
                  std::make_unique<IntRangeOptions>(8, 5, 4, 2));
    _registry.add("minClusters",
                  std::make_unique<IntRangeOptions>(2, 3, 2, 1));
    _registry.add("typeDistance",
                  std::make_unique<NameListOptions>(
                      TradeoffValue::Kind::TypeName, types, 0));
    _registry.add("typeCost",
                  std::make_unique<NameListOptions>(
                      TradeoffValue::Kind::TypeName, types, 0));
    _registry.add("typeWeight",
                  std::make_unique<NameListOptions>(
                      TradeoffValue::Kind::TypeName, types, 0));
    for (const auto &name :
         {"maxClusters", "minClusters", "typeDistance", "typeCost",
          "typeWeight"}) {
        _registry.cloneForAuxiliary(name);
    }
}

std::string
StreamBenchmarkBase::name() const
{
    return _classifier ? "streamclassifier" : "streamcluster";
}

tradeoff::StateSpace
StreamBenchmarkBase::stateSpace(int threads) const
{
    tradeoff::StateSpace space;
    addRuntimeDimensions(space, threads);
    for (const auto &name : _registry.auxNames()) {
        const auto &t = _registry.get(name);
        space.add(name, t.valueCount(), t.options().getDefaultIndex());
    }
    return space;
}

ClusterParams
StreamBenchmarkBase::paramsFrom(const tradeoff::Assignment &assignment,
                                bool auxiliary) const
{
    const std::string prefix = auxiliary ? tradeoff::kAuxPrefix : "";
    ClusterParams params;
    params.maxClusters = static_cast<int>(
        _registry.intValue(prefix + "maxClusters", assignment));
    params.minClusters = static_cast<int>(
        _registry.intValue(prefix + "minClusters", assignment));
    params.floatDistance =
        _registry.nameValue(prefix + "typeDistance", assignment) ==
        "float";
    params.floatCost =
        _registry.nameValue(prefix + "typeCost", assignment) == "float";
    params.floatWeight =
        _registry.nameValue(prefix + "typeWeight", assignment) == "float";
    return params;
}

double
StreamBenchmarkBase::scoreOf(const Workload &workload,
                             const Solution &final_solution) const
{
    const std::vector<int> labels =
        assignAll(workload.allPoints, final_solution);
    if (_classifier)
        return quality::bCubed(labels, workload.allGold).f1;

    std::vector<double> flat;
    flat.reserve(workload.allPoints.size() * kDim);
    for (const auto &p : workload.allPoints) {
        for (int d = 0; d < kDim; ++d)
            flat.push_back(p[static_cast<std::size_t>(d)]);
    }
    return quality::daviesBouldinIndex(
        flat, kDim, labels,
        static_cast<int>(final_solution.centroids.size()));
}

RunResult
StreamBenchmarkBase::run(const RunRequest &request)
{
    const Workload workload =
        makeWorkload(request.workload, request.workloadSeed);
    const tradeoff::StateSpace space = stateSpace(request.threads);
    const tradeoff::Configuration config =
        request.config.empty() ? space.defaultConfiguration()
                               : request.config;
    const tradeoff::Assignment assignment =
        assignmentFor(space, config, _registry);

    const ClusterParams original_params =
        paramsFrom(_registry.defaults(), false);
    const ClusterParams aux_params = paramsFrom(assignment, true);

    std::optional<support::ScopedDeterministicSeeds> pinned;
    if (request.runSeed != 0)
        pinned.emplace(request.runSeed);

    SdiProgram<PointBatch, Solution, SolutionSnapshot> program;
    program.inputs = workload.batches;
    program.initialState = Solution{};

    const sim::MachineConfig machine = request.machine;
    const auto make_compute = [machine](ClusterParams params) {
        return [machine, params](const PointBatch &batch,
                                 Solution &solution,
                        const sdi::ComputeContext &ctx)
                   -> SdiProgram<PointBatch, Solution, SolutionSnapshot>::
                       Engine::Invocation {
            support::Xoshiro256 rng(support::entropySeed());
            const double ops =
                processBatch(solution, batch, params, rng);
            auto output = std::make_unique<SolutionSnapshot>();
            output->batchId = batch.id;
            output->centroids = solution.centroids;
            const double eff = platform::effectiveParallelism(
                machine, ctx.innerThreads, innerModel().memBound);
            return {std::move(output),
                    innerModel().work(ops * kOpSeconds,
                                      ctx.innerThreads, eff)};
        };
    };
    program.compute = make_compute(original_params);
    program.auxiliary = make_compute(aux_params);

    // By construction: the stream is stationary, so a solution built
    // from a window of recent candidates is one the randomized
    // original could have produced (paper section 4.2: these
    // benchmarks need no comparison function).
    program.matcher = sdi::alwaysMatch<Solution>();

    program.appendSignature = nullptr; // Signature built below.

    sdi::SpecConfig spec =
        specConfigFor(space, config, request.mode, request.threads);
    applyPolicy(request.policy, program, spec);

    // Run with a custom signature: the domain score of the final
    // solution (DB index or B-cubed F1).
    exec::SimExecutor executor(request.machine, request.threads);
    SdiProgram<PointBatch, Solution, SolutionSnapshot>::Engine engine(
        executor, program.inputs, program.initialState, program.compute,
        program.auxiliary, program.matcher, spec, *request.session);
    engine.start();
    engine.join();

    RunResult result;
    const auto &activity = executor.simulator().activity();
    result.virtualSeconds = activity.makespan;
    result.energyJoules = platform::EnergyModel{}.energyJoules(activity);
    result.engineStats = engine.stats();

    Solution final_solution;
    final_solution.centroids = engine.outputs().back()->centroids;
    result.signature.push_back(scoreOf(workload, final_solution));
    return result;
}

std::vector<double>
StreamBenchmarkBase::oracleSignature(WorkloadKind kind,
                                     std::uint64_t workload_seed)
{
    const auto key = std::make_pair(static_cast<int>(kind), workload_seed);
    auto it = _oracleCache.find(key);
    if (it != _oracleCache.end())
        return it->second;

    // Oracle: generous cluster budget, averaged over repetitions.
    const Workload workload = makeWorkload(kind, workload_seed);
    ClusterParams params = paramsFrom(_registry.defaults(), false);
    params.maxClusters = 24;
    double score = 0.0;
    constexpr int kReps = 5;
    for (int rep = 0; rep < kReps; ++rep) {
        support::Xoshiro256 rng(0x57c1 + static_cast<unsigned>(rep));
        Solution solution;
        for (const auto &batch : workload.batches)
            processBatch(solution, batch, params, rng);
        score += scoreOf(workload, solution);
    }
    std::vector<double> oracle{score / kReps};
    _oracleCache.emplace(key, oracle);
    return oracle;
}

double
StreamBenchmarkBase::quality(const std::vector<double> &signature,
                             const std::vector<double> &oracle) const
{
    // Paper: difference of the DB indices / of the B-cubed metrics.
    return std::abs(signature.at(0) - oracle.at(0));
}

} // namespace stats::benchmarks::streamcluster
