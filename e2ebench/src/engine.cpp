#include "engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "benchmarks/common/benchmark.hpp"
#include "benchmarks/common/sdi_runner.hpp"
#include "benchmarks/fluidanimate/fluidanimate.hpp"
#include "benchmarks/swaptions/swaptions.hpp"
#include "exec/thread_executor.hpp"
#include "sdi/matchers.hpp"
#include "support/rng.hpp"
#include "support/seed_sequence.hpp"

namespace e2ebench {

namespace {

using namespace stats;
using benchmarks::SdiProgram;
using benchmarks::WorkloadKind;
namespace sw = benchmarks::swaptions;
namespace fl = benchmarks::fluidanimate;

constexpr int kThreads = 4;
constexpr int kSetupReps = 5;

/** sdi-coarse raises every swaptions batch to ~0.2 ms of work. */
constexpr int kTrialScale = 10;

/**
 * Input sets a run takes turns over. Swaptions does the same work
 * whatever the seed; a fluid's cost depends on how its particles
 * start out, so sdi-misspec averages several fluids per run to keep
 * one seed's fluid from setting the run's time.
 */
constexpr int kCoarseInputSets = 1;
constexpr int kMisspecInputSets = 8;

/**
 * The quality band: a STATS run's error against the oracle may be at
 * most this multiple of the worst error among the interleaved
 * sequential runs over the same input set. A speculative swaptions
 * group restarts its price from the k batches before it, so at the
 * default configuration a final price averages 8 of 32 batches: about
 * 1.5x a sequential run's error against the oracle, whose own error
 * adds in. Small prices make the errors heavy-tailed; the worst STATS
 * run seen reached 2.6x the worst sequential one. A wrong output is
 * off by orders of magnitude.
 */
constexpr double kBandSlack = 6.0;

using CoarseProgram = SdiProgram<sw::Batch, sw::PriceState, sw::PriceOutput>;
using MisspecProgram = SdiProgram<fl::TimeStep, fl::Fluid, fl::FrameOutput>;

// Both programs run the benchmarks' public kernels with the parameters
// of the default configuration, whose auxiliary tradeoffs equal the
// original ones, so one closure serves as compute and auxiliary code.
// The kernels draw fresh entropy per call: real nondeterminism.

CoarseProgram
coarseProgram(std::uint64_t seed)
{
    auto workload = std::make_shared<const sw::Workload>(
        sw::makeWorkload(WorkloadKind::Representative, seed));
    CoarseProgram program;
    for (sw::Batch batch : workload->batches) {
        batch.trials *= kTrialScale;
        program.inputs.push_back(batch);
    }
    program.compute = [workload](const sw::Batch &batch,
                                 sw::PriceState &state,
                                 const sdi::ComputeContext &)
        -> CoarseProgram::Engine::Invocation {
        support::Xoshiro256 rng(support::entropySeed());
        sw::simulateBatch(
            state, batch,
            workload->terms[static_cast<std::size_t>(batch.swaption)],
            sw::McParams{}, rng);
        auto out = std::make_unique<sw::PriceOutput>();
        out->swaption = batch.swaption;
        out->runningPrice =
            state.trials > 0
                ? state.sumPayoff / static_cast<double>(state.trials)
                : 0.0;
        out->lastBatchOfSwaption =
            batch.indexInSwaption == sw::kBatchesPerSwaption - 1;
        return {std::move(out), exec::Work{}};
    };
    program.auxiliary = program.compute;
    // Partial Monte-Carlo means are valid by construction.
    program.matcher = sdi::alwaysMatch<sw::PriceState>();
    program.appendSignature = [](const sw::PriceOutput &out,
                                 std::vector<double> &signature) {
        if (out.lastBatchOfSwaption)
            signature.push_back(out.runningPrice);
    };
    return program;
}

/** fluidanimate's distance-bracket rule (paper section 4.8). */
int
matchFluid(const fl::Fluid &spec, const std::vector<fl::Fluid> &originals)
{
    for (std::size_t a = 0; a < originals.size(); ++a) {
        const double d = spec.distance(originals[a]);
        if (originals.size() == 1) {
            if (d <= fl::FluidanimateBenchmark::kMatchTolerance)
                return 0;
            continue;
        }
        for (std::size_t b = 0; b < originals.size(); ++b)
            if (b != a && d <= originals[b].distance(originals[a]))
                return static_cast<int>(a);
    }
    return -1;
}

MisspecProgram
misspecProgram(std::uint64_t seed)
{
    fl::Workload workload =
        fl::makeWorkload(WorkloadKind::Representative, seed);
    MisspecProgram program;
    program.inputs = std::move(workload.steps);
    program.initialState = std::move(workload.initial);
    program.compute = [](const fl::TimeStep &step, fl::Fluid &fluid,
                         const sdi::ComputeContext &)
        -> MisspecProgram::Engine::Invocation {
        support::Xoshiro256 rng(support::entropySeed());
        fl::advanceFrame(fluid, step, fl::SphParams{}, rng);
        auto out = std::make_unique<fl::FrameOutput>();
        out->step = step.id;
        out->last = step.id == fl::kSteps - 1;
        out->positions = fluid.positions;
        return {std::move(out), exec::Work{}};
    };
    program.auxiliary = program.compute;
    program.matcher = matchFluid;
    program.appendSignature = [](const fl::FrameOutput &out,
                                 std::vector<double> &signature) {
        if (!out.last)
            return;
        for (const auto &p : out.positions) {
            signature.push_back(p.x);
            signature.push_back(p.y);
            signature.push_back(p.z);
        }
    };
    return program;
}

/** One start()→join() run and what it left in the counters. */
struct StatsRun
{
    std::size_t instance = 0; ///< Input set the run processed.
    double ms = 0.0;
    double error = 0.0;
    sdi::EngineStats engine;
    threading::ThreadPool::Stats pool;
    exec::ThreadExecutor::CommitStats lane;
};

/**
 * The set-up of one engine workload: its input sets, each with its
 * program and oracle, the STATS configuration and the executor the
 * runs share.
 */
template <class In, class St, class Out>
class EngineBench
{
  public:
    using Program = SdiProgram<In, St, Out>;
    using Engine = typename Program::Engine;

    /** `instances` input sets, each derived from `seed`. */
    EngineBench(const char *benchmark,
                Program (*make_program)(std::uint64_t), std::uint64_t seed,
                int instances)
        : _bench(benchmarks::createBenchmark(benchmark)),
          _executor(kThreads)
    {
        const support::SeedSequence seeds(seed);
        for (int k = 0; k < instances; ++k) {
            const std::uint64_t inputs_seed =
                seeds.derive("inputs", static_cast<std::uint64_t>(k));
            _instances.push_back({inputs_seed, make_program(inputs_seed), {}});
        }
        const auto space = _bench->stateSpace(kThreads);
        _config = benchmarks::specConfigFor(
            space, space.defaultConfiguration(),
            benchmarks::Mode::ParStats, kThreads);
    }

    EngineBench(const EngineBench &) = delete;
    EngineBench &operator=(const EngineBench &) = delete;

    /**
     * Compute every input set's oracle. Runs report an infinite error
     * until then. The oracles only serve the correctness check, so
     * they are not part of the program's set-up.
     */
    void
    computeOracles()
    {
        for (Instance &instance : _instances)
            instance.oracle = _bench->oracleSignature(
                WorkloadKind::Representative, instance.seed);
    }

    std::size_t instances() const { return _instances.size(); }
    Program &program(std::size_t k) { return _instances[k].program; }

    /**
     * One STATS run over input set `k` on the shared executor. With
     * `spans`, the closures, start() and join() are recorded under
     * operation `op`.
     */
    StatsRun
    runStats(std::size_t k, SpanLog *spans, std::uint64_t op)
    {
        const Program &program = _instances[k].program;
        StatsRun run;
        run.instance = k;
        const auto pool0 = _executor.schedulerStats();
        const auto lane0 = _executor.commitStats();
        typename Engine::ComputeFn compute = program.compute;
        typename Engine::ComputeFn auxiliary = program.auxiliary;
        typename Engine::MatchFn matcher = program.matcher;
        if (spans) {
            compute = traced(program.compute, *spans, "benchmarks.body",
                             op);
            auxiliary = traced(program.auxiliary, *spans,
                               "benchmarks.aux", op);
            matcher = [&program, spans,
                       op](const St &spec, const std::vector<St> &originals) {
                const std::int64_t begin = spans->now();
                const int verdict = program.matcher(spec, originals);
                spans->record("sdi.match", "engine.run", op, begin,
                              spans->now());
                return verdict;
            };
        }

        const auto begin = Clock::now();
        const std::int64_t begin_ns = spans ? spans->now() : 0;
        Engine engine(_executor, program.inputs, program.initialState,
                      std::move(compute), std::move(auxiliary),
                      std::move(matcher), _config);
        engine.start();
        const std::int64_t started_ns = spans ? spans->now() : 0;
        engine.join();
        run.ms = msBetween(begin, Clock::now());
        if (spans) {
            const std::int64_t end_ns = spans->now();
            spans->record("engine.start", "engine.run", op, begin_ns,
                          started_ns);
            spans->record("engine.join", "engine.run", op, started_ns,
                          end_ns);
            spans->record("engine.run", "", op, begin_ns, end_ns);
        }

        run.error = error(k, engine.outputs());
        run.engine = engine.stats();
        const auto pool1 = _executor.schedulerStats();
        const auto lane1 = _executor.commitStats();
        run.pool.stolen = pool1.stolen - pool0.stolen;
        run.pool.parks = pool1.parks - pool0.parks;
        run.pool.unparks = pool1.unparks - pool0.unparks;
        run.lane.laneEnqueues = lane1.laneEnqueues - lane0.laneEnqueues;
        run.lane.laneDeferred = lane1.laneDeferred - lane0.laneDeferred;
        return run;
    }

    /**
     * The plain sequential loop over the same closure and input set
     * `k`; returns ms.
     */
    double
    runSequential(std::size_t k, double &error_out)
    {
        const Program &program = _instances[k].program;
        const auto begin = Clock::now();
        St state = program.initialState;
        std::vector<std::unique_ptr<Out>> outputs;
        outputs.reserve(program.inputs.size());
        const sdi::ComputeContext context{1, false};
        for (const In &input : program.inputs)
            outputs.push_back(program.compute(input, state, context).output);
        const double ms = msBetween(begin, Clock::now());
        error_out = error(k, outputs);
        return ms;
    }

  private:
    struct Instance
    {
        std::uint64_t seed = 0;
        Program program;
        std::vector<double> oracle;
    };

    /** Quality error of outputs for input set `k` against its oracle. */
    double
    error(std::size_t k, const std::vector<std::unique_ptr<Out>> &outputs) const
    {
        const Instance &instance = _instances[k];
        std::vector<double> signature;
        for (const auto &out : outputs)
            if (out)
                instance.program.appendSignature(*out, signature);
        if (outputs.size() != instance.program.inputs.size() ||
            signature.size() != instance.oracle.size())
            return INFINITY;
        return _bench->quality(signature, instance.oracle);
    }

    static typename Engine::ComputeFn
    traced(typename Engine::ComputeFn fn, SpanLog &spans,
           const char *name, std::uint64_t op)
    {
        return [fn = std::move(fn), &spans, name,
                op](const In &input, St &state,
                    const sdi::ComputeContext &context) {
            const std::int64_t begin = spans.now();
            auto invocation = fn(input, state, context);
            spans.record(name, "engine.run", op, begin, spans.now());
            return invocation;
        };
    }

    std::unique_ptr<benchmarks::Benchmark> _bench;
    std::vector<Instance> _instances;
    sdi::SpecConfig _config;
    exec::ThreadExecutor _executor; ///< Last member: joined first.
};

/**
 * Runs whose error lies outside the sequential runs' band. `use`
 * rises to the largest error's share of the band.
 */
std::int64_t
outsideBand(const std::vector<double> &stats_errors,
            const std::vector<double> &seq_errors, double &use)
{
    double worst = 0.0;
    for (const double e : seq_errors)
        worst = std::isfinite(e) ? std::max(worst, e) : INFINITY;
    const double band = kBandSlack * worst;
    std::int64_t outside = 0;
    for (const double e : stats_errors) {
        if (!std::isfinite(band) || !std::isfinite(e) || e > band)
            ++outside;
        use = std::max(use, e / band);
    }
    return outside;
}

template <class In, class St, class Out>
Report
measure(const char *benchmark,
        SdiProgram<In, St, Out> (*make_program)(std::uint64_t),
        int instances, std::uint64_t seed, double seconds, SpanLog *spans)
{
    using Bench = EngineBench<In, St, Out>;
    Report report;

    // The program's set-up: inputs, the executor's threads, and one
    // warm STATS run over each input set, which pays the lazy
    // allocations (arena blocks, task records).
    std::unique_ptr<Bench> bench;
    report.endToEnd["setup_s"] =
        medianSetupSeconds(kSetupReps, bench, [&] {
            auto fresh = std::make_unique<Bench>(benchmark, make_program,
                                                 seed, instances);
            for (std::size_t k = 0; k < fresh->instances(); ++k)
                fresh->runStats(k, nullptr, 0);
            return fresh;
        });
    bench->computeOracles();

    // Timed phase: the input sets take turns. On each, a STATS and a
    // sequential run interleave, alternating from one visit to the
    // next which goes first; a traced STATS run follows each pair when
    // tracing.
    std::vector<StatsRun> runs, traced_runs;
    std::vector<double> seq_ms;
    std::vector<std::vector<double>> seq_errors(bench->instances());
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(seconds);
    std::uint64_t op = 0;
    for (std::size_t i = 0; Clock::now() < deadline; ++i) {
        const std::size_t k = i % bench->instances();
        const bool seq_first = i / bench->instances() % 2 == 1;
        double error = 0.0;
        if (seq_first) {
            seq_ms.push_back(bench->runSequential(k, error));
            seq_errors[k].push_back(error);
        }
        runs.push_back(bench->runStats(k, nullptr, ++op));
        if (!seq_first) {
            seq_ms.push_back(bench->runSequential(k, error));
            seq_errors[k].push_back(error);
        }
        if (spans)
            traced_runs.push_back(bench->runStats(k, spans, ++op));
    }

    std::vector<double> stats_ms, traced_ms;
    for (const StatsRun &run : runs)
        stats_ms.push_back(run.ms);
    for (const StatsRun &run : traced_runs)
        traced_ms.push_back(run.ms);
    std::vector<StatsRun> all = runs;
    all.insert(all.end(), traced_runs.begin(), traced_runs.end());
    std::vector<std::vector<double>> stats_errors(bench->instances());
    for (const StatsRun &run : all)
        stats_errors[run.instance].push_back(run.error);
    report.attempted = static_cast<std::int64_t>(all.size());
    double band_use = 0.0;
    for (std::size_t k = 0; k < bench->instances(); ++k)
        report.failed +=
            outsideBand(stats_errors[k], seq_errors[k], band_use);
    std::fprintf(stderr,
                 "e2ebench: %s: %zu STATS and %zu sequential runs over "
                 "%zu input sets; %lld outside the quality band, the "
                 "worst at %.3g of it\n",
                 benchmark, all.size(), seq_ms.size(), bench->instances(),
                 static_cast<long long>(report.failed), band_use);

    double stats_total_ms = 0.0;
    for (const double ms : stats_ms)
        stats_total_ms += ms;
    const double p50 = quantile(stats_ms, 0.5);
    report.endToEnd["op_ms.p50"] = p50;
    report.endToEnd["op_ms.p95"] = quantile(stats_ms, 0.95);
    report.endToEnd["ops_per_s"] =
        ratio(static_cast<double>(stats_ms.size()), stats_total_ms / 1e3);

    if (!spans)
        return report;

    auto &layer = report.perLayer;
    layer["seq_ms.p50"] = median(seq_ms);
    layer["speedup_vs_seq"] = ratio(median(seq_ms), p50);
    layer["trace.overhead_share"] = ratio(median(traced_ms), p50) - 1.0;
    layer["fail_share"] = ratio(static_cast<double>(report.failed),
                                static_cast<double>(report.attempted));

    double traced_total_ms = 0.0;
    for (const double ms : traced_ms)
        traced_total_ms += ms;
    const double thread_ms = kThreads * traced_total_ms;
    const double body_ms = spans->totalMs("benchmarks.body");
    const double aux_ms = spans->totalMs("benchmarks.aux");
    const double match_ms = spans->totalMs("sdi.match");
    layer["benchmarks.body_share"] = ratio(body_ms, thread_ms);
    layer["benchmarks.aux_share"] = ratio(aux_ms, thread_ms);
    layer["sdi.match_share"] = ratio(match_ms, traced_total_ms);
    layer["exec.busy_share"] = ratio(body_ms + aux_ms + match_ms, thread_ms);

    // Counters are always on, so every STATS run contributes.
    double inputs = 0.0, invocations = 0.0, validations = 0.0,
           starts = 0.0;
    sdi::EngineStats sum;
    threading::ThreadPool::Stats pool;
    exec::ThreadExecutor::CommitStats lane;
    for (const StatsRun &run : all) {
        inputs +=
            static_cast<double>(bench->program(run.instance).inputs.size());
        invocations += static_cast<double>(run.engine.invocations);
        validations += static_cast<double>(run.engine.validations);
        starts += static_cast<double>(
            std::max<std::int64_t>(run.engine.groups - 1, 0));
        sum.mismatches += run.engine.mismatches;
        sum.reexecutions += run.engine.reexecutions;
        sum.aborts += run.engine.aborts;
        sum.squashedGroups += run.engine.squashedGroups;
        sum.sequentialInputs += run.engine.sequentialInputs;
        sum.stateClones += run.engine.stateClones;
        pool.stolen += run.pool.stolen;
        pool.parks += run.pool.parks;
        pool.unparks += run.pool.unparks;
        lane.laneEnqueues += run.lane.laneEnqueues;
        lane.laneDeferred += run.lane.laneDeferred;
    }
    const auto per_run = [&](double total) {
        return ratio(total, static_cast<double>(all.size()));
    };
    layer["sdi.useful_ratio"] = ratio(inputs, invocations);
    layer["sdi.commit_rate"] = ratio(validations, starts);
    layer["sdi.mismatches"] = per_run(double(sum.mismatches));
    layer["sdi.reexecutions"] = per_run(double(sum.reexecutions));
    layer["sdi.aborts"] = per_run(double(sum.aborts));
    layer["sdi.squashed_groups"] = per_run(double(sum.squashedGroups));
    layer["sdi.sequential_inputs"] = per_run(double(sum.sequentialInputs));
    layer["sdi.state_clones"] = per_run(double(sum.stateClones));
    layer["exec.lane_enqueues"] = per_run(double(lane.laneEnqueues));
    layer["exec.lane_deferred"] = per_run(double(lane.laneDeferred));
    layer["threading.parks"] = per_run(double(pool.parks));
    layer["threading.unparks"] = per_run(double(pool.unparks));
    layer["threading.steals"] = per_run(double(pool.stolen));
    return report;
}

} // namespace

Report
runEngineWorkload(const std::string &workload, std::uint64_t seed,
                  double seconds, SpanLog *spans)
{
    if (workload == "sdi-coarse")
        return measure("swaptions", coarseProgram, kCoarseInputSets, seed,
                       seconds, spans);
    return measure("fluidanimate", misspecProgram, kMisspecInputSets, seed,
                   seconds, spans);
}

std::string
checkEngineBandRejectsBadOutput(std::uint64_t seed)
{
    using Bench = EngineBench<fl::TimeStep, fl::Fluid, fl::FrameOutput>;
    Bench bench("fluidanimate", misspecProgram, seed, 1);
    bench.computeOracles();
    std::vector<double> seq_errors, bad_errors;
    for (int i = 0; i < 4; ++i) {
        double error = 0.0;
        bench.runSequential(0, error);
        seq_errors.push_back(error);
    }
    bench.program(0).matcher = sdi::alwaysMatch<fl::Fluid>();
    for (int i = 0; i < 4; ++i)
        bad_errors.push_back(bench.runStats(0, nullptr, 0).error);
    double use = 0.0;
    if (outsideBand(seq_errors, seq_errors, use) != 0)
        return "the band rejects the sequential runs themselves";
    if (outsideBand(bad_errors, seq_errors, use) != 4)
        return "the band accepts runs that committed unmatched states";
    return "";
}

} // namespace e2ebench
