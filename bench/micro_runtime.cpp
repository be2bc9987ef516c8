/**
 * @file
 * Microbenchmarks (google-benchmark) of the STATS runtime substrate:
 * speculation-engine orchestration overhead, state cloning, thread
 * pool dispatch, the platform simulator's event throughput, and the
 * Monte-Carlo hot path the kernels share (normals, entropy seeds,
 * one swaptions batch, one fluidanimate frame).
 *
 * These quantify the "low-level implementations of thread
 * synchronization primitives" and "efficient thread pool" the paper's
 * runtime relies on (section 3.4).
 */

#include <benchmark/benchmark.h>

#include "benchmarks/fluidanimate/fluidanimate.hpp"
#include "benchmarks/swaptions/swaptions.hpp"
#include "exec/sim_executor.hpp"
#include "observability/trace.hpp"
#include "sdi/matchers.hpp"
#include "sdi/spec_engine.hpp"
#include "support/rng.hpp"
#include "threading/thread_pool.hpp"

namespace {

using namespace stats;

struct TinyState
{
    long long v = 0;
    bool operator==(const TinyState &o) const { return v == o.v; }
};
struct TinyOutput
{
    long long v;
};
using Engine = sdi::SpecEngine<int, TinyState, TinyOutput>;

Engine::ComputeFn
tinyCompute()
{
    return [](const int &input, TinyState &state,
              const sdi::ComputeContext &) -> Engine::Invocation {
        state.v = input;
        auto out = std::make_unique<TinyOutput>();
        out->v = state.v;
        return {std::move(out), exec::Work{1e-4, 0.0}};
    };
}

/** Full engine run on the simulator: orchestration cost per input. */
void
BM_SpecEngineOrchestration(benchmark::State &bench_state)
{
    const auto n = static_cast<std::size_t>(bench_state.range(0));
    std::vector<int> inputs(n);
    for (std::size_t i = 0; i < n; ++i)
        inputs[i] = static_cast<int>(i);

    for (auto _ : bench_state) {
        sim::MachineConfig machine;
        exec::SimExecutor ex(machine, 28);
        sdi::SpecConfig config;
        config.groupSize = 8;
        config.auxWindow = 1;
        config.sdThreads = 28;
        Engine engine(ex, inputs, TinyState{}, tinyCompute(),
                      tinyCompute(), sdi::alwaysMatch<TinyState>(),
                      config);
        engine.start();
        engine.join();
        benchmark::DoNotOptimize(engine.outputs().size());
    }
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpecEngineOrchestration)->Arg(64)->Arg(256)->Arg(1024);

/** Simulator event throughput: tasks scheduled per second. */
void
BM_SimulatorDispatch(benchmark::State &bench_state)
{
    const auto tasks = static_cast<int>(bench_state.range(0));
    for (auto _ : bench_state) {
        sim::MachineConfig machine;
        sim::Simulator simulator(machine, 28);
        for (int i = 0; i < tasks; ++i) {
            exec::Task task;
            task.run = [] { return exec::Work{1e-5, 0.0}; };
            simulator.submit(std::move(task));
        }
        simulator.run();
        benchmark::DoNotOptimize(simulator.activity().tasksRun);
    }
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()) * tasks);
}
BENCHMARK(BM_SimulatorDispatch)->Arg(1000)->Arg(10000);

/** Thread pool job dispatch latency. */
void
BM_ThreadPoolDispatch(benchmark::State &bench_state)
{
    threading::ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (auto _ : bench_state) {
        constexpr int kJobs = 256;
        for (int i = 0; i < kJobs; ++i)
            pool.submit([&counter] { counter.fetch_add(1); });
        pool.waitIdle();
    }
    benchmark::DoNotOptimize(counter.load());
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()) * 256);
}
BENCHMARK(BM_ThreadPoolDispatch);

/**
 * Orchestration with tracing OFF at run time: measures the cost of
 * the disabled-path checks (one relaxed load per instrumentation
 * site). Compare against BM_SpecEngineOrchestration — the acceptance
 * bar is <1% regression (docs/OBSERVABILITY.md, "Cost model"); a
 * build with -DSTATS_OBS_DISABLE=ON removes even the load.
 */
void
BM_SpecEngineTracingDisabled(benchmark::State &bench_state)
{
    obs::Trace::global().disable();
    obs::Trace::global().clear();
    const auto n = static_cast<std::size_t>(bench_state.range(0));
    std::vector<int> inputs(n);
    for (std::size_t i = 0; i < n; ++i)
        inputs[i] = static_cast<int>(i);
    for (auto _ : bench_state) {
        sim::MachineConfig machine;
        exec::SimExecutor ex(machine, 28);
        sdi::SpecConfig config;
        config.groupSize = 8;
        config.auxWindow = 1;
        config.sdThreads = 28;
        Engine engine(ex, inputs, TinyState{}, tinyCompute(),
                      tinyCompute(), sdi::alwaysMatch<TinyState>(),
                      config);
        engine.start();
        engine.join();
        benchmark::DoNotOptimize(engine.outputs().size());
    }
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpecEngineTracingDisabled)->Arg(256)->Arg(1024);

/** Orchestration with tracing ON: full per-event recording cost. */
void
BM_SpecEngineTracingEnabled(benchmark::State &bench_state)
{
    const auto n = static_cast<std::size_t>(bench_state.range(0));
    std::vector<int> inputs(n);
    for (std::size_t i = 0; i < n; ++i)
        inputs[i] = static_cast<int>(i);
    for (auto _ : bench_state) {
        obs::Trace::global().clear();
        obs::Trace::global().enable();
        sim::MachineConfig machine;
        exec::SimExecutor ex(machine, 28);
        sdi::SpecConfig config;
        config.groupSize = 8;
        config.auxWindow = 1;
        config.sdThreads = 28;
        Engine engine(ex, inputs, TinyState{}, tinyCompute(),
                      tinyCompute(), sdi::alwaysMatch<TinyState>(),
                      config);
        engine.start();
        engine.join();
        benchmark::DoNotOptimize(engine.outputs().size());
        obs::Trace::global().disable();
    }
    obs::Trace::global().clear();
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpecEngineTracingEnabled)->Arg(256)->Arg(1024);

/** Raw sink throughput: one record() call, single thread. */
void
BM_TraceRecord(benchmark::State &bench_state)
{
    obs::Trace::global().clear();
    obs::Trace::global().enable();
    std::int64_t i = 0;
    for (auto _ : bench_state) {
        obs::Trace::global().record(obs::EventType::Commit, 0, i,
                                    i + 1, 0.0, obs::kFrontierTrack,
                                    0);
        ++i;
    }
    obs::Trace::global().disable();
    obs::Trace::global().clear();
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()));
}
BENCHMARK(BM_TraceRecord);

/** Engine state-cloning path: copy cost of a particle-filter state. */
void
BM_StateCloning(benchmark::State &bench_state)
{
    struct BigState
    {
        std::vector<double> data;
    };
    BigState state;
    state.data.resize(static_cast<std::size_t>(bench_state.range(0)));
    for (auto _ : bench_state) {
        BigState clone = state; // What the runtime does per group.
        benchmark::DoNotOptimize(clone.data.data());
    }
}
BENCHMARK(BM_StateCloning)->Arg(1000)->Arg(10000);

/** One standard normal draw. */
void
BM_Gaussian(benchmark::State &bench_state)
{
    support::Xoshiro256 rng(1);
    for (auto _ : bench_state)
        benchmark::DoNotOptimize(rng.gaussian());
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()));
}
BENCHMARK(BM_Gaussian);

/** One unpinned entropy seed, per calling thread. */
void
BM_EntropySeed(benchmark::State &bench_state)
{
    for (auto _ : bench_state)
        benchmark::DoNotOptimize(support::entropySeed());
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()));
}
BENCHMARK(BM_EntropySeed)->Threads(1)->Threads(4);

/**
 * One swaptions batch at the double tradeoffs: 48 trials as the
 * simulator runs it, 480 as e2ebench sdi-coarse does.
 */
void
BM_SwaptionsBatch(benchmark::State &bench_state)
{
    namespace sw = benchmarks::swaptions;
    const auto workload =
        sw::makeWorkload(benchmarks::WorkloadKind::Representative, 1);
    const sw::Batch batch{0, 0, static_cast<int>(bench_state.range(0))};
    support::Xoshiro256 rng(1);
    sw::PriceState state;
    for (auto _ : bench_state) {
        benchmark::DoNotOptimize(sw::simulateBatch(
            state, batch, workload.terms[0], sw::McParams{}, rng));
    }
    benchmark::DoNotOptimize(state.sumPayoff);
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()));
}
BENCHMARK(BM_SwaptionsBatch)->Arg(48)->Arg(480);

/**
 * One fluidanimate frame at the default tradeoffs, from the initial
 * fluid each time (includes copying it), so that the cost does not
 * drift with a fluid that keeps evolving.
 */
void
BM_FluidFrame(benchmark::State &bench_state)
{
    namespace fl = benchmarks::fluidanimate;
    const fl::Workload workload =
        fl::makeWorkload(benchmarks::WorkloadKind::Representative, 1);
    support::Xoshiro256 rng(1);
    for (auto _ : bench_state) {
        fl::Fluid fluid = workload.initial;
        benchmark::DoNotOptimize(fl::advanceFrame(
            fluid, workload.steps.front(), fl::SphParams{}, rng));
        benchmark::DoNotOptimize(fluid.positions.data());
    }
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()));
}
BENCHMARK(BM_FluidFrame);

} // namespace

BENCHMARK_MAIN();
