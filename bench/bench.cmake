# Benchmark harnesses: one binary per paper table/figure plus
# google-benchmark microbenchmarks of the runtime and compilers.
#
# This file is include()d from the top-level CMakeLists (instead of
# add_subdirectory) so that ${CMAKE_BINARY_DIR}/bench contains ONLY
# the runnable binaries: the whole suite can be executed with
#   for b in build/bench/*; do $b; done

# The command line and baseline reader every option-taking bench
# binary shares; small, so the micro benchmarks link it alone.
add_library(stats_bench_cli STATIC
    bench/common/command_line.cpp)
target_include_directories(stats_bench_cli PUBLIC
    ${PROJECT_SOURCE_DIR}/bench)
target_link_libraries(stats_bench_cli PUBLIC stats_support)

add_library(stats_bench_common STATIC
    bench/common/experiment.cpp
    bench/common/ir_synth.cpp)
target_link_libraries(stats_bench_common PUBLIC
    stats_bench_cli stats_profiler stats_baselines stats_frontend
    stats_midend stats_backend stats_replay)

function(stats_add_figure name)
    add_executable(${name} bench/${name}.cpp)
    target_link_libraries(${name} PRIVATE stats_bench_common)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

stats_add_figure(fig02_output_variability)
stats_add_figure(fig03_todays_limits)
stats_add_figure(table1_developer_effort)
stats_add_figure(fig12_scalability)
stats_add_figure(fig13_geomean)
stats_add_figure(fig14_hyperthreading)
stats_add_figure(fig15_energy)
stats_add_figure(fig16_quality_improvement)
stats_add_figure(fig17_related_work)
stats_add_figure(fig18_tradeoff_payoff)
stats_add_figure(fig19_bad_training)
stats_add_figure(fig20_autotuner_convergence)
stats_add_figure(ablation_design_choices)

function(stats_add_micro name)
    add_executable(${name} bench/${name}.cpp)
    target_link_libraries(${name} PRIVATE
        stats_bench_common benchmark::benchmark)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

stats_add_micro(micro_runtime)
stats_add_micro(micro_compilers)

# Scheduler hot-path benchmark: plain binary (no google-benchmark) so
# CI can run its --check regression gate against a checked-in baseline.
add_executable(micro_scheduler bench/micro_scheduler.cpp)
target_link_libraries(micro_scheduler PRIVATE
    stats_bench_cli stats_exec stats_threading stats_observability)
set_target_properties(micro_scheduler PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Execution-tier benchmark: AST walker vs bytecode VM vs batched SoA
# mode, with the same --check regression gate (docs/INTERPRETER.md §8).
add_executable(micro_interpreter bench/micro_interpreter.cpp)
target_link_libraries(micro_interpreter PRIVATE
    stats_bench_cli stats_bytecode stats_ir)
set_target_properties(micro_interpreter PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
