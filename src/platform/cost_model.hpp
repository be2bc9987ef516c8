/**
 * @file
 * Cost models mapping benchmark work to virtual task durations.
 *
 * Benchmarks execute their real kernels on the host and report costs
 * in virtual seconds through these helpers. `InnerParallelModel`
 * captures a benchmark's *original* TLP (the "traditional means"
 * parallelization the paper compares against): an Amdahl-style
 * serial fraction plus a per-thread synchronization cost, which is
 * what makes each benchmark's original scaling curve in Figure 12
 * bend at a benchmark-specific point.
 */

#pragma once

#include <algorithm>

#include "exec/task.hpp"
#include "sim/machine.hpp"

namespace stats::platform {

/** Nominal host-independent execution rate: work ops per second. */
constexpr double kOpsPerSecond = 250.0e6;

/** Convert an operation count to virtual seconds on one core. */
inline double
opsToSeconds(double ops)
{
    return ops / kOpsPerSecond;
}

/**
 * Effective parallel throughput of `logical_threads` hardware
 * threads on `machine`: each thread on its own physical core
 * contributes 1.0; an HT sibling sharing a busy core contributes the
 * marginal throughput of Hyper-Threading (2 * htSpeedFactor - 1,
 * i.e. ~0.3 for the paper's 30% guidance).
 */
inline double
effectiveParallelism(const sim::MachineConfig &machine,
                     int logical_threads, double mem_bound = 0.0)
{
    const int t =
        std::min(std::max(1, logical_threads), machine.logicalCpus());
    const int physical = std::min(t, machine.physicalCores());
    const int siblings = t - physical;
    // Memory-bound code benefits more from HT: the sibling hides
    // stalls instead of competing for execution ports.
    const double marginal = (2.0 * machine.htSpeedFactor - 1.0) +
                            0.45 * mem_bound;
    return physical + std::min(marginal, 1.0) * siblings;
}

/**
 * Model of one code region's internal (original) parallelism.
 *
 * duration(work, t, eff) =
 *     work * (serial + (1-serial)/eff) + syncCost * (t - 1)
 *
 * `eff` is the effective throughput of the `t` logical threads
 * (accounts for Hyper-Threading sharing); the serial fraction always
 * runs at full single-thread speed. The linear sync term models the
 * inter-thread synchronization that the paper identifies as the
 * bottleneck of, e.g., bodytrack's original TLP (section 4.3).
 */
struct InnerParallelModel
{
    /** Fraction of each invocation that cannot be parallelized. */
    double serialFraction = 0.05;

    /** Seconds of synchronization overhead per participating thread. */
    double syncCostPerThread = 0.0;

    /** Fraction of the work that is memory-bound (NUMA-sensitive). */
    double memBound = 0.2;

    /**
     * Virtual duration of an invocation of `workSeconds` total work
     * executed with `threads` inner threads of `effective` combined
     * throughput (defaults to full-speed threads).
     */
    double
    duration(double work_seconds, int threads,
             double effective = 0.0) const
    {
        const double t = std::max(1, threads);
        const double eff = effective > 0.0 ? effective : t;
        return work_seconds *
                   (serialFraction + (1.0 - serialFraction) / eff) +
               syncCostPerThread * (t - 1.0);
    }

    /** Package a duration as executor work. */
    exec::Work
    work(double work_seconds, int threads, double effective = 0.0) const
    {
        return exec::Work{duration(work_seconds, threads, effective),
                          memBound};
    }

    /**
     * Package an invocation of `workSeconds` total work run with
     * `threads` inner threads on `machine`, whose Hyper-Threading
     * sharing sets the effective throughput.
     */
    exec::Work
    workOn(const sim::MachineConfig &machine, double work_seconds,
           int threads) const
    {
        return work(work_seconds, threads,
                    effectiveParallelism(machine, threads, memBound));
    }
};

} // namespace stats::platform
