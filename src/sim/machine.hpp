/**
 * @file
 * Description of the simulated many-core platform.
 *
 * Models the paper's evaluation machine: a dual-socket Dell R730 with
 * two 14-core Intel Xeon E5-2695 v3 (Haswell) processors, 2-way
 * Hyper-Threading, and a NUMA memory system (paper section 4.1).
 */

#pragma once

#include <string>
#include <vector>

namespace stats::sim {

/**
 * Static platform parameters.
 *
 * The defaults reproduce the paper's platform. The Hyper-Threading
 * speed factor encodes Intel's guidance (cited by the paper) that a
 * successful use of HT yields ~30% extra throughput per physical
 * core: two co-resident hardware threads each run at 0.65x, for a
 * combined 1.3x.
 */
struct MachineConfig
{
    int sockets = 2;
    int coresPerSocket = 14;

    /** Whether the OS exposes HT sibling hardware threads. */
    bool hyperThreading = false;

    /** Per-thread speed when both siblings of a core are busy. */
    double htSpeedFactor = 0.65;

    /**
     * Multiplier applied to the memory-bound fraction of every task
     * when the allocation spans both sockets (remote accesses cross
     * QPI; paper section 4.3, "The multi-socket effect").
     */
    double numaMemPenalty = 1.45;

    /** Fixed per-task dispatch/synchronization overhead, seconds. */
    double dispatchOverhead = 12e-6;

    /** How logical threads are laid out onto the machine. */
    enum class Placement
    {
        /** Physical cores of socket 0, then socket 1, then siblings. */
        FillSocketsFirst,
        /** All of socket 0 (physical then siblings), then socket 1. */
        SingleSocketFirst,
    };
    Placement placement = Placement::FillSocketsFirst;

    int physicalCores() const { return sockets * coresPerSocket; }
    int logicalCpus() const
    {
        return physicalCores() * (hyperThreading ? 2 : 1);
    }
};

/** One allocated logical core: where it lives on the machine. */
struct LogicalCore
{
    int socket;
    int physicalCore; ///< Global physical-core index.
    int hwThread;     ///< 0 = primary, 1 = HT sibling.
};

/**
 * Compute the placement of `threads` logical cores on the machine.
 *
 * Clamps to the machine's capacity. The returned vector's index is
 * the logical-core id used by the simulator.
 */
std::vector<LogicalCore> placeThreads(const MachineConfig &config,
                                      int threads);

/** True if the placement uses more than one socket. */
bool spansSockets(const std::vector<LogicalCore> &placement);

} // namespace stats::sim
