#include "sim/machine.hpp"

#include <algorithm>

namespace stats::sim {

std::vector<LogicalCore>
placeThreads(const MachineConfig &config, int threads)
{
    const int capacity = config.logicalCpus();
    threads = std::max(1, std::min(threads, capacity));

    // Build the machine's logical cpus in placement-policy order.
    std::vector<LogicalCore> order;
    order.reserve(capacity);

    const int hw_threads = config.hyperThreading ? 2 : 1;
    if (config.placement == MachineConfig::Placement::FillSocketsFirst) {
        for (int hw = 0; hw < hw_threads; ++hw) {
            for (int s = 0; s < config.sockets; ++s) {
                for (int c = 0; c < config.coresPerSocket; ++c) {
                    order.push_back({s, s * config.coresPerSocket + c, hw});
                }
            }
        }
    } else { // SingleSocketFirst
        for (int s = 0; s < config.sockets; ++s) {
            for (int hw = 0; hw < hw_threads; ++hw) {
                for (int c = 0; c < config.coresPerSocket; ++c) {
                    order.push_back({s, s * config.coresPerSocket + c, hw});
                }
            }
        }
    }

    order.resize(static_cast<std::size_t>(threads));
    return order;
}

bool
spansSockets(const std::vector<LogicalCore> &placement)
{
    for (const auto &core : placement) {
        if (core.socket != 0)
            return true;
    }
    return false;
}

} // namespace stats::sim
