#include "benchmarks/common/benchmark.hpp"

#include <algorithm>

#include "support/log.hpp"

namespace stats::benchmarks {

const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::Original: return "Original";
      case Mode::SeqStats: return "Seq. STATS";
      case Mode::ParStats: return "Par. STATS";
    }
    return "?";
}

std::vector<double>
Benchmark::oracleSignature(WorkloadKind kind, std::uint64_t workload_seed)
{
    const auto key = std::make_pair(kind, workload_seed);
    auto it = _oracleCache.find(key);
    if (it == _oracleCache.end())
        it = _oracleCache.emplace(key, computeOracle(kind, workload_seed))
                 .first;
    return it->second;
}

std::vector<double>
Benchmark::averageSignatures(
    const std::vector<std::vector<double>> &signatures)
{
    if (signatures.empty())
        return {};
    std::vector<double> avg(signatures.front().size(), 0.0);
    for (const auto &s : signatures) {
        if (s.size() != avg.size())
            support::panic("averageSignatures: ragged signatures");
        for (std::size_t i = 0; i < s.size(); ++i)
            avg[i] += s[i];
    }
    for (double &v : avg)
        v /= static_cast<double>(signatures.size());
    return avg;
}

const std::vector<int> &
groupSizeValues()
{
    static const std::vector<int> values{2, 4, 8, 16, 32};
    return values;
}

const std::vector<int> &
auxWindowValues()
{
    static const std::vector<int> values{1, 2, 3, 4, 6, 8};
    return values;
}

const std::vector<int> &
reexecValues()
{
    static const std::vector<int> values{0, 1, 2, 4};
    return values;
}

const std::vector<int> &
rollbackValues()
{
    static const std::vector<int> values{1, 2, 4};
    return values;
}

tradeoff::StateSpace
stateSpaceFor(const tradeoff::Registry &registry, int threads)
{
    tradeoff::StateSpace space;
    space.add(dims::kUseAux, 2, /* default: on */ 1);
    space.add(dims::kGroupSize,
              static_cast<std::int64_t>(groupSizeValues().size()), 1);
    space.add(dims::kAuxWindow,
              static_cast<std::int64_t>(auxWindowValues().size()), 3);
    space.add(dims::kReexecs,
              static_cast<std::int64_t>(reexecValues().size()), 2);
    space.add(dims::kRollback,
              static_cast<std::int64_t>(rollbackValues().size()), 0);
    // Values 1..threads; default: one inner thread (all to STATS).
    space.add(dims::kInnerThreads, std::max(1, threads), 0);
    for (const auto &name : registry.auxNames()) {
        const auto &t = registry.get(name);
        space.add(name, t.valueCount(), t.options().getDefaultIndex());
    }
    return space;
}

sdi::SpecConfig
specConfigFor(const tradeoff::StateSpace &space,
              const tradeoff::Configuration &config, Mode mode,
              int threads)
{
    sdi::SpecConfig spec;
    const auto pick = [&](const char *name, const std::vector<int> &vals) {
        const auto index =
            static_cast<std::size_t>(space.at(config, name));
        return vals[std::min(index, vals.size() - 1)];
    };

    spec.groupSize = pick(dims::kGroupSize, groupSizeValues());
    spec.auxWindow = pick(dims::kAuxWindow, auxWindowValues());
    spec.maxReexecutions = pick(dims::kReexecs, reexecValues());
    spec.rollbackDepth = pick(dims::kRollback, rollbackValues());

    switch (mode) {
      case Mode::Original:
        spec.useAuxiliary = false;
        spec.innerThreads = threads;
        spec.sdThreads = 1;
        break;
      case Mode::SeqStats:
        // Start from the sequential program: all TLP comes from the
        // state dependence.
        spec.useAuxiliary = space.at(config, dims::kUseAux) != 0;
        spec.innerThreads = 1;
        spec.sdThreads = threads;
        break;
      case Mode::ParStats: {
        spec.useAuxiliary = space.at(config, dims::kUseAux) != 0;
        const int inner =
            static_cast<int>(space.at(config, dims::kInnerThreads)) + 1;
        spec.innerThreads = std::min(inner, threads);
        spec.sdThreads = std::max(1, threads / spec.innerThreads);
        break;
      }
    }
    return spec;
}

tradeoff::Assignment
assignmentFor(const tradeoff::StateSpace &space,
              const tradeoff::Configuration &config,
              const tradeoff::Registry &registry)
{
    tradeoff::Assignment assignment;
    for (std::size_t i = 0; i < space.dimensionCount(); ++i) {
        const auto &name = space.dimension(i).name;
        if (registry.has(name))
            assignment.set(name, config[i]);
    }
    return assignment;
}

} // namespace stats::benchmarks
