#include "support/rng.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <random>

namespace stats::support {

namespace {

std::atomic<std::uint64_t> deterministicBase{0};
std::atomic<bool> deterministicEnabled{false};
std::atomic<std::uint64_t> seedCounter{0};

// Starting state of this thread's unpinned entropy stream.
std::uint64_t
threadEntropyState()
{
    static std::atomic<std::uint64_t> threadIndex{0};
    std::random_device device;
    std::uint64_t sm = (static_cast<std::uint64_t>(device()) << 32) ^
                       device();
    sm ^= static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    sm += threadIndex.fetch_add(1) * 0x9e3779b97f4a7c15ULL;
    return splitmix64(sm);
}

} // namespace

namespace detail {

ZigguratTables
buildZigguratTables()
{
    ZigguratTables t{};
    double f = std::exp(-0.5 * kZigR * kZigR);
    t.x[0] = kZigV / f;
    t.x[1] = kZigR;
    t.x[kZigLayers] = 0.0;
    for (std::size_t i = 2; i < kZigLayers; ++i) {
        t.x[i] = std::sqrt(-2.0 * std::log(kZigV / t.x[i - 1] + f));
        f = std::exp(-0.5 * t.x[i] * t.x[i]);
    }
    for (std::size_t i = 0; i <= kZigLayers; ++i)
        t.f[i] = std::exp(-0.5 * t.x[i] * t.x[i]);
    for (std::size_t i = 0; i < kZigLayers; ++i)
        t.ratio[i] = t.x[i + 1] / t.x[i];
    return t;
}

} // namespace detail

std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Xoshiro256::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &word : _s)
        word = splitmix64(sm);
}

double
Xoshiro256::nextDouble()
{
    // 53 high-quality bits -> [0, 1).
    return ((*this)() >> 11) * 0x1.0p-53;
}

double
Xoshiro256::uniform(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

std::uint64_t
Xoshiro256::nextBelow(std::uint64_t n)
{
    // Debiased multiply-shift (Lemire).
    const std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Xoshiro256::uniformInt(std::int64_t lo, std::int64_t hi)
{
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Xoshiro256::gaussianOverhang(std::size_t layer, double u)
{
    using namespace detail;
    const ZigguratTables &zig = zigguratTables();
    if (layer == 0) {
        // The base layer's overhang is the tail beyond kZigR.
        // Marsaglia's tail method; 1 - nextDouble() is in (0, 1].
        double x = 0.0, y = 0.0;
        do {
            x = std::log(1.0 - nextDouble()) / kZigR;
            y = std::log(1.0 - nextDouble());
        } while (-2.0 * y < x * x);
        return u < 0.0 ? x - kZigR : kZigR - x;
    }
    // A wedge between the curve and the rectangle: accept when a
    // uniform height in [f(x[layer]), f(x[layer + 1])] is under the
    // curve, else start over with a fresh draw.
    const double x = u * zig.x[layer];
    const double y =
        zig.f[layer] + nextDouble() * (zig.f[layer + 1] - zig.f[layer]);
    if (y < std::exp(-0.5 * x * x))
        return x;
    return gaussian();
}

double
Xoshiro256::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

std::uint64_t
entropySeed()
{
    if (deterministicEnabled.load()) {
        std::uint64_t sm = deterministicBase.load() + seedCounter.fetch_add(1);
        return splitmix64(sm);
    }
    thread_local std::uint64_t state = threadEntropyState();
    return splitmix64(state);
}

ScopedDeterministicSeeds::ScopedDeterministicSeeds(std::uint64_t base)
    : _savedBase(deterministicBase.load()),
      _savedCounter(seedCounter.load()),
      _savedEnabled(deterministicEnabled.load())
{
    deterministicBase.store(base);
    deterministicEnabled.store(true);
    seedCounter.store(0);
}

ScopedDeterministicSeeds::~ScopedDeterministicSeeds()
{
    deterministicBase.store(_savedBase);
    seedCounter.store(_savedCounter);
    deterministicEnabled.store(_savedEnabled);
}

} // namespace stats::support
