/**
 * @file
 * Pseudo random value generators (PRVGs).
 *
 * The paper's benchmarks are nondeterministic because their PRVGs are
 * seeded randomly (paper section 4.2, "Nondeterminism"). This module
 * provides a fast, high-quality generator (xoshiro256**) with both
 * explicit seeding (for reproducible tests) and entropy-based seeding
 * (for the nondeterministic production behaviour STATS exploits).
 */

#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace stats::support {

/** splitmix64 step, used to expand a single seed into a full state. */
std::uint64_t splitmix64(std::uint64_t &state);

namespace detail {

// Ziggurat constants for 128 layers of equal area kZigV under the
// standard normal's unnormalized density f(x) = exp(-x^2 / 2), with
// the base layer's tail starting at kZigR (Marsaglia & Tsang 2000).
inline constexpr std::size_t kZigLayers = 128;
inline constexpr double kZigR = 3.442619855899;
inline constexpr double kZigV = 9.91256303526217e-3;

struct ZigguratTables
{
    /** Layer right edges, decreasing: x[0] = kZigV / f(kZigR) is the
     *  base layer's virtual width, x[1] = kZigR, x[kZigLayers] = 0. */
    std::array<double, kZigLayers + 1> x;
    /** f(x[i]). */
    std::array<double, kZigLayers + 1> f;
    /** x[i + 1] / x[i]: the share of layer i under the curve. */
    std::array<double, kZigLayers> ratio;
};

ZigguratTables buildZigguratTables();

// Built on first use, never at namespace scope: a static initializer
// elsewhere that draws a normal must not see zeroed tables.
inline const ZigguratTables &
zigguratTables()
{
    static const ZigguratTables tables = buildZigguratTables();
    return tables;
}

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace detail

/**
 * xoshiro256** generator.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can be used
 * with <random> distributions as well as with the lightweight helpers
 * below (which are faster and fully portable across libstdc++
 * versions).
 */
class Xoshiro256
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    result_type
    operator()()
    {
        const std::uint64_t result = detail::rotl(_s[1] * 5, 7) * 9;
        const std::uint64_t t = _s[1] << 17;
        _s[2] ^= _s[0];
        _s[3] ^= _s[1];
        _s[1] ^= _s[2];
        _s[0] ^= _s[3];
        _s[2] ^= t;
        _s[3] = detail::rotl(_s[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t nextBelow(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /**
     * Standard normal via a 128-layer ziggurat (Marsaglia & Tsang,
     * with Doornik's ZIGNOR fix: the layer index and the uniform come
     * from disjoint bits of one draw). Exact for the normal
     * distribution; ~99% of calls take one draw, one multiply and one
     * compare, inline; the tail and the wedges are out of line.
     */
    double
    gaussian()
    {
        const detail::ZigguratTables &zig = detail::zigguratTables();
        // Doornik's fix: the layer index (low 7 bits) and the uniform
        // (high 53 bits) come from disjoint bits of one draw.
        const std::uint64_t bits = (*this)();
        const std::size_t layer = bits & (detail::kZigLayers - 1);
        const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
        // |x| < x[layer + 1]: the part of the layer under the curve.
        if (std::fabs(u) < zig.ratio[layer])
            return u * zig.x[layer];
        return gaussianOverhang(layer, u);
    }

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Re-seed in place. */
    void seed(std::uint64_t seed);

  private:
    /** gaussian() when the draw lands outside the layer's core. */
    double gaussianOverhang(std::size_t layer, double u);

    std::array<std::uint64_t, 4> _s;
};

/**
 * The entropy source for nondeterministic seeding.
 *
 * Each thread reads std::random_device once, mixed with the current
 * time and a per-thread index, into a thread_local splitmix64 state;
 * every call then advances that state. Calls are distinct within a
 * thread (splitmix64 is a bijection of its counter) and, with
 * overwhelming probability, across threads, and no unpinned call
 * writes shared memory. This mirrors restoring "PRVGs with random
 * seeds as it is done in a real scenario" (paper section 4.2).
 */
std::uint64_t entropySeed();

/**
 * Global switch that makes entropySeed() deterministic.
 *
 * Tests that need reproducible "nondeterminism" install a fixed seed
 * sequence: while a scope is active, the n-th call process-wide
 * returns splitmix64(base + n), from one shared counter, whichever
 * thread makes it. Production/bench code leaves it disabled. Scopes
 * nest: the destructor restores the enclosing scope's base and
 * counter, so a per-run pin (RunRequest::runSeed) composes with a
 * process-wide pin installed by record mode (docs/REPLAY.md).
 */
class ScopedDeterministicSeeds
{
  public:
    explicit ScopedDeterministicSeeds(std::uint64_t base);
    ~ScopedDeterministicSeeds();

    ScopedDeterministicSeeds(const ScopedDeterministicSeeds &) = delete;
    ScopedDeterministicSeeds &
    operator=(const ScopedDeterministicSeeds &) = delete;

  private:
    std::uint64_t _savedBase;
    std::uint64_t _savedCounter;
    bool _savedEnabled;
};

} // namespace stats::support
