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
#include <cstdint>

namespace stats::support {

/** splitmix64 step, used to expand a single seed into a full state. */
std::uint64_t splitmix64(std::uint64_t &state);

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

    result_type operator()();

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
     * compare.
     */
    double gaussian();

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Re-seed in place. */
    void seed(std::uint64_t seed);

  private:
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
