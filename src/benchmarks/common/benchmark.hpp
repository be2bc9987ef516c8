/**
 * @file
 * Common interface of the six reimplemented benchmarks
 * (paper section 4.2).
 *
 * Each benchmark is a real nondeterministic computation with the
 * state-dependence pattern of paper Figure 4, run on the simulated
 * many-core platform. A benchmark exposes:
 *  - its state space (shared runtime dimensions + its auxiliary
 *    tradeoff dimensions),
 *  - a run() entry that executes one configuration in one of the
 *    paper's three modes (Original / Seq. STATS / Par. STATS),
 *  - workload generation (representative and the paper's
 *    non-representative variants of section 4.6),
 *  - its domain quality metric, evaluated against an oracle produced
 *    with quality-maximizing tradeoffs.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "replay/session.hpp"
#include "sdi/spec_config.hpp"
#include "sim/machine.hpp"
#include "tradeoff/registry.hpp"
#include "tradeoff/state_space.hpp"

namespace stats::benchmarks {

/** The three parallelization modes of paper Figure 12. */
enum class Mode
{
    /** Out-of-the-box benchmark, original TLP only. */
    Original,
    /** Only the TLP from satisfying state dependences (Seq. STATS). */
    SeqStats,
    /** Original TLP combined with STATS TLP (Par. STATS). */
    ParStats,
};

const char *modeName(Mode mode);

/** Workload families (paper sections 4.2 and 4.6). */
enum class WorkloadKind
{
    Representative,    ///< Native-like inputs.
    NonRepresentative, ///< Adversarial training inputs (section 4.6).
};

/**
 * How the state dependence is speculated on (paper section 4.4).
 *
 * The related-work comparators are reimplemented "on our
 * infrastructure ... configured to target only the state dependences
 * we identified", i.e. as alternative policies of the same engine.
 */
enum class SpeculationPolicy
{
    /** STATS: auxiliary code + developer state comparison. */
    StatsAux,
    /**
     * Break the dependence: subsequent groups start from a stale
     * clone of the initial state, no auxiliary inputs, no runtime
     * check (ALTER / QuickStep / HELIX-UP style; output quality is
     * gated offline against the original variability).
     */
    BreakNoCheck,
    /**
     * Fast Track: speculate "no changes in the final state" and
     * verify against the *single* unspeculative state — with a
     * nondeterministic producer this never matches and the
     * speculation always aborts (paper section 4.4).
     */
    StaleExactCheck,
};

/** One benchmark execution request. */
struct RunRequest
{
    Mode mode = Mode::Original;
    tradeoff::Configuration config; ///< Empty -> default configuration.
    int threads = 1;
    sim::MachineConfig machine;
    WorkloadKind workload = WorkloadKind::Representative;
    std::uint64_t workloadSeed = 1; ///< Input-generation seed.

    /**
     * Seed for the program's PRVGs. 0 requests true entropy (the
     * nondeterministic production behaviour); nonzero pins the run
     * for reproducible tests.
     */
    std::uint64_t runSeed = 0;

    /** Speculation policy (STATS by default; see section 4.4). */
    SpeculationPolicy policy = SpeculationPolicy::StatsAux;

    /** Record/replay session the run's engine reports to (never
     *  null). */
    replay::ReplaySession *session = &replay::ReplaySession::global();
};

/** Result of one benchmark execution. */
struct RunResult
{
    double virtualSeconds = 0.0;
    double energyJoules = 0.0;
    /** Flattened outputs, consumed by the quality metric. */
    std::vector<double> signature;
    sdi::EngineStats engineStats;
};

/** A reimplemented PARSEC/OpenCV benchmark. */
class Benchmark
{
  public:
    virtual ~Benchmark() = default;

    virtual std::string name() const = 0;

    /**
     * State-space for autotuning with `threads` hardware threads.
     * Includes the shared runtime dimensions (group size, auxiliary
     * window, re-execution budget, rollback depth, thread split,
     * auxiliary on/off) and the benchmark's tradeoff dimensions.
     */
    virtual tradeoff::StateSpace stateSpace(int threads) const = 0;

    /** Number of encodable auxiliary tradeoffs (Table 1 order). */
    virtual int tradeoffCount() const = 0;

    /** Run one configuration. */
    virtual RunResult run(const RunRequest &request) = 0;

    /**
     * Oracle signature for a workload: produced with tradeoffs set to
     * maximize output quality (paper section 4.2, "Output quality"),
     * averaged over repetitions to suppress its own nondeterminism.
     */
    virtual std::vector<double>
    oracleSignature(WorkloadKind kind, std::uint64_t workload_seed) = 0;

    /**
     * The benchmark's domain metric: distance of a run's output to
     * the oracle's (lower is better).
     */
    virtual double quality(const std::vector<double> &signature,
                           const std::vector<double> &oracle) const = 0;

    /**
     * Whether averaging repeated outputs improves this benchmark's
     * quality metric (used by the Figure 16 experiment: spend saved
     * time iterating over the same dataset).
     */
    virtual bool supportsQualityIteration() const { return false; }

    /** Average several run signatures element-wise. */
    static std::vector<double>
    averageSignatures(const std::vector<std::vector<double>> &signatures);
};

/** Construct a benchmark by name; panics on unknown names. */
std::unique_ptr<Benchmark> createBenchmark(const std::string &name);

/** All six benchmark names, in the paper's figure order. */
const std::vector<std::string> &allBenchmarkNames();

// ---------------------------------------------------------------------
// Shared state-space plumbing
// ---------------------------------------------------------------------

/** Names of the shared runtime dimensions. */
namespace dims {
inline constexpr const char *kUseAux = "useAux";
inline constexpr const char *kGroupSize = "groupSize";
inline constexpr const char *kAuxWindow = "auxWindow";
inline constexpr const char *kReexecs = "reexecs";
inline constexpr const char *kRollback = "rollback";
inline constexpr const char *kInnerThreads = "innerThreads";
} // namespace dims

/** Value tables behind the shared dimensions. */
const std::vector<int> &groupSizeValues();
const std::vector<int> &auxWindowValues();
const std::vector<int> &reexecValues();
const std::vector<int> &rollbackValues();

/**
 * Append the shared runtime dimensions to a state space
 * (paper section 3.3: every benchmark "naturally has" the two thread
 * counts plus the per-dependence knobs).
 */
void addRuntimeDimensions(tradeoff::StateSpace &space, int threads);

/**
 * Derive the engine configuration from a configuration + mode:
 * Original ignores speculation; Seq. STATS gives every thread to the
 * state dependence; Par. STATS splits threads per the configuration.
 */
sdi::SpecConfig specConfigFor(const tradeoff::StateSpace &space,
                              const tradeoff::Configuration &config,
                              Mode mode, int threads);

/**
 * Build a tradeoff assignment for the benchmark's registry from the
 * tradeoff dimensions of a configuration (dimension names that match
 * registry entries are copied through; runtime dimensions are
 * skipped).
 */
tradeoff::Assignment
assignmentFor(const tradeoff::StateSpace &space,
              const tradeoff::Configuration &config,
              const tradeoff::Registry &registry);

} // namespace stats::benchmarks
