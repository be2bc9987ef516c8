/**
 * @file
 * The deterministic record log: a compact, schema-versioned binary
 * capture of every nondeterministic choice point the speculation
 * engine takes (docs/REPLAY.md is the canonical format reference;
 * tests/replay_test.cpp keeps the two in lockstep).
 *
 * One log covers a whole *process* — a `statscc run`, a fig harness,
 * a tuning session — as a sequence of engine-run sections. Each
 * engine run contributes a RunBegin record (configuration
 * fingerprint), one record per choice point in serialized-callback
 * order ("epochs"), and a RunEnd record (EngineStats fingerprint).
 *
 * The format is fully deterministic: no timestamps, no pointers, no
 * hashes of addresses — two recordings of the same seeded run are
 * byte-identical, which is what the CI replay-determinism job
 * asserts with a plain byte compare.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace stats::replay {

/** Bumped on any change to the record kinds or their payloads. */
inline constexpr std::uint64_t kLogSchemaVersion = 1;

/** Every record kind the engine emits. Payloads: docs/REPLAY.md §2. */
enum class RecordKind : std::uint8_t
{
    RunBegin,      ///< Engine run started (payload: config fingerprint).
    MatchVerdict,  ///< Speculative-state check verdict (a: verdict,
                   ///< b: 1 if a fault forced it).
    Reexec,        ///< Producer re-execution submitted (a: attempt #).
    Commit,        ///< Group committed.
    Squash,        ///< Group squashed (a: aborting group).
    Abort,         ///< Speculation aborted at `group` (a echoes it).
    FaultInjected, ///< Fault-plan injection (a: FaultKind, b: detail).
    RunEnd,        ///< Engine run finished (payload: EngineStats).
};

inline constexpr int kRecordKindCount = 8;

/** Stable name of a record kind (as documented in REPLAY.md). */
const char *recordKindName(RecordKind kind);

/**
 * SpecConfig fingerprint captured by every RunBegin. A replay whose
 * engine is configured differently diverges immediately — the log
 * only makes sense against the same configuration.
 */
struct RunConfigRecord
{
    std::int64_t useAuxiliary = 0;
    std::int64_t groupSize = 0;
    std::int64_t auxWindow = 0;
    std::int64_t maxReexecutions = 0;
    std::int64_t rollbackDepth = 0;
    std::int64_t sdThreads = 0;
    std::int64_t innerThreads = 0;
    std::int64_t inputCount = 0;

    bool operator==(const RunConfigRecord &) const = default;
};

/** EngineStats fingerprint captured by every RunEnd. */
struct RunStatsRecord
{
    std::int64_t validations = 0;
    std::int64_t mismatches = 0;
    std::int64_t reexecutions = 0;
    std::int64_t aborts = 0;
    std::int64_t squashedGroups = 0;
    std::int64_t invocations = 0;

    bool operator==(const RunStatsRecord &) const = default;
};

/**
 * One recorded choice point. `run` is the engine-run index within the
 * log; `epoch` the record's ordinal within its run (the serialized
 * completion-callback order, which is the engine's decision order).
 */
struct Record
{
    RecordKind kind = RecordKind::Commit;
    std::uint32_t run = 0;
    std::uint32_t epoch = 0;
    std::int32_t group = -1;
    std::int64_t a = 0;
    std::int64_t b = 0;
    /** RunBegin/RunEnd payload (flattened fingerprint fields). */
    std::vector<std::int64_t> payload;

    bool operator==(const Record &) const = default;
};

/** Flatten/recover the RunBegin payload. */
std::vector<std::int64_t> encodeConfig(const RunConfigRecord &config);
std::optional<RunConfigRecord>
decodeConfig(const std::vector<std::int64_t> &payload);

/** Flatten/recover the RunEnd payload. */
std::vector<std::int64_t> encodeStats(const RunStatsRecord &stats);
std::optional<RunStatsRecord>
decodeStats(const std::vector<std::int64_t> &payload);

/** An in-memory record log plus its identifying header fields. */
struct RecordLog
{
    /** Root seed the recorded process was pinned with (0 = unpinned). */
    std::uint64_t rootSeed = 0;

    /**
     * Free-form identification written by the recording surface
     * (benchmark name, mode, threads, ...). Keys are unique; order is
     * insertion order and part of the byte format.
     */
    std::vector<std::pair<std::string, std::string>> metadata;

    std::vector<Record> records;

    void setMeta(const std::string &key, const std::string &value);
    std::string meta(const std::string &key,
                     const std::string &fallback = "") const;

    /** Number of engine-run sections (RunBegin records). */
    std::uint32_t runCount() const;

    /** Serialize to the binary format (deterministic bytes). */
    void save(std::ostream &out) const;
    std::string saveToString() const;
    /** Write to a file; fatal() on I/O failure. */
    void saveFile(const std::string &path) const;

    /**
     * Parse a serialized log. Returns nullopt and sets `error` on a
     * bad magic, unsupported schema version, or truncated/corrupt
     * payload.
     */
    static std::optional<RecordLog> load(std::istream &in,
                                         std::string &error);
    static std::optional<RecordLog> loadFile(const std::string &path,
                                             std::string &error);
};

// ---------------------------------------------------------------------
// Byte codec: the building blocks of the log format, shared with the
// serving plane's wire frames and serialized plans.
// ---------------------------------------------------------------------

/** Append a LEB128-encoded unsigned value. */
void putVarint(std::string &out, std::uint64_t value);

/** Decode a LEB128 value; advances `pos`. False on truncation. */
bool getVarint(const std::string &in, std::size_t &pos,
               std::uint64_t &value);

/** Zigzag mapping for signed values. */
std::uint64_t zigzagEncode(std::int64_t value);
std::int64_t zigzagDecode(std::uint64_t value);

/** Append a signed value as a zigzag varint. */
void putSigned(std::string &out, std::int64_t value);

/** Decode a zigzag varint; advances `pos`. False on truncation. */
bool getSigned(const std::string &in, std::size_t &pos,
               std::int64_t &value);

/** Append a varint length followed by the bytes of `value`. */
void putString(std::string &out, const std::string &value);

/**
 * Decode a length-prefixed string; advances `pos`. False on
 * truncation or a declared length past the end of `in`.
 */
bool getString(const std::string &in, std::size_t &pos,
               std::string &value);

/** 64-bit FNV-1a digest of `bytes`. */
std::uint64_t fnv1a(const std::string &bytes);

} // namespace stats::replay
