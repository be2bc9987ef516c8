#include "replay/record_log.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "support/log.hpp"

namespace stats::replay {

namespace {

constexpr char kMagic[4] = {'S', 'T', 'R', 'L'};
constexpr char kTrailer[4] = {'E', 'N', 'D', 'L'};

} // namespace

const char *
recordKindName(RecordKind kind)
{
    switch (kind) {
      case RecordKind::RunBegin:      return "RunBegin";
      case RecordKind::MatchVerdict:  return "MatchVerdict";
      case RecordKind::Reexec:        return "Reexec";
      case RecordKind::Commit:        return "Commit";
      case RecordKind::Squash:        return "Squash";
      case RecordKind::Abort:         return "Abort";
      case RecordKind::FaultInjected: return "FaultInjected";
      case RecordKind::RunEnd:        return "RunEnd";
    }
    support::panic("recordKindName: unknown record kind ",
                   static_cast<int>(kind));
}

std::vector<std::int64_t>
encodeConfig(const RunConfigRecord &config)
{
    return {config.useAuxiliary,    config.groupSize,
            config.auxWindow,       config.maxReexecutions,
            config.rollbackDepth,   config.sdThreads,
            config.innerThreads,    config.inputCount};
}

std::optional<RunConfigRecord>
decodeConfig(const std::vector<std::int64_t> &payload)
{
    if (payload.size() != 8)
        return std::nullopt;
    RunConfigRecord config;
    config.useAuxiliary = payload[0];
    config.groupSize = payload[1];
    config.auxWindow = payload[2];
    config.maxReexecutions = payload[3];
    config.rollbackDepth = payload[4];
    config.sdThreads = payload[5];
    config.innerThreads = payload[6];
    config.inputCount = payload[7];
    return config;
}

std::vector<std::int64_t>
encodeStats(const RunStatsRecord &stats)
{
    return {stats.validations, stats.mismatches, stats.reexecutions,
            stats.aborts,      stats.squashedGroups,
            stats.invocations};
}

std::optional<RunStatsRecord>
decodeStats(const std::vector<std::int64_t> &payload)
{
    if (payload.size() != 6)
        return std::nullopt;
    RunStatsRecord stats;
    stats.validations = payload[0];
    stats.mismatches = payload[1];
    stats.reexecutions = payload[2];
    stats.aborts = payload[3];
    stats.squashedGroups = payload[4];
    stats.invocations = payload[5];
    return stats;
}

// ---------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------

void
putVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>((value & 0x7f) | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

bool
getVarint(const std::string &in, std::size_t &pos, std::uint64_t &value)
{
    value = 0;
    int shift = 0;
    while (pos < in.size() && shift < 64) {
        const auto byte =
            static_cast<unsigned char>(in[pos++]);
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return true;
        shift += 7;
    }
    return false;
}

std::uint64_t
zigzagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

std::int64_t
zigzagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

void
putSigned(std::string &out, std::int64_t value)
{
    putVarint(out, zigzagEncode(value));
}

bool
getSigned(const std::string &in, std::size_t &pos, std::int64_t &value)
{
    std::uint64_t raw = 0;
    if (!getVarint(in, pos, raw))
        return false;
    value = zigzagDecode(raw);
    return true;
}

void
putString(std::string &out, const std::string &value)
{
    putVarint(out, value.size());
    out.append(value);
}

bool
getString(const std::string &in, std::size_t &pos, std::string &value)
{
    std::uint64_t size = 0;
    // `size > in.size() - pos` instead of `pos + size > in.size()`:
    // the latter wraps for a huge declared size.
    if (!getVarint(in, pos, size) || size > in.size() - pos)
        return false;
    value.assign(in, pos, size);
    pos += size;
    return true;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

// ---------------------------------------------------------------------
// RecordLog
// ---------------------------------------------------------------------

void
RecordLog::setMeta(const std::string &key, const std::string &value)
{
    for (auto &entry : metadata) {
        if (entry.first == key) {
            entry.second = value;
            return;
        }
    }
    metadata.emplace_back(key, value);
}

std::string
RecordLog::meta(const std::string &key, const std::string &fallback) const
{
    for (const auto &entry : metadata) {
        if (entry.first == key)
            return entry.second;
    }
    return fallback;
}

std::uint32_t
RecordLog::runCount() const
{
    std::uint32_t runs = 0;
    for (const auto &record : records) {
        if (record.kind == RecordKind::RunBegin)
            ++runs;
    }
    return runs;
}

std::string
RecordLog::saveToString() const
{
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    putVarint(out, kLogSchemaVersion);
    putVarint(out, rootSeed);
    putVarint(out, metadata.size());
    for (const auto &entry : metadata) {
        putString(out, entry.first);
        putString(out, entry.second);
    }
    putVarint(out, records.size());
    for (const auto &record : records) {
        out.push_back(static_cast<char>(record.kind));
        putVarint(out, record.run);
        putVarint(out, record.epoch);
        putSigned(out, record.group);
        putSigned(out, record.a);
        putSigned(out, record.b);
        putVarint(out, record.payload.size());
        for (std::int64_t word : record.payload)
            putSigned(out, word);
    }
    out.append(kTrailer, sizeof(kTrailer));
    return out;
}

void
RecordLog::save(std::ostream &out) const
{
    const std::string bytes = saveToString();
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

void
RecordLog::saveFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        support::fatal("cannot open '", path, "' for writing");
    save(out);
    if (!out)
        support::fatal("failed writing record log to '", path, "'");
}

std::optional<RecordLog>
RecordLog::load(std::istream &in, std::string &error)
{
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();

    if (bytes.size() < sizeof(kMagic) ||
        bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
        error = "not a STATS record log (bad magic)";
        return std::nullopt;
    }
    std::size_t pos = sizeof(kMagic);

    RecordLog log;
    std::uint64_t version = 0;
    if (!getVarint(bytes, pos, version)) {
        error = "truncated header";
        return std::nullopt;
    }
    if (version != kLogSchemaVersion) {
        error = "unsupported log schema version " +
                std::to_string(version) + " (expected " +
                std::to_string(kLogSchemaVersion) + ")";
        return std::nullopt;
    }
    std::uint64_t meta_count = 0;
    if (!getVarint(bytes, pos, log.rootSeed) ||
        !getVarint(bytes, pos, meta_count)) {
        error = "truncated header";
        return std::nullopt;
    }
    for (std::uint64_t i = 0; i < meta_count; ++i) {
        std::string key, value;
        if (!getString(bytes, pos, key) ||
            !getString(bytes, pos, value)) {
            error = "truncated metadata";
            return std::nullopt;
        }
        log.metadata.emplace_back(std::move(key), std::move(value));
    }

    std::uint64_t record_count = 0;
    if (!getVarint(bytes, pos, record_count)) {
        error = "truncated record count";
        return std::nullopt;
    }
    log.records.reserve(record_count);
    for (std::uint64_t i = 0; i < record_count; ++i) {
        if (pos >= bytes.size()) {
            error = "truncated at record " + std::to_string(i);
            return std::nullopt;
        }
        Record record;
        const auto kind = static_cast<unsigned char>(bytes[pos++]);
        if (kind >= kRecordKindCount) {
            error = "unknown record kind " + std::to_string(kind) +
                    " at record " + std::to_string(i);
            return std::nullopt;
        }
        record.kind = static_cast<RecordKind>(kind);
        std::uint64_t run = 0, epoch = 0, payload_size = 0;
        std::int64_t group = 0;
        if (!getVarint(bytes, pos, run) ||
            !getVarint(bytes, pos, epoch) ||
            !getSigned(bytes, pos, group) ||
            !getSigned(bytes, pos, record.a) ||
            !getSigned(bytes, pos, record.b) ||
            !getVarint(bytes, pos, payload_size)) {
            error = "truncated at record " + std::to_string(i);
            return std::nullopt;
        }
        record.run = static_cast<std::uint32_t>(run);
        record.epoch = static_cast<std::uint32_t>(epoch);
        record.group = static_cast<std::int32_t>(group);
        record.payload.reserve(payload_size);
        for (std::uint64_t w = 0; w < payload_size; ++w) {
            std::int64_t word = 0;
            if (!getSigned(bytes, pos, word)) {
                error = "truncated payload at record " +
                        std::to_string(i);
                return std::nullopt;
            }
            record.payload.push_back(word);
        }
        log.records.push_back(std::move(record));
    }

    if (bytes.size() - pos != sizeof(kTrailer) ||
        bytes.compare(pos, sizeof(kTrailer), kTrailer,
                      sizeof(kTrailer)) != 0) {
        error = "missing trailer (truncated or trailing garbage)";
        return std::nullopt;
    }
    return log;
}

std::optional<RecordLog>
RecordLog::loadFile(const std::string &path, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open '" + path + "'";
        return std::nullopt;
    }
    return load(in, error);
}

} // namespace stats::replay
