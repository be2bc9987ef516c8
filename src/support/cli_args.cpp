#include "support/cli_args.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "support/log.hpp"

namespace stats::support {

namespace {

/** std::from_chars over the whole of `text`; nullopt otherwise. */
template <class T>
std::optional<T>
parseWhole(const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

} // namespace

std::optional<std::int64_t>
parseInt(const std::string &text)
{
    return parseWhole<std::int64_t>(text);
}

std::optional<std::uint64_t>
parseU64(const std::string &text)
{
    return parseWhole<std::uint64_t>(text);
}

std::optional<double>
parseDouble(const std::string &text)
{
    const auto value = parseWhole<double>(text);
    if (!value || !std::isfinite(*value))
        return std::nullopt;
    return value;
}

int
intValue(const std::string &key, const std::string &text, int min)
{
    const auto value = parseInt(text);
    if (!value || *value < min || *value > INT_MAX) {
        fatal("--", key, " wants an integer",
              min == INT_MIN ? "" : " >= " + std::to_string(min),
              ", got '", text, "'");
    }
    return static_cast<int>(*value);
}

std::uint64_t
u64Value(const std::string &key, const std::string &text)
{
    const auto value = parseU64(text);
    if (!value)
        fatal("--", key, " wants an unsigned integer, got '", text, "'");
    return *value;
}

CliArgs::CliArgs(int argc, char **argv, int first)
    : CliArgs(std::vector<std::string>(argv + std::min(first, argc),
                                       argv + argc))
{
}

CliArgs::CliArgs(const std::vector<std::string> &words)
{
    for (const auto &word : words) {
        if (word.size() < 2 || word.compare(0, 2, "--") != 0) {
            _positional.push_back(word);
            continue;
        }
        const auto eq = word.find('=');
        if (eq == std::string::npos)
            _options.emplace_back(word.substr(2), "true");
        else
            _options.emplace_back(word.substr(2, eq - 2),
                                  word.substr(eq + 1));
    }
}

bool
CliArgs::has(const std::string &key) const
{
    return std::any_of(_options.begin(), _options.end(),
                       [&](const auto &option) {
                           return option.first == key;
                       });
}

std::string
CliArgs::get(const std::string &key, const std::string &fallback) const
{
    const auto values = getAll(key);
    return values.empty() ? fallback : values.back();
}

std::vector<std::string>
CliArgs::getAll(const std::string &key) const
{
    std::vector<std::string> values;
    for (const auto &[name, value] : _options) {
        if (name == key)
            values.push_back(value);
    }
    return values;
}

int
CliArgs::getInt(const std::string &key, int fallback, int min) const
{
    return has(key) ? intValue(key, get(key, ""), min) : fallback;
}

std::uint64_t
CliArgs::getU64(const std::string &key, std::uint64_t fallback) const
{
    return has(key) ? u64Value(key, get(key, "")) : fallback;
}

double
CliArgs::getDouble(const std::string &key, double fallback) const
{
    if (!has(key))
        return fallback;
    const std::string text = get(key, "");
    const auto value = parseDouble(text);
    if (!value)
        fatal("--", key, " wants a number, got '", text, "'");
    return *value;
}

std::optional<std::string>
CliArgs::unknownOption(const std::vector<std::string> &known) const
{
    for (const auto &option : _options) {
        if (std::find(known.begin(), known.end(), option.first) ==
            known.end())
            return option.first;
    }
    return std::nullopt;
}

} // namespace stats::support
