/**
 * @file
 * The one command-line parser behind `statscc`, `statsd` and
 * `stats-cli`: positional words plus `--key=value` and bare `--flag`
 * options (a bare flag has the value "true"). Options keep their
 * command-line order, so a repeatable option keeps every occurrence.
 *
 * The numeric accessors never throw: a malformed or out-of-range
 * value is a usage error reported through support::fatal (exit 1).
 */

#pragma once

#include <climits>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace stats::support {

/** Whole-string integer parse; nullopt on junk or overflow. */
std::optional<std::int64_t> parseInt(const std::string &text);

/** Whole-string unsigned parse (no sign); nullopt otherwise. */
std::optional<std::uint64_t> parseU64(const std::string &text);

/** Whole-string finite floating-point parse; nullopt otherwise. */
std::optional<double> parseDouble(const std::string &text);

/**
 * `text` as the value of `--key`: an int no smaller than `min`, or a
 * usage error naming the option.
 */
int intValue(const std::string &key, const std::string &text,
             int min = INT_MIN);

/** `text` as an unsigned value of `--key`, or a usage error. */
std::uint64_t u64Value(const std::string &key, const std::string &text);

class CliArgs
{
  public:
    /** Parse argv[first, argc). */
    CliArgs(int argc, char **argv, int first);
    explicit CliArgs(const std::vector<std::string> &words);

    const std::vector<std::string> &positional() const
    {
        return _positional;
    }

    bool has(const std::string &key) const;

    /** Value of the last `--key`, or `fallback` when absent. */
    std::string get(const std::string &key,
                    const std::string &fallback) const;

    /** Every value of a repeatable option, in command-line order. */
    std::vector<std::string> getAll(const std::string &key) const;

    int getInt(const std::string &key, int fallback,
               int min = INT_MIN) const;
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback) const;
    double getDouble(const std::string &key, double fallback) const;

    /** The first option whose key is not in `known`, if any. */
    std::optional<std::string>
    unknownOption(const std::vector<std::string> &known) const;

  private:
    std::vector<std::string> _positional;
    std::vector<std::pair<std::string, std::string>> _options;
};

} // namespace stats::support
