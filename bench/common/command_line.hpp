/**
 * @file
 * The command line of every bench binary that takes options: the
 * figure harnesses, micro_scheduler and micro_interpreter. Options
 * are parsed by support::CliArgs, as in statscc; a positional word,
 * an unknown option or a malformed number is a usage error (exit 1)
 * before any work runs.
 */

#pragma once

#include <string>
#include <vector>

#include "support/cli_args.hpp"

namespace stats::benchx {

/**
 * Parse argv[1, argc): options only, each one of `known`. Anything
 * else prints "usage: <argv[0]> <synopsis>" and exits 1.
 */
support::CliArgs parseOptions(int argc, char **argv,
                              const std::vector<std::string> &known,
                              const std::string &synopsis);

/**
 * A checked-in `--check` baseline: a JSON file whose gate fields are
 * flat, uniquely named numbers.
 */
class Baseline
{
  public:
    /** Read `path`; exit 1 when it cannot be read. */
    explicit Baseline(const std::string &path);

    /** The positive number stored as `"name": N`; exit 1 otherwise. */
    double field(const std::string &name) const;

  private:
    std::string _path;
    std::string _text;
};

} // namespace stats::benchx
