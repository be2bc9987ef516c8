#include "common/command_line.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "support/log.hpp"

namespace stats::benchx {

support::CliArgs
parseOptions(int argc, char **argv, const std::vector<std::string> &known,
             const std::string &synopsis)
{
    support::CliArgs args(argc, argv, 1);
    const std::string program = argc > 0 ? argv[0] : "bench";
    if (!args.positional().empty()) {
        std::cerr << program << ": unexpected argument '"
                  << args.positional()[0] << "'\n";
    } else if (const auto unknown = args.unknownOption(known)) {
        std::cerr << program << ": unknown option --" << *unknown
                  << "\n";
    } else {
        return args;
    }
    std::cerr << "usage: " << program << " " << synopsis << "\n";
    std::exit(1);
}

Baseline::Baseline(const std::string &path) : _path(path)
{
    std::ifstream in(path);
    if (!in)
        support::fatal("cannot read baseline '", path, "'");
    std::stringstream buffer;
    buffer << in.rdbuf();
    _text = buffer.str();
}

double
Baseline::field(const std::string &name) const
{
    const std::string needle = "\"" + name + "\":";
    const std::size_t pos = _text.find(needle);
    const double value =
        pos == std::string::npos
            ? 0.0
            : std::strtod(_text.c_str() + pos + needle.size(), nullptr);
    if (!(value > 0.0))
        support::fatal("baseline '", _path, "' has no ", name, " field");
    return value;
}

} // namespace stats::benchx
