#include "support/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/log.hpp"

namespace stats::support {

TextTable::TextTable(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != _headers.size())
        panic("TextTable row has ", cells.size(), " cells, expected ",
              _headers.size());
    _rows.push_back(std::move(cells));
}

std::string
TextTable::formatDouble(double v, int precision)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(precision) << v;
    return out.str();
}

void
TextTable::addRow(const std::string &label, const std::vector<double> &cells,
                  int precision)
{
    std::vector<std::string> row;
    row.reserve(cells.size() + 1);
    row.push_back(label);
    for (double v : cells)
        row.push_back(formatDouble(v, precision));
    addRow(std::move(row));
}

void
TextTable::print(std::ostream &out) const
{
    std::vector<std::size_t> widths(_headers.size());
    for (std::size_t c = 0; c < _headers.size(); ++c)
        widths[c] = _headers[c].size();
    for (const auto &row : _rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_line = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            out << std::left << std::setw(static_cast<int>(widths[c]) + 2)
                << cells[c];
        }
        out << "\n";
    };

    print_line(_headers);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    out << std::string(total, '-') << "\n";
    for (const auto &row : _rows)
        print_line(row);
}

} // namespace stats::support
