/**
 * @file
 * ASCII table printer for the benchmark harnesses.
 *
 * Every figure and table of the paper is regenerated as rows on
 * stdout; this module renders them in a fixed-width layout so the
 * output is diff-able run to run.
 */

#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace stats::support {

/** Fixed-layout ASCII table with a header row. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    /** Append one row; must have as many cells as there are headers. */
    void addRow(std::vector<std::string> cells);

    /** Numeric convenience: formats doubles with `precision` digits. */
    void addRow(const std::string &label, const std::vector<double> &cells,
                int precision = 2);

    void print(std::ostream &out) const;

    static std::string formatDouble(double v, int precision = 2);

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

} // namespace stats::support
