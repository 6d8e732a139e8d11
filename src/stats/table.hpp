// Tabular report formatting shared by all bench binaries: every table
// bench prints the paper's rows (absolute total for the first column,
// "0.87x"-style ratios elsewhere) side by side with the published values so
// paper-vs-measured comparisons read directly off the terminal and
// EXPERIMENTS.md can be regenerated by piping the output.
#pragma once

#include <string>
#include <vector>

namespace san {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Pads cells to column width; pipe-separated (markdown-compatible).
  std::string to_markdown() const;
  /// Comma-separated, RFC 4180: a cell holding a comma, a double quote or
  /// a newline is wrapped in double quotes, with its quotes doubled.
  std::string to_csv() const;
  /// Prints markdown to stdout.
  void print() const;

  size_t rows() const { return rows_.size(); }
  size_t columns() const { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// "0.87x" style ratio used throughout the paper's tables.
std::string ratio_cell(double ours, double baseline);
/// Fixed 3-decimal cell (Table 8's average request costs).
std::string fixed_cell(double value, int decimals = 3);

}  // namespace san
