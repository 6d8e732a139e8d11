#include "stats/table.hpp"

#include <cstdio>
#include <iostream>
#include <sstream>

namespace san {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::to_markdown() const {
  std::vector<size_t> width(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    out << "|";
    for (size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out << " " << cell << std::string(width[c] - cell.size(), ' ') << " |";
    }
    out << "\n";
  };
  emit(header_);
  out << "|";
  for (size_t c = 0; c < header_.size(); ++c)
    out << std::string(width[c] + 2, '-') << "|";
  out << "\n";
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < header_.size(); ++c) {
      if (c > 0) out << ",";
      const std::string& cell = c < row.size() ? row[c] : std::string();
      if (cell.find_first_of(",\"\n") == std::string::npos) {
        out << cell;
        continue;
      }
      out << '"';
      for (char ch : cell) {
        if (ch == '"') out << '"';
        out << ch;
      }
      out << '"';
    }
    out << "\n";
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

void Table::print() const { std::cout << to_markdown() << std::flush; }

std::string ratio_cell(double ours, double baseline) {
  if (baseline == 0.0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ours / baseline);
  return buf;
}

std::string fixed_cell(double value, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

}  // namespace san
