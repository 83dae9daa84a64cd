#include "stats/table.hpp"

#include <algorithm>

#include "util/errors.hpp"
#include "util/strings.hpp"

namespace mip6 {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw LogicError("table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw LogicError("row width " + std::to_string(cells.size()) +
                     " != header width " + std::to_string(header_.size()));
  }
  rows_.push_back(std::move(cells));
}

std::string Table::str() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += (c == 0 ? "| " : " | ") + pad_right(row[c], width[c]);
    }
    return line + " |\n";
  };
  std::string out = render_row(header_);
  std::string rule = "|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    rule += std::string(width[c] + 2, '-') + "|";
  }
  out += rule + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace mip6
