// Plain-text table renderer used by every bench binary to print the
// reproduced rows of the paper's tables/figures.
#pragma once

#include <string>
#include <vector>

namespace mip6 {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  std::size_t rows() const { return rows_.size(); }

  /// Monospace rendering with aligned columns.
  std::string str() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mip6
