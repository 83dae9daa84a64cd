#include "stats/table.hpp"

#include <gtest/gtest.h>

#include "util/errors.hpp"

namespace mip6 {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  std::string out = t.str();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 22    |"), std::string::npos);
  EXPECT_NE(out.find("|-"), std::string::npos);  // separator rule
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), LogicError);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), LogicError);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), LogicError);
}

TEST(Table, RowCount) {
  Table t({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

}  // namespace
}  // namespace mip6
