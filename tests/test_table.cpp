// Report formatting used by the bench harness.
#include <gtest/gtest.h>

#include "stats/table.hpp"

namespace san {
namespace {

TEST(Table, MarkdownLayout) {
  Table t({"k", "cost"});
  t.add_row({"2", "1.00x"});
  t.add_row({"10", "0.70x"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| k "), std::string::npos);
  EXPECT_NE(md.find("| 0.70x |"), std::string::npos);
  // header + separator + 2 rows = 4 lines
  EXPECT_EQ(std::count(md.begin(), md.end(), '\n'), 4);
}

TEST(Table, CsvLayout) {
  Table t({"a", "b", "c"});
  t.add_row({"1", "2"});  // short row padded
  EXPECT_EQ(t.to_csv(), "a,b,c\n1,2,\n");
  // RFC 4180: cells holding a comma, a quote or a newline are quoted.
  t.add_row({"sharded[4,hash]", "say \"hi\"", "two\nlines"});
  EXPECT_EQ(t.to_csv(),
            "a,b,c\n1,2,\n"
            "\"sharded[4,hash]\",\"say \"\"hi\"\"\",\"two\nlines\"\n");
}

TEST(Table, RatioCell) {
  EXPECT_EQ(ratio_cell(87, 100), "0.87x");
  EXPECT_EQ(ratio_cell(250, 100), "2.50x");
  EXPECT_EQ(ratio_cell(1, 0), "-");
}

TEST(Table, FixedCell) {
  EXPECT_EQ(fixed_cell(17.7304), "17.730");
  EXPECT_EQ(fixed_cell(2.5, 1), "2.5");
}

TEST(Table, Dimensions) {
  Table t({"x"});
  EXPECT_EQ(t.columns(), 1u);
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
}

}  // namespace
}  // namespace san
