#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace nevermind::util {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"a", "long-header"});
  t.add_row({"xx", "y"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a  | long-header"), std::string::npos);
  EXPECT_NE(out.find("---+"), std::string::npos);
  EXPECT_NE(out.find("xx | y"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(t.rows(), 1U);
}

TEST(Table, TruncatesLongRows) {
  Table t({"a"});
  t.add_row({"1", "spillover"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(os.str().find("spillover"), std::string::npos);
}

TEST(FmtDouble, Precision) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
  EXPECT_EQ(fmt_double(-1.5, 1), "-1.5");
}

TEST(FmtPercent, Formats) {
  EXPECT_EQ(fmt_percent(0.378), "37.8%");
  EXPECT_EQ(fmt_percent(1.0, 0), "100%");
}

TEST(Banner, ContainsTitle) {
  std::ostringstream os;
  print_banner(os, "My Title");
  EXPECT_NE(os.str().find("My Title"), std::string::npos);
}

TEST(Csv, WritesPlainRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"has,comma", "has\"quote", "plain"});
  EXPECT_EQ(os.str(), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST(Csv, RoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"plain", "with,comma", "with\"quote", ""});
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\",\n");
}

}  // namespace
}  // namespace nevermind::util
