#include "dslsim/export.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace nevermind::dslsim {
namespace {

/// Rows of cells of an export. Exported fields are numbers, dates and
/// plain names, so no field is quoted and splitting on ',' suffices.
std::vector<std::vector<std::string>> split_csv(const std::string& text) {
  EXPECT_EQ(text.find('"'), std::string::npos);
  std::vector<std::vector<std::string>> rows;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::vector<std::string> cells(1);
    for (const char c : line) {
      if (c == ',') {
        cells.emplace_back();
      } else {
        cells.back() += c;
      }
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

class ExportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimConfig cfg;
    cfg.seed = 61;
    cfg.topology.n_lines = 600;
    data_ = new SimDataset(Simulator(cfg).run());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static const SimDataset* data_;
};

const SimDataset* ExportTest::data_ = nullptr;

TEST_F(ExportTest, MeasurementsShapeAndHeader) {
  std::ostringstream os;
  export_measurements_csv(*data_, os, 10, 11);
  const auto rows = split_csv(os.str());
  ASSERT_EQ(rows.size(), 1U + 2U * data_->n_lines());
  EXPECT_EQ(rows[0].size(), 3U + kNumLineMetrics);
  EXPECT_EQ(rows[0][0], "week");
  EXPECT_EQ(rows[0][3], "state");
  EXPECT_EQ(rows[1][0], "10");
}

TEST_F(ExportTest, MeasurementsMissingCellsEmpty) {
  std::ostringstream os;
  export_measurements_csv(*data_, os, 20, 20);
  const auto rows = split_csv(os.str());
  std::size_t empty_cells = 0;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    // state column (index 3) starting with "0" marks a missing record;
    // its metric cells must be empty.
    if (rows[r][3].substr(0, 2) == "0.") {
      EXPECT_TRUE(rows[r][4].empty());
      ++empty_cells;
    }
  }
  EXPECT_GT(empty_cells, 0U);
}

TEST_F(ExportTest, TicketsRoundTripCounts) {
  std::ostringstream os;
  export_tickets_csv(*data_, os);
  const auto rows = split_csv(os.str());
  ASSERT_EQ(rows.size(), 1U + data_->tickets().size());
  // Edge tickets carry a disposition code, billing tickets don't.
  for (std::size_t r = 1; r < rows.size(); ++r) {
    if (rows[r][3] == "billing") {
      EXPECT_TRUE(rows[r][5].empty());
    } else {
      EXPECT_FALSE(rows[r][5].empty());
    }
  }
}

TEST_F(ExportTest, NotesMatchNoteCount) {
  std::ostringstream os;
  export_notes_csv(*data_, os);
  const auto rows = split_csv(os.str());
  EXPECT_EQ(rows.size(), 1U + data_->notes().size());
}

TEST_F(ExportTest, ProfilesOnePerLine) {
  std::ostringstream os;
  export_profiles_csv(*data_, os);
  const auto rows = split_csv(os.str());
  ASSERT_EQ(rows.size(), 1U + data_->n_lines());
  EXPECT_EQ(rows[1][0], "0");
}

TEST_F(ExportTest, OutagesWellFormedDates) {
  std::ostringstream os;
  export_outages_csv(*data_, os);
  const auto rows = split_csv(os.str());
  EXPECT_EQ(rows.size(), 1U + data_->outages().size());
  for (std::size_t r = 1; r < rows.size(); ++r) {
    EXPECT_EQ(rows[r][2].size(), 8U);  // MM/DD/YY
  }
}

TEST_F(ExportTest, WeekRangeClamped) {
  std::ostringstream os;
  export_measurements_csv(*data_, os, -4, 0);
  const auto rows = split_csv(os.str());
  EXPECT_EQ(rows.size(), 1U + data_->n_lines());
}

}  // namespace
}  // namespace nevermind::dslsim
