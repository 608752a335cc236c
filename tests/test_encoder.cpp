#include "features/encoder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "dslsim/profile.hpp"

namespace nevermind::features {
namespace {

using dslsim::SimConfig;
using dslsim::SimDataset;
using dslsim::Simulator;

class EncoderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimConfig cfg;
    cfg.seed = 11;
    cfg.topology.n_lines = 1200;
    data_ = new SimDataset(Simulator(cfg).run());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static const SimDataset* data_;
};

const SimDataset* EncoderTest::data_ = nullptr;

TEST_F(EncoderTest, BaseColumnCount) {
  EncoderConfig cfg;
  const auto cols = base_columns(cfg);
  // 25 basic + 25 delta + 25 time-series + 4 profile + ticket + modem.
  EXPECT_EQ(cols.size(), 81U);
}

TEST_F(EncoderTest, ColumnCountRespectsFlags) {
  EncoderConfig cfg;
  cfg.include_delta = false;
  cfg.include_customer = false;
  EXPECT_EQ(base_columns(cfg).size(), 50U);
  cfg.include_timeseries = false;
  EXPECT_EQ(base_columns(cfg).size(), 25U);
}

TEST_F(EncoderTest, DerivedColumnsAppended) {
  EncoderConfig cfg;
  cfg.include_quadratic = true;
  cfg.product_pairs = {{0, 1}, {2, 3}};
  const auto cols = all_columns(cfg);
  EXPECT_EQ(cols.size(), 81U + 81U + 2U);
  EXPECT_EQ(cols[81].name.substr(0, 2), "q.");
  EXPECT_EQ(cols.back().name.substr(0, 2), "p.");
}

TEST_F(EncoderTest, OutOfRangeProductPairsDropped) {
  EncoderConfig cfg;
  cfg.product_pairs = {{0, 1}, {500, 1}};
  EXPECT_EQ(all_columns(cfg).size(), 82U);
}

TEST_F(EncoderTest, RowsCoverAllLinesAndWeeks) {
  EncoderConfig cfg;
  const TicketLabeler labeler{28};
  const auto block = encode_weeks(*data_, 10, 12, cfg, labeler);
  EXPECT_EQ(block.dataset.n_rows(), data_->n_lines() * 3U);
  EXPECT_EQ(block.line_of_row.size(), block.dataset.n_rows());
  EXPECT_EQ(block.week_of_row.front(), 10);
  EXPECT_EQ(block.week_of_row.back(), 12);
}

TEST_F(EncoderTest, BasicFeaturesMatchMeasurements) {
  EncoderConfig cfg;
  const TicketLabeler labeler{28};
  const auto block = encode_weeks(*data_, 20, 20, cfg, labeler);
  for (dslsim::LineId u = 0; u < data_->n_lines(); u += 37) {
    const auto& m = data_->measurement(20, u);
    for (std::size_t j = 0; j < dslsim::kNumLineMetrics; ++j) {
      const float got = block.dataset.at(u, j);
      if (ml::is_missing(m[j])) {
        EXPECT_TRUE(ml::is_missing(got));
      } else {
        EXPECT_EQ(got, m[j]);
      }
    }
  }
}

TEST_F(EncoderTest, DeltaIsWeekOverWeekDifference) {
  EncoderConfig cfg;
  const TicketLabeler labeler{28};
  const auto block = encode_weeks(*data_, 21, 21, cfg, labeler);
  std::size_t checked = 0;
  for (dslsim::LineId u = 0; u < data_->n_lines() && checked < 50; ++u) {
    const auto& cur = data_->measurement(21, u);
    const auto& prev = data_->measurement(20, u);
    if (!dslsim::record_present(cur) || !dslsim::record_present(prev)) continue;
    const std::size_t dn_br = 1;  // dnbr metric index
    const float delta = block.dataset.at(u, 25 + dn_br);
    EXPECT_NEAR(delta, cur[dn_br] - prev[dn_br], 1e-3);
    ++checked;
  }
  EXPECT_GT(checked, 10U);
}

TEST_F(EncoderTest, DeltaMissingWhenPreviousWeekMissing) {
  EncoderConfig cfg;
  const TicketLabeler labeler{28};
  const auto block = encode_weeks(*data_, 21, 21, cfg, labeler);
  for (dslsim::LineId u = 0; u < data_->n_lines(); ++u) {
    if (dslsim::record_present(data_->measurement(20, u))) continue;
    for (std::size_t j = 25; j < 50; ++j) {
      EXPECT_TRUE(ml::is_missing(block.dataset.at(u, j)));
    }
  }
}

TEST_F(EncoderTest, TimeSeriesRoughlyStandardizedForHealthyLines) {
  EncoderConfig cfg;
  const TicketLabeler labeler{28};
  const auto block = encode_weeks(*data_, 40, 40, cfg, labeler);
  // Pooled z-scores of the attenuation metric: near zero mean, near
  // unit variance.
  double sum = 0.0;
  double sq = 0.0;
  std::size_t n = 0;
  const std::size_t ts_atten = 50 + 7;  // ts block + dnaten index
  for (dslsim::LineId u = 0; u < data_->n_lines(); ++u) {
    const float z = block.dataset.at(u, ts_atten);
    if (ml::is_missing(z)) continue;
    sum += z;
    sq += static_cast<double>(z) * z;
    ++n;
  }
  ASSERT_GT(n, 500U);
  EXPECT_NEAR(sum / static_cast<double>(n), 0.0, 0.25);
  EXPECT_NEAR(sq / static_cast<double>(n), 1.0, 0.6);
}

TEST_F(EncoderTest, ModemFractionWithinUnitInterval) {
  EncoderConfig cfg;
  const TicketLabeler labeler{28};
  const auto block = encode_weeks(*data_, 30, 30, cfg, labeler);
  const std::size_t modem_col = 80;
  for (dslsim::LineId u = 0; u < data_->n_lines(); ++u) {
    const float f = block.dataset.at(u, modem_col);
    EXPECT_GE(f, 0.0F);
    EXPECT_LE(f, 1.0F);
  }
}

TEST_F(EncoderTest, TicketRecencyDefaultsWhenNoHistory) {
  EncoderConfig cfg;
  const TicketLabeler labeler{28};
  const auto block = encode_weeks(*data_, 5, 5, cfg, labeler);
  const std::size_t ticket_col = 79;
  std::size_t defaults = 0;
  for (dslsim::LineId u = 0; u < data_->n_lines(); ++u) {
    if (block.dataset.at(u, ticket_col) == cfg.no_ticket_days) ++defaults;
  }
  // Early in the year most lines have never had a ticket.
  EXPECT_GT(defaults, data_->n_lines() * 9 / 10);
}

TEST_F(EncoderTest, QuadraticColumnsAreSquares) {
  EncoderConfig cfg;
  cfg.include_quadratic = true;
  const TicketLabeler labeler{28};
  const auto block = encode_weeks(*data_, 25, 25, cfg, labeler);
  for (dslsim::LineId u = 0; u < data_->n_lines(); u += 61) {
    for (std::size_t j = 0; j < 10; ++j) {
      const float base = block.dataset.at(u, j);
      const float quad = block.dataset.at(u, 81 + j);
      if (ml::is_missing(base)) {
        EXPECT_TRUE(ml::is_missing(quad));
      } else {
        EXPECT_NEAR(quad, base * base, std::fabs(base) * 1e-2 + 1e-3);
      }
    }
  }
}

TEST_F(EncoderTest, ProductColumnsAreProducts) {
  EncoderConfig cfg;
  cfg.product_pairs = {{1, 2}};
  const TicketLabeler labeler{28};
  const auto block = encode_weeks(*data_, 25, 25, cfg, labeler);
  const std::size_t pcol = 81;
  for (dslsim::LineId u = 0; u < data_->n_lines(); u += 71) {
    const float a = block.dataset.at(u, 1);
    const float b = block.dataset.at(u, 2);
    const float p = block.dataset.at(u, pcol);
    if (ml::is_missing(a) || ml::is_missing(b)) {
      EXPECT_TRUE(ml::is_missing(p));
    } else {
      EXPECT_NEAR(p, a * b, std::fabs(a * b) * 1e-3 + 1e-3);
    }
  }
}

TEST_F(EncoderTest, LabelsMatchTicketQueries) {
  EncoderConfig cfg;
  const TicketLabeler labeler{28};
  const auto block = encode_weeks(*data_, 30, 30, cfg, labeler);
  const util::Day day = util::saturday_of_week(30);
  for (dslsim::LineId u = 0; u < data_->n_lines(); u += 13) {
    const auto next = data_->next_edge_ticket_after(u, day);
    const bool expect_positive = next.has_value() && *next <= day + 28;
    EXPECT_EQ(block.dataset.label(u), expect_positive) << u;
  }
}

TEST_F(EncoderTest, EmitRangeClampedToSimulation) {
  EncoderConfig cfg;
  const TicketLabeler labeler{28};
  const auto block = encode_weeks(*data_, -5, 1, cfg, labeler);
  EXPECT_EQ(block.dataset.n_rows(), data_->n_lines() * 2U);
}

TEST_F(EncoderTest, DispatchEncodingCoversNotesInRange) {
  EncoderConfig cfg;
  const auto block = encode_at_dispatch(*data_, 30, 36, cfg);
  EXPECT_GT(block.dataset.n_rows(), 0U);
  EXPECT_EQ(block.note_of_row.size(), block.dataset.n_rows());
  for (std::uint32_t idx : block.note_of_row) {
    const auto& note = data_->notes()[idx];
    const int w = util::test_week_of(note.dispatch_day);
    EXPECT_GE(std::min(w, data_->n_weeks() - 1), 30);
    EXPECT_LE(std::min(w, data_->n_weeks() - 1), 36);
  }
}

TEST_F(EncoderTest, DispatchWeeksBeyondSimulationClamp) {
  // Tickets resolved after the last Saturday still get rows, encoded
  // against the final week's measurement.
  EncoderConfig cfg;
  const auto block =
      encode_at_dispatch(*data_, data_->n_weeks() - 2, data_->n_weeks() + 5,
                         cfg);
  for (std::uint32_t idx : block.note_of_row) {
    const int w = util::test_week_of(data_->notes()[idx].dispatch_day);
    EXPECT_GE(w, data_->n_weeks() - 2);
  }
}

TEST_F(EncoderTest, EmptyEmitRangeGivesEmptyBlock) {
  EncoderConfig cfg;
  const TicketLabeler labeler{28};
  const auto block = encode_weeks(*data_, 12, 10, cfg, labeler);
  EXPECT_EQ(block.dataset.n_rows(), 0U);
}

TEST_F(EncoderTest, HorizonChangesLabelDensity) {
  EncoderConfig cfg;
  const auto short_block = encode_weeks(*data_, 30, 30, cfg, TicketLabeler{7});
  const auto long_block = encode_weeks(*data_, 30, 30, cfg, TicketLabeler{56});
  EXPECT_GT(long_block.dataset.positives(), short_block.dataset.positives());
}

TEST_F(EncoderTest, DispatchRowsMatchSaturdayMeasurement) {
  EncoderConfig cfg;
  const auto block = encode_at_dispatch(*data_, 30, 36, cfg);
  for (std::size_t r = 0; r < block.dataset.n_rows(); r += 7) {
    const auto& note = data_->notes()[block.note_of_row[r]];
    const int w =
        std::min(util::test_week_of(note.dispatch_day), data_->n_weeks() - 1);
    const auto& m = data_->measurement(w, note.line);
    const float got = block.dataset.at(r, 1);
    if (ml::is_missing(m[1])) {
      EXPECT_TRUE(ml::is_missing(got));
    } else {
      EXPECT_EQ(got, m[1]);
    }
  }
}

// WeekEncoder encodes a week in tiles of lines on the pool. The
// reference walks one line at a time with its own windows, encoding
// then folding each measurement. On a population wider than one tile,
// under the full derived layout, rows, labels and their (week, line)
// order must match it byte for byte at 1 and 8 threads.
TEST(WeekEncoderTiles, TiledEncodeMatchesPerLineWalk) {
  SimConfig sim_cfg;
  sim_cfg.seed = 19;
  sim_cfg.topology.n_lines =
      static_cast<std::uint32_t>(WeekEncoder::kTileRows) + 404;
  const SimDataset data = Simulator(sim_cfg).run();
  EncoderConfig cfg;
  cfg.include_quadratic = true;
  cfg.product_pairs = {{0, 1}, {3, 30}, {80, 7}};
  const TicketLabeler labeler{28};
  constexpr int kFrom = 20;
  constexpr int kTo = 21;
  const std::size_t n_base = base_columns(cfg).size();
  const std::size_t n_cols = all_columns(cfg).size();

  using Key = std::tuple<dslsim::LineId, int, bool>;
  std::vector<float> want;
  std::vector<Key> want_keys;
  std::vector<LineWindow> windows(data.n_lines());
  std::vector<float> row(n_cols);
  for (int w = 0; w <= kTo; ++w) {
    const util::Day day = util::saturday_of_week(w);
    const auto week = data.week_measurements(w);
    for (dslsim::LineId u = 0; u < data.n_lines(); ++u) {
      if (w >= kFrom) {
        encode_window_row(windows[u], week[u],
                          dslsim::profile(data.plant(u).profile),
                          data.last_edge_ticket_at_or_before(u, day), day, cfg,
                          n_base, row);
        want.insert(want.end(), row.begin(), row.end());
        want_keys.emplace_back(u, w, labeler(data, u, day));
      }
      windows[u].update(week[u]);
    }
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    std::vector<float> got;
    std::vector<Key> got_keys;
    WeekEncoder encoder(
        data, kFrom, kTo, cfg, labeler,
        [&](std::span<const float> r, bool label, dslsim::LineId u, int w) {
          got.insert(got.end(), r.begin(), r.end());
          got_keys.emplace_back(u, w, label);
        },
        exec::ExecContext(threads));
    for (int w = 0; w <= kTo; ++w) encoder.on_week(w, data.week_measurements(w));
    EXPECT_EQ(got_keys, want_keys) << threads << " thread(s)";
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << threads << " thread(s)";
  }
}

}  // namespace
}  // namespace nevermind::features
