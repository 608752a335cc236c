#include "ml/feature_selection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ml/adaboost.hpp"
#include "ml/metrics.hpp"
#include "util/rng.hpp"

namespace nevermind::ml {
namespace {

/// Train/test pair with one strong, one weak and one useless feature.
struct Problem {
  FeatureArena train{std::vector<ColumnInfo>{
      {"strong", false}, {"weak", false}, {"noise", false}}};
  FeatureArena test{std::vector<ColumnInfo>{
      {"strong", false}, {"weak", false}, {"noise", false}}};
};

Problem make_problem(std::uint64_t seed, std::size_t n = 4000) {
  util::Rng rng(seed);
  Problem p;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const bool y = rng.bernoulli(0.1);
    const float row[3] = {
        static_cast<float>(rng.normal(y ? 2.0 : 0.0, 1.0)),
        static_cast<float>(rng.normal(y ? 0.6 : 0.0, 1.0)),
        static_cast<float>(rng.normal())};
    (i % 2 == 0 ? p.train : p.test).add_row(row, y);
  }
  return p;
}

class MethodSweep : public ::testing::TestWithParam<SelectionMethod> {};

TEST_P(MethodSweep, StrongFeatureRankedAboveNoise) {
  const Problem p = make_problem(11);
  FeatureScoringConfig cfg;
  cfg.top_n = 400;
  const auto scores = score_features(p.train, p.test, GetParam(), cfg);
  ASSERT_EQ(scores.size(), 3U);
  EXPECT_GT(scores[0], scores[2]);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MethodSweep,
    ::testing::Values(SelectionMethod::kTopNAp, SelectionMethod::kAuc,
                      SelectionMethod::kAveragePrecision,
                      SelectionMethod::kGainRatio));

TEST(FeatureSelection, TopNApFullOrdering) {
  const Problem p = make_problem(12);
  FeatureScoringConfig cfg;
  cfg.top_n = 400;
  const auto scores =
      score_features(p.train, p.test, SelectionMethod::kTopNAp, cfg);
  EXPECT_GT(scores[0], scores[1]);
  EXPECT_GT(scores[1], scores[2]);
}

TEST(FeatureSelection, FirstColumnSkipsScoring) {
  const Problem p = make_problem(13);
  FeatureScoringConfig cfg;
  cfg.top_n = 400;
  const auto scores =
      score_features(p.train, p.test, SelectionMethod::kTopNAp, cfg, 2);
  EXPECT_EQ(scores[0], 0.0);
  EXPECT_EQ(scores[1], 0.0);
  EXPECT_GE(scores[2], 0.0);
}

TEST(FeatureSelection, WrapperRequiresMatchingTest) {
  const Problem p = make_problem(14);
  const FeatureArena other({{"x", false}});
  FeatureScoringConfig cfg;
  EXPECT_THROW(
      (void)score_features(p.train, other, SelectionMethod::kAuc, cfg),
      std::invalid_argument);
}

TEST(FeatureSelection, PcaIsFilterOnly) {
  // PCA scoring ignores the test set entirely (filter method).
  const Problem p = make_problem(15);
  const FeatureArena empty_test({{"strong", false}, {"weak", false},
                            {"noise", false}});
  FeatureScoringConfig cfg;
  const auto scores =
      score_features(p.train, empty_test, SelectionMethod::kPca, cfg);
  EXPECT_EQ(scores.size(), 3U);
}

/// One matrix whose columns hit every tie and edge case of the
/// single-feature scorer, split into train/test row views the way the
/// predictor splits weeks.
struct OracleProblem {
  FeatureArena arena{std::vector<ColumnInfo>{{"heavy_ties", false},
                                             {"signed_zeros", false},
                                             {"nan_missing", false},
                                             {"all_missing", false},
                                             {"constant", false},
                                             {"flt_max", false},
                                             {"adjacent", false},
                                             {"categorical", true},
                                             {"smooth", false}}};
  std::vector<std::size_t> train_rows;
  std::vector<std::size_t> test_rows;
};

OracleProblem make_oracle_problem(std::uint64_t seed, std::size_t n_train,
                                  std::size_t n_test) {
  util::Rng rng(seed);
  OracleProblem p;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float one_up = std::nextafter(1.0F, 2.0F);
  const float two_up = std::nextafter(one_up, 2.0F);
  for (std::size_t i = 0; i < n_train + n_test; ++i) {
    const double h = rng.normal();
    const bool y = rng.bernoulli(h > 0.8 ? 0.5 : 0.08);
    const float zero = rng.bernoulli(0.5) ? 0.0F : -0.0F;
    const float row[9] = {
        static_cast<float>(std::clamp(std::floor(h + 2.0), 0.0, 4.0)),
        h < -0.7  ? -1.0F
        : h < 0.0 ? -std::numeric_limits<float>::denorm_min()
        : h < 1.0 ? zero
                  : 1.0F,
        rng.bernoulli(0.3) ? nan : static_cast<float>(h),
        nan,
        5.0F,
        h < -1.0  ? -FLT_MAX
        : h > 1.0 ? FLT_MAX
                  : static_cast<float>(std::round(h)),
        h < 0.0 ? 1.0F : h < 1.0 ? one_up : two_up,
        rng.bernoulli(0.1)
            ? nan
            : static_cast<float>(std::clamp(std::floor(h + 2.0), 0.0, 3.0)),
        static_cast<float>(h + 0.5 * rng.normal())};
    p.arena.add_row(row, y);
    (i % 3 == 2 ? p.test_rows : p.train_rows).push_back(i);
  }
  return p;
}

void expect_same_stumps(const BStumpModel& got, const BStumpModel& want,
                        std::size_t feature) {
  ASSERT_EQ(got.stumps().size(), want.stumps().size());
  for (std::size_t t = 0; t < got.stumps().size(); ++t) {
    const Stump& a = got.stumps()[t];
    const Stump& b = want.stumps()[t];
    EXPECT_EQ(a.feature, feature);
    EXPECT_EQ(a.categorical, b.categorical);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a.threshold),
              std::bit_cast<std::uint32_t>(b.threshold));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.score_pass),
              std::bit_cast<std::uint64_t>(b.score_pass));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.score_fail),
              std::bit_cast<std::uint64_t>(b.score_fail));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.score_missing),
              std::bit_cast<std::uint64_t>(b.score_missing));
  }
}

// The dedicated single-feature scorer against the generic multi-feature
// exact trainer on a one-column view plus the sort-based AP(N): stumps
// and scores must agree bit for bit on every edge-case column, at any
// thread count, with N below, above (n < N) and at zero.
TEST(FeatureSelection, SingleFeatureScorerMatchesReference) {
  const OracleProblem p = make_oracle_problem(21, 1200, 600);
  const DatasetView all(p.arena);
  const DatasetView train = all.rows(p.train_rows);
  const DatasetView test = all.rows(p.test_rows);
  const std::vector<std::uint8_t> test_labels = test.labels_copy();

  BStumpConfig boost;
  boost.iterations = FeatureScoringConfig{}.boost_iterations;
  for (const std::size_t threads : {1, 8}) {
    for (const std::size_t top_n : {50, 250, 1000, 0}) {
      FeatureScoringConfig cfg;
      cfg.top_n = top_n;
      if (threads > 1) cfg.exec = exec::ExecContext(threads);
      const auto scores =
          score_features(train, test, SelectionMethod::kTopNAp, cfg);
      ASSERT_EQ(scores.size(), all.n_cols());
      for (std::size_t j = 0; j < all.n_cols(); ++j) {
        SCOPED_TRACE(all.column_info(j).name);
        const std::size_t only[] = {j};
        const BStumpModel reference = train_bstump(train.cols(only), boost);
        expect_same_stumps(train_bstump_single_feature(train, j, boost),
                           reference, j);
        const double want =
            reference.empty()
                ? 0.0
                : top_n_average_precision(
                      reference.score_dataset(test.cols(only)), test_labels,
                      top_n);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(scores[j]),
                  std::bit_cast<std::uint64_t>(want));
      }
    }
  }
}

TEST(SelectTopK, OrdersDescendingByScore) {
  const std::vector<double> scores = {0.1, 0.9, 0.5};
  const auto sel = select_top_k(scores, 2);
  ASSERT_EQ(sel.size(), 2U);
  EXPECT_EQ(sel[0], 1U);
  EXPECT_EQ(sel[1], 2U);
}

TEST(SelectTopK, KLargerThanSizeReturnsAll) {
  const std::vector<double> scores = {0.1, 0.2};
  EXPECT_EQ(select_top_k(scores, 10).size(), 2U);
}

TEST(SelectTopK, StableForTies) {
  const std::vector<double> scores = {0.5, 0.5, 0.5};
  const auto sel = select_top_k(scores, 2);
  EXPECT_EQ(sel[0], 0U);
  EXPECT_EQ(sel[1], 1U);
}

TEST(SelectAboveThreshold, StrictInequality) {
  const std::vector<double> scores = {0.2, 0.21, 0.19};
  const auto sel = select_above_threshold(scores, 0.2);
  ASSERT_EQ(sel.size(), 1U);
  EXPECT_EQ(sel[0], 1U);
}

TEST(SelectAboveThreshold, EmptyWhenAllBelow) {
  const std::vector<double> scores = {0.1, 0.05};
  EXPECT_TRUE(select_above_threshold(scores, 0.5).empty());
}

TEST(SelectionMethodNames, AllDistinct) {
  EXPECT_STRNE(selection_method_name(SelectionMethod::kTopNAp),
               selection_method_name(SelectionMethod::kAuc));
  EXPECT_STRNE(selection_method_name(SelectionMethod::kPca),
               selection_method_name(SelectionMethod::kGainRatio));
}

}  // namespace
}  // namespace nevermind::ml
