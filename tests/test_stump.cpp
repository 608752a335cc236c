#include "ml/stump.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace nevermind::ml {
namespace {

std::vector<double> uniform_weights(std::size_t n) {
  return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

TEST(Stump, EvaluateContinuous) {
  Stump s;
  s.feature = 0;
  s.threshold = 5.0F;
  s.score_pass = 1.0;
  s.score_fail = -0.5;
  s.score_missing = 0.1;
  EXPECT_EQ(s.evaluate(7.0F), 1.0);
  EXPECT_EQ(s.evaluate(5.0F), 1.0);  // >= threshold passes
  EXPECT_EQ(s.evaluate(4.9F), -0.5);
  EXPECT_EQ(s.evaluate(kMissing), 0.1);
}

TEST(Stump, EvaluateCategorical) {
  Stump s;
  s.feature = 0;
  s.categorical = true;
  s.threshold = 2.0F;
  s.score_pass = 0.7;
  s.score_fail = -0.7;
  EXPECT_EQ(s.evaluate(2.0F), 0.7);
  EXPECT_EQ(s.evaluate(3.0F), -0.7);
}

TEST(FindBestStump, SeparableContinuous) {
  FeatureArena d({{"x", false}});
  for (int i = 0; i < 50; ++i) {
    const float x = static_cast<float>(i);
    d.add_row({&x, 1}, i >= 25);
  }
  const SortedColumns sorted(d);
  const auto result =
      find_best_stump(d, sorted, uniform_weights(d.n_rows()), 0.01);
  // Threshold lands between 24 and 25; positives above.
  EXPECT_GT(result.stump.threshold, 24.0F);
  EXPECT_LT(result.stump.threshold, 25.01F);
  EXPECT_GT(result.stump.score_pass, 0.0);
  EXPECT_LT(result.stump.score_fail, 0.0);
  EXPECT_LT(result.z, 0.2);  // nearly perfect split -> Z near 0
}

// The stored threshold must split the data where the scan did: the
// float midpoint of adjacent values rounds back to the lower one, and of
// +-FLT_MAX overflows to inf. Either would move rows across the split.
TEST(FindBestStump, DegenerateMidpointsKeepTheScannedSplit) {
  const float lo_values[] = {1.0F, -FLT_MAX};
  const float hi_values[] = {std::nextafter(1.0F, 2.0F), FLT_MAX};
  for (int k = 0; k < 2; ++k) {
    const float lo = lo_values[k];
    const float hi = hi_values[k];
    FeatureArena d({{"x", false}});
    for (int i = 0; i < 40; ++i) {
      const float x = i < 20 ? lo : hi;
      d.add_row({&x, 1}, i >= 20);
    }
    const SortedColumns sorted(d);
    const auto result =
        find_best_stump(d, sorted, uniform_weights(d.n_rows()), 0.01);
    EXPECT_GT(result.stump.threshold, lo);
    EXPECT_LE(result.stump.threshold, hi);
    EXPECT_EQ(result.stump.evaluate(lo), result.stump.score_fail);
    EXPECT_EQ(result.stump.evaluate(hi), result.stump.score_pass);
  }
}

TEST(FindBestStump, SeparableInverted) {
  // Positives BELOW the threshold: score signs flip.
  FeatureArena d({{"x", false}});
  for (int i = 0; i < 50; ++i) {
    const float x = static_cast<float>(i);
    d.add_row({&x, 1}, i < 25);
  }
  const SortedColumns sorted(d);
  const auto result =
      find_best_stump(d, sorted, uniform_weights(d.n_rows()), 0.01);
  EXPECT_LT(result.stump.score_pass, 0.0);
  EXPECT_GT(result.stump.score_fail, 0.0);
}

TEST(FindBestStump, PicksInformativeFeature) {
  FeatureArena d({{"noise", false}, {"signal", false}});
  util::Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const bool positive = i % 2 == 0;
    const float row[2] = {static_cast<float>(rng.uniform()),
                          positive ? 1.0F : 0.0F};
    d.add_row(row, positive);
  }
  const SortedColumns sorted(d);
  const auto result =
      find_best_stump(d, sorted, uniform_weights(d.n_rows()), 0.01);
  EXPECT_EQ(result.stump.feature, 1U);
}

TEST(FindBestStump, CategoricalEquality) {
  FeatureArena d({{"color", true}});
  util::Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    const float v = static_cast<float>(rng.uniform_index(3));
    // Category 1 is mostly positive, others mostly negative.
    const bool positive = v == 1.0F ? rng.bernoulli(0.9) : rng.bernoulli(0.1);
    d.add_row({&v, 1}, positive);
  }
  const SortedColumns sorted(d);
  const auto result =
      find_best_stump(d, sorted, uniform_weights(d.n_rows()), 0.01);
  EXPECT_TRUE(result.stump.categorical);
  EXPECT_EQ(result.stump.threshold, 1.0F);
  EXPECT_GT(result.stump.score_pass, 0.0);
}

TEST(FindBestStump, MissingValuesGetOwnBranch) {
  FeatureArena d({{"x", false}});
  // Missing rows are all positive; present rows all negative.
  for (int i = 0; i < 100; ++i) {
    const float v = i < 50 ? kMissing : static_cast<float>(i);
    d.add_row({&v, 1}, i < 50);
  }
  const SortedColumns sorted(d);
  const auto result =
      find_best_stump(d, sorted, uniform_weights(d.n_rows()), 0.01);
  EXPECT_GT(result.stump.score_missing, 0.0);
  EXPECT_LT(result.stump.score_pass, 0.0);
}

TEST(FindBestStump, WeightsShiftTheSplit) {
  FeatureArena d({{"x", false}});
  for (int i = 0; i < 10; ++i) {
    const float x = static_cast<float>(i);
    d.add_row({&x, 1}, i >= 5);
  }
  // Upweight a mislabeled-looking point (x=0 positive would be noise);
  // instead upweight the boundary examples and check Z improves there.
  std::vector<double> w(10, 0.01);
  w[4] = 0.5;
  w[5] = 0.5;
  const SortedColumns sorted(d);
  const auto result = find_best_stump(d, sorted, w, 0.001);
  EXPECT_GT(result.stump.threshold, 4.0F);
  EXPECT_LT(result.stump.threshold, 5.01F);
}

TEST(FindBestStumpForFeature, RestrictsSearch) {
  FeatureArena d({{"noise", false}, {"signal", false}});
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const bool positive = i % 2 == 0;
    const float row[2] = {static_cast<float>(rng.uniform()),
                          positive ? 1.0F : 0.0F};
    d.add_row(row, positive);
  }
  const std::size_t only[] = {0};
  const SortedColumns sorted(d, only);
  const auto result = find_best_stump_for_feature(
      d, sorted, uniform_weights(d.n_rows()), 0.01, 0);
  EXPECT_EQ(result.stump.feature, 0U);
  // The noise feature separates poorly: Z stays near 1.
  EXPECT_GT(result.z, 0.9);
}

TEST(FindBestStump, ConstantFeatureYieldsPriorVote) {
  FeatureArena d({{"x", false}});
  const float v = 1.0F;
  for (int i = 0; i < 40; ++i) d.add_row({&v, 1}, i < 30);
  const SortedColumns sorted(d);
  const auto result =
      find_best_stump(d, sorted, uniform_weights(d.n_rows()), 0.01);
  // Only the no-split stump exists: everything passes, vote is the
  // class prior (positive here).
  EXPECT_GT(result.stump.score_pass, 0.0);
}

}  // namespace
}  // namespace nevermind::ml
