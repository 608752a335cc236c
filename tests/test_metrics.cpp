#include "ml/metrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace nevermind::ml {
namespace {

TEST(RankByScore, DescendingWithStableTies) {
  const std::vector<double> scores = {0.5, 0.9, 0.5, 0.1};
  const auto order = rank_by_score(scores);
  ASSERT_EQ(order.size(), 4U);
  EXPECT_EQ(order[0], 1U);
  EXPECT_EQ(order[1], 0U);  // tie broken by original index
  EXPECT_EQ(order[2], 2U);
  EXPECT_EQ(order[3], 3U);
}

TEST(PrecisionAtK, HandComputed) {
  const std::vector<double> scores = {0.9, 0.8, 0.7, 0.6};
  const std::vector<std::uint8_t> labels = {1, 0, 1, 0};
  EXPECT_NEAR(precision_at_k(scores, labels, 1), 1.0, 1e-12);
  EXPECT_NEAR(precision_at_k(scores, labels, 2), 0.5, 1e-12);
  EXPECT_NEAR(precision_at_k(scores, labels, 3), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(precision_at_k(scores, labels, 4), 0.5, 1e-12);
}

TEST(PrecisionAtK, KBeyondSizeUsesAll) {
  const std::vector<double> scores = {0.9, 0.1};
  const std::vector<std::uint8_t> labels = {1, 1};
  EXPECT_NEAR(precision_at_k(scores, labels, 100), 1.0, 1e-12);
}

TEST(PrecisionAtK, ZeroKIsZero) {
  const std::vector<double> scores = {0.9};
  const std::vector<std::uint8_t> labels = {1};
  EXPECT_EQ(precision_at_k(scores, labels, 0), 0.0);
}

TEST(PrecisionCurve, MultipleCutoffsConsistent) {
  util::Rng rng(1);
  std::vector<double> scores(500);
  std::vector<std::uint8_t> labels(500);
  for (std::size_t i = 0; i < 500; ++i) {
    scores[i] = rng.uniform();
    labels[i] = rng.bernoulli(0.3) ? 1 : 0;
  }
  const std::size_t cutoffs[] = {10, 50, 200};
  const auto curve = precision_curve(scores, labels, cutoffs);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(curve[i], precision_at_k(scores, labels, cutoffs[i]), 1e-12);
  }
}

TEST(TopNAp, PaperDefinitionHandComputed) {
  // Ranking: [1, 0, 1], N = 3.
  // AP(3) = (Prec(1)*1 + Prec(3)*1) / 3 = (1 + 2/3) / 3.
  const std::vector<double> scores = {0.9, 0.8, 0.7};
  const std::vector<std::uint8_t> labels = {1, 0, 1};
  EXPECT_NEAR(top_n_average_precision(scores, labels, 3),
              (1.0 + 2.0 / 3.0) / 3.0, 1e-12);
}

TEST(TopNAp, DividesByNNotByPositives) {
  // One positive at rank 1, N = 10: AP = 1/10 (favors dense hits).
  std::vector<double> scores(10);
  std::vector<std::uint8_t> labels(10, 0);
  for (std::size_t i = 0; i < 10; ++i) scores[i] = 1.0 - 0.01 * static_cast<double>(i);
  labels[0] = 1;
  EXPECT_NEAR(top_n_average_precision(scores, labels, 10), 0.1, 1e-12);
}

TEST(TopNAp, PerfectRankingApproachesOne) {
  std::vector<double> scores;
  std::vector<std::uint8_t> labels;
  for (int i = 0; i < 100; ++i) {
    scores.push_back(100.0 - i);
    labels.push_back(i < 50 ? 1 : 0);
  }
  EXPECT_NEAR(top_n_average_precision(scores, labels, 50), 1.0, 1e-12);
}

TEST(TopNAp, RewardsEarlyPositives) {
  // Same positives, better placement -> higher AP(N).
  const std::vector<std::uint8_t> early = {1, 1, 0, 0};
  const std::vector<std::uint8_t> late = {0, 0, 1, 1};
  const std::vector<double> scores = {0.9, 0.8, 0.7, 0.6};
  EXPECT_GT(top_n_average_precision(scores, early, 4),
            top_n_average_precision(scores, late, 4));
}

TEST(TopNAp, ZeroNIsZero) {
  const std::vector<double> scores = {1.0};
  const std::vector<std::uint8_t> labels = {1};
  EXPECT_EQ(top_n_average_precision(scores, labels, 0), 0.0);
}

// Distinct stump levels whose branch scores sum to equal doubles (here
// 0.5 + 0.25 and 0.25 + 0.5, and +0.0 vs -0.0) tie across buckets; the
// level-bucket AP(N) must rank them exactly as rank_by_score does.
TEST(TopNAp, LevelBucketsMatchSortedRanking) {
  const std::vector<double> level_scores = {
      0.5 + 0.25, -0.125, 0.25 + 0.5, 0.0, -0.0, 1.5, -0.125 + 0.0};
  util::Rng rng(17);
  std::vector<std::uint32_t> level_of_row(400);
  std::vector<std::uint8_t> labels(level_of_row.size());
  std::vector<double> scores(level_of_row.size());
  for (std::size_t r = 0; r < level_of_row.size(); ++r) {
    level_of_row[r] =
        static_cast<std::uint32_t>(rng.uniform() * level_scores.size());
    labels[r] = rng.bernoulli(0.3) ? 1 : 0;
    scores[r] = level_scores[level_of_row[r]];
  }
  for (const std::size_t n : {0, 1, 7, 60, 399, 400, 1000}) {
    SCOPED_TRACE(n);
    const double want = top_n_average_precision(scores, labels, n);
    const double got =
        top_n_average_precision_levels(level_of_row, level_scores, labels, n);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want));
  }
}

TEST(AveragePrecision, HandComputed) {
  // Ranking [1, 0, 1]: AP = (1 + 2/3) / 2.
  const std::vector<double> scores = {0.9, 0.8, 0.7};
  const std::vector<std::uint8_t> labels = {1, 0, 1};
  EXPECT_NEAR(average_precision(scores, labels), (1.0 + 2.0 / 3.0) / 2.0,
              1e-12);
}

TEST(AveragePrecision, NoPositivesIsZero) {
  const std::vector<double> scores = {0.5, 0.4};
  const std::vector<std::uint8_t> labels = {0, 0};
  EXPECT_EQ(average_precision(scores, labels), 0.0);
}

TEST(Auc, PerfectRanking) {
  const std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  const std::vector<std::uint8_t> labels = {1, 1, 0, 0};
  EXPECT_NEAR(auc(scores, labels), 1.0, 1e-12);
}

TEST(Auc, InvertedRanking) {
  const std::vector<double> scores = {0.1, 0.2, 0.8, 0.9};
  const std::vector<std::uint8_t> labels = {1, 1, 0, 0};
  EXPECT_NEAR(auc(scores, labels), 0.0, 1e-12);
}

TEST(Auc, RandomScoresNearHalf) {
  util::Rng rng(2);
  std::vector<double> scores(20000);
  std::vector<std::uint8_t> labels(20000);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = rng.uniform();
    labels[i] = rng.bernoulli(0.2) ? 1 : 0;
  }
  EXPECT_NEAR(auc(scores, labels), 0.5, 0.02);
}

TEST(Auc, TiesContributeHalf) {
  // All scores equal: AUC must be exactly 0.5.
  const std::vector<double> scores = {1.0, 1.0, 1.0, 1.0};
  const std::vector<std::uint8_t> labels = {1, 0, 1, 0};
  EXPECT_NEAR(auc(scores, labels), 0.5, 1e-12);
}

TEST(Auc, DegenerateSingleClassIsHalf) {
  const std::vector<double> scores = {0.1, 0.9};
  const std::vector<std::uint8_t> all_pos = {1, 1};
  const std::vector<std::uint8_t> all_neg = {0, 0};
  EXPECT_EQ(auc(scores, all_pos), 0.5);
  EXPECT_EQ(auc(scores, all_neg), 0.5);
}

/// Property: AUC is invariant under strictly monotone score transforms.
class AucInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AucInvariance, MonotoneTransformInvariant) {
  util::Rng rng(GetParam());
  std::vector<double> scores(300);
  std::vector<double> transformed(300);
  std::vector<std::uint8_t> labels(300);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = rng.normal();
    transformed[i] = std::exp(scores[i] * 0.5) * 3.0 + 7.0;
    labels[i] = rng.bernoulli(0.4) ? 1 : 0;
  }
  EXPECT_NEAR(auc(scores, labels), auc(transformed, labels), 1e-12);
}

TEST_P(AucInvariance, TopNApBoundedByPrecision) {
  // AP(N) <= Prec@N is not generally true, but AP(N) <= 1 and >= 0 is;
  // also AP(N) >= Prec@N^2 / e is too loose to assert — instead check
  // AP(N) == 0 iff the top N contain no positive.
  util::Rng rng(GetParam() ^ 0x55);
  std::vector<double> scores(200);
  std::vector<std::uint8_t> labels(200);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = rng.uniform();
    labels[i] = rng.bernoulli(0.1) ? 1 : 0;
  }
  const double ap = top_n_average_precision(scores, labels, 50);
  const double prec = precision_at_k(scores, labels, 50);
  EXPECT_GE(ap, 0.0);
  EXPECT_LE(ap, 1.0);
  EXPECT_EQ(ap == 0.0, prec == 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AucInvariance,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace nevermind::ml
