#include "ml/metrics.hpp"

#include <algorithm>
#include <numeric>

namespace nevermind::ml {

std::vector<std::size_t> rank_by_score(std::span<const double> scores) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  return order;
}

double precision_at_k(std::span<const double> scores,
                      std::span<const std::uint8_t> labels, std::size_t k) {
  const std::size_t cutoffs[] = {k};
  return precision_curve(scores, labels, cutoffs)[0];
}

std::vector<double> precision_curve(std::span<const double> scores,
                                    std::span<const std::uint8_t> labels,
                                    std::span<const std::size_t> cutoffs) {
  const auto order = rank_by_score(scores);
  std::vector<double> out(cutoffs.size(), 0.0);
  if (order.empty()) return out;

  // Prefix positive counts once, then answer each cutoff.
  std::vector<std::size_t> prefix(order.size() + 1, 0);
  for (std::size_t r = 0; r < order.size(); ++r) {
    prefix[r + 1] = prefix[r] + (labels[order[r]] != 0 ? 1 : 0);
  }
  for (std::size_t i = 0; i < cutoffs.size(); ++i) {
    const std::size_t k = std::min(cutoffs[i], order.size());
    out[i] = k == 0 ? 0.0
                    : static_cast<double>(prefix[k]) / static_cast<double>(k);
  }
  return out;
}

double top_n_average_precision(std::span<const double> scores,
                               std::span<const std::uint8_t> labels,
                               std::size_t n) {
  const auto order = rank_by_score(scores);
  const std::size_t limit = std::min(n, order.size());
  if (n == 0) return 0.0;
  double sum = 0.0;
  std::size_t positives = 0;
  for (std::size_t r = 0; r < limit; ++r) {
    if (labels[order[r]] != 0) {
      ++positives;
      sum += static_cast<double>(positives) / static_cast<double>(r + 1);
    }
  }
  return sum / static_cast<double>(n);
}

double top_n_average_precision_levels(
    std::span<const std::uint32_t> level_of_row,
    std::span<const double> level_scores,
    std::span<const std::uint8_t> labels, std::size_t n) {
  const std::size_t limit = std::min(n, level_of_row.size());
  if (n == 0) return 0.0;

  // Bucket per level: distinct scores, best first.
  const auto by_score = rank_by_score(level_scores);
  std::vector<std::size_t> bucket_of(level_scores.size());
  std::size_t n_buckets = 0;
  for (std::size_t k = 0; k < by_score.size(); ++k) {
    if (k == 0 ||
        level_scores[by_score[k]] != level_scores[by_score[k - 1]]) {
      ++n_buckets;
    }
    bucket_of[by_score[k]] = n_buckets - 1;
  }

  // Counting sort of the rows by bucket, stable in row index; only the
  // first `limit` ranks are kept.
  std::vector<std::size_t> next(n_buckets + 1, 0);
  for (const std::uint32_t level : level_of_row) {
    ++next[bucket_of[level] + 1];
  }
  for (std::size_t b = 0; b < n_buckets; ++b) next[b + 1] += next[b];
  std::vector<std::uint8_t> ranked(limit, 0);
  for (std::size_t r = 0; r < level_of_row.size(); ++r) {
    const std::size_t rank = next[bucket_of[level_of_row[r]]]++;
    if (rank < limit) ranked[rank] = labels[r] != 0 ? 1 : 0;
  }

  double sum = 0.0;
  std::size_t positives = 0;
  for (std::size_t r = 0; r < limit; ++r) {
    if (ranked[r] != 0) {
      ++positives;
      sum += static_cast<double>(positives) / static_cast<double>(r + 1);
    }
  }
  return sum / static_cast<double>(n);
}

double average_precision(std::span<const double> scores,
                         std::span<const std::uint8_t> labels) {
  const auto order = rank_by_score(scores);
  double sum = 0.0;
  std::size_t positives = 0;
  for (std::size_t r = 0; r < order.size(); ++r) {
    if (labels[order[r]] != 0) {
      ++positives;
      sum += static_cast<double>(positives) / static_cast<double>(r + 1);
    }
  }
  return positives == 0 ? 0.0 : sum / static_cast<double>(positives);
}

double auc(std::span<const double> scores,
           std::span<const std::uint8_t> labels) {
  const std::size_t n = scores.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });

  // Average ranks across ties, accumulate rank-sum of positives.
  double rank_sum_pos = 0.0;
  std::size_t n_pos = 0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double avg_rank = 0.5 * static_cast<double>(i + j) + 1.0;
    for (std::size_t k = i; k <= j; ++k) {
      if (labels[order[k]] != 0) {
        rank_sum_pos += avg_rank;
        ++n_pos;
      }
    }
    i = j + 1;
  }
  const std::size_t n_neg = n - n_pos;
  if (n_pos == 0 || n_neg == 0) return 0.5;
  const double u = rank_sum_pos -
                   static_cast<double>(n_pos) * (static_cast<double>(n_pos) + 1.0) / 2.0;
  return u / (static_cast<double>(n_pos) * static_cast<double>(n_neg));
}

}  // namespace nevermind::ml
