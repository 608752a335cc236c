// Decision stumps — the weak learners of BStump (Section 4.4 of the
// paper; Fig 5 shows one). A stump tests a single line feature against a
// threshold delta (continuous) or a value (categorical) and emits a
// confidence-rated score S+ or S- (Schapire & Singer real AdaBoost).
// Missing measurements fall into their own abstain branch.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "ml/dataset.hpp"

namespace nevermind::ml {

struct Stump {
  std::size_t feature = 0;
  bool categorical = false;
  /// Continuous: predicate is x >= threshold. Categorical: x == threshold.
  float threshold = 0.0F;
  /// Score when the predicate holds (the "S+" arrow of Fig 5).
  double score_pass = 0.0;
  /// Score when the predicate fails ("S-").
  double score_fail = 0.0;
  /// Score for a missing value (Boostexter abstains by default, but the
  /// weight statistics can justify a non-zero vote).
  double score_missing = 0.0;

  [[nodiscard]] double evaluate(float value) const noexcept {
    if (is_missing(value)) return score_missing;
    const bool pass = categorical ? value == threshold : value >= threshold;
    return pass ? score_pass : score_fail;
  }
};

/// Per-column preprocessing shared by every boosting iteration: row
/// indices sorted by feature value (with a bitmap of the value changes
/// along that order) for continuous columns, and rows grouped by value
/// for categorical columns. Building this once turns each boosting
/// iteration into a linear scan per feature. Indices are view-local
/// positions — searches must run against the same view the index was
/// built on.
///
/// The continuous order comes from an unstable std::sort and must not
/// change: across several features, rows tied on one column can carry
/// different boosting weights, so the tie order feeds the ulp-level
/// weight sums of every split scan (DESIGN.md §7).
class SortedColumns {
 public:
  /// Indexes every column, or — when `only` is non-empty — just the
  /// listed columns (single-feature training indexes one column instead
  /// of paying O(F n log n) per call). Columns are independent, so a
  /// parallel context splits the work across them.
  explicit SortedColumns(
      const DatasetView& data, std::span<const std::size_t> only = {},
      const exec::ExecContext& exec = exec::ExecContext::serial());

  struct CategoricalGroup {
    float value;
    std::vector<std::uint32_t> rows;
  };

  [[nodiscard]] std::span<const std::uint32_t> sorted_rows(std::size_t col) const {
    return sorted_[col];
  }
  /// Split candidates of a continuous column, one bit per sorted
  /// position: bit i is set when the value after position i is larger.
  /// A scan walks the set bits instead of comparing values through the
  /// row index, at n/8 bytes per column.
  [[nodiscard]] std::span<const std::uint64_t> split_after(
      std::size_t col) const {
    return split_after_[col];
  }
  [[nodiscard]] std::span<const CategoricalGroup> groups(std::size_t col) const {
    return groups_[col];
  }

 private:
  std::vector<std::vector<std::uint32_t>> sorted_;       // continuous cols
  std::vector<std::vector<std::uint64_t>> split_after_;  // continuous cols
  std::vector<std::vector<CategoricalGroup>> groups_;    // categorical cols
};

struct StumpSearchResult {
  Stump stump;
  /// Schapire–Singer normalizer Z = sum_b 2 sqrt(W+_b W-_b); smaller is
  /// a stronger weak learner.
  double z = 1.0;
};

/// Exhaustive best-stump search over all features given the current
/// boosting weights. `weights[i]` must be non-negative; labels come from
/// `data`. `smoothing` is the epsilon in S = 0.5 ln((W+ + eps)/(W- + eps)).
/// Per-feature scans run in parallel under `exec`; the winner is picked
/// by an ordered reduce (ties go to the lowest feature index), so the
/// result is byte-identical to the serial scan at any thread count.
[[nodiscard]] StumpSearchResult find_best_stump(
    const DatasetView& data, const SortedColumns& sorted,
    std::span<const double> weights, double smoothing,
    const exec::ExecContext& exec = exec::ExecContext::serial());

/// Same search with externally supplied labels (labels[i], one per view
/// row): one shared feature matrix + sorted index can serve many
/// relabelled one-vs-rest problems without copying the dataset.
[[nodiscard]] StumpSearchResult find_best_stump(
    const DatasetView& data, const SortedColumns& sorted,
    std::span<const std::uint8_t> labels, std::span<const double> weights,
    double smoothing,
    const exec::ExecContext& exec = exec::ExecContext::serial());

/// Best stump restricted to one feature (used by the per-feature AP(N)
/// selection, which trains single-feature predictors).
[[nodiscard]] StumpSearchResult find_best_stump_for_feature(
    const DatasetView& data, const SortedColumns& sorted,
    std::span<const double> weights, double smoothing, std::size_t feature);

/// Single-feature search with externally supplied labels.
[[nodiscard]] StumpSearchResult find_best_stump_for_feature(
    const DatasetView& data, const SortedColumns& sorted,
    std::span<const std::uint8_t> labels, std::span<const double> weights,
    double smoothing, std::size_t feature);

}  // namespace nevermind::ml
