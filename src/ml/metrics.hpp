// Ranking metrics for predictor evaluation.
//
// The paper's headline metric is *accuracy of the top-N predictions*
// (precision@N: the fraction of the N highest-ranked lines whose
// customers issue a ticket within 4 weeks), and its novel selection
// criterion is the *top-N average precision* AP(N) of Section 4.3:
//     AP(N) = sum_{r=1..N} Prec(r) * Tkt(u_r) / N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace nevermind::ml {

/// Indices of examples sorted by descending score. Ties are broken by
/// index so rankings are deterministic.
[[nodiscard]] std::vector<std::size_t> rank_by_score(
    std::span<const double> scores);

/// Precision within the top `k` of the ranking induced by `scores`.
[[nodiscard]] double precision_at_k(std::span<const double> scores,
                                    std::span<const std::uint8_t> labels,
                                    std::size_t k);

/// Precision@k for several cutoffs at once (one sort instead of many).
[[nodiscard]] std::vector<double> precision_curve(
    std::span<const double> scores, std::span<const std::uint8_t> labels,
    std::span<const std::size_t> cutoffs);

/// The paper's top-N average precision (Section 4.3).
[[nodiscard]] double top_n_average_precision(std::span<const double> scores,
                                             std::span<const std::uint8_t> labels,
                                             std::size_t n);

/// top_n_average_precision of a piecewise-constant scorer: row r scores
/// level_scores[level_of_row[r]]. Rows are bucketed by distinct score
/// (levels whose scores compare equal share a bucket), best first and
/// in index order within a bucket — exactly rank_by_score's order — so
/// the result is the same double as expanding the scores, in
/// O(rows + levels log levels) with no row sort. Scores must not be NaN.
[[nodiscard]] double top_n_average_precision_levels(
    std::span<const std::uint32_t> level_of_row,
    std::span<const double> level_scores,
    std::span<const std::uint8_t> labels, std::size_t n);

/// Standard average precision over the full ranking (the "Average
/// precision" baseline of Table 4): mean of Prec(r) over positive ranks.
[[nodiscard]] double average_precision(std::span<const double> scores,
                                       std::span<const std::uint8_t> labels);

/// Area under the ROC curve via the rank-sum (Mann–Whitney) statistic;
/// tied scores contribute 1/2.
[[nodiscard]] double auc(std::span<const double> scores,
                         std::span<const std::uint8_t> labels);

}  // namespace nevermind::ml
