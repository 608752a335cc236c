#include "ml/feature_selection.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "ml/adaboost.hpp"
#include "ml/aligned.hpp"
#include "ml/entropy.hpp"
#include "ml/metrics.hpp"
#include "ml/pca.hpp"

namespace nevermind::ml {

const char* selection_method_name(SelectionMethod m) noexcept {
  switch (m) {
    case SelectionMethod::kTopNAp: return "Top-N AP";
    case SelectionMethod::kAuc: return "AUC";
    case SelectionMethod::kAveragePrecision: return "Average precision";
    case SelectionMethod::kPca: return "PCA";
    case SelectionMethod::kGainRatio: return "Gain ratio";
  }
  return "?";
}

namespace {

/// Held-out scores of a single-feature model as levels. Its stumps cut
/// the value line at their thresholds (continuous) or single out their
/// tested values (categorical), so every row falls on one of at most
/// stumps + 2 levels — an interval or a tested value, "other", then
/// missing — and takes the same branch of every stump as the rest of
/// its level. A level's branch scores summed in stump order are thus
/// the same double the per-row stump loop computes.
void single_feature_levels(const BStumpModel& model, const ColumnView& col,
                           PageVector<std::uint32_t>& level_of_row,
                           std::vector<double>& level_scores) {
  const auto& stumps = model.stumps();
  const bool categorical = stumps.front().categorical;
  std::vector<float> cuts;
  cuts.reserve(stumps.size());
  for (const auto& stump : stumps) cuts.push_back(stump.threshold);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  const auto m = static_cast<std::uint32_t>(cuts.size());

  // Continuous: the number of cuts at or below the value, i.e. the
  // stumps it passes are those whose cut index is below its level.
  // Categorical: the index of the equal tested value, else m. Selection
  // models have a dozen stumps at most, so a branch-free count beats a
  // search.
  level_of_row.resize(col.size());
  for (std::size_t r = 0; r < col.size(); ++r) {
    const float v = col[r];
    std::uint32_t level = 0;
    if (categorical) {
      level = m;
      for (std::uint32_t k = 0; k < m; ++k) level = v == cuts[k] ? k : level;
    } else {
      for (const float cut : cuts) level += v >= cut ? 1 : 0;
    }
    level_of_row[r] = is_missing(v) ? m + 1 : level;
  }

  level_scores.assign(m + 2, 0.0);
  for (const auto& stump : stumps) {
    const auto cut = static_cast<std::uint32_t>(
        std::lower_bound(cuts.begin(), cuts.end(), stump.threshold) -
        cuts.begin());
    for (std::uint32_t level = 0; level <= m; ++level) {
      const bool pass = categorical ? level == cut : cut < level;
      level_scores[level] += pass ? stump.score_pass : stump.score_fail;
    }
    level_scores[m + 1] += stump.score_missing;
  }
}

/// Buffers one task of feature scoring reuses across its columns.
struct WrapperScratch {
  SingleFeatureBooster booster;
  PageVector<std::uint32_t> level_of_row;
};

/// Score of a single-feature predictor on the held-out set under one of
/// the wrapper criteria.
double wrapper_score(const DatasetView& train, const DatasetView& test,
                     std::span<const std::uint8_t> test_labels,
                     std::size_t feature, SelectionMethod method,
                     const FeatureScoringConfig& config,
                     WrapperScratch& scratch) {
  BStumpConfig boost;
  boost.iterations = config.boost_iterations;
  const BStumpModel model = scratch.booster.train(train, feature, boost);
  if (model.empty()) return 0.0;

  PageVector<std::uint32_t>& level_of_row = scratch.level_of_row;
  std::vector<double> level_scores;
  single_feature_levels(model, test.column(feature), level_of_row,
                        level_scores);
  if (method == SelectionMethod::kTopNAp) {
    return top_n_average_precision_levels(level_of_row, level_scores,
                                          test_labels, config.top_n);
  }
  std::vector<double> scores(level_of_row.size());
  for (std::size_t r = 0; r < scores.size(); ++r) {
    scores[r] = level_scores[level_of_row[r]];
  }
  switch (method) {
    case SelectionMethod::kAuc:
      return auc(scores, test_labels);
    case SelectionMethod::kAveragePrecision:
      return average_precision(scores, test_labels);
    default:
      throw std::logic_error("wrapper_score: not a wrapper method");
  }
}

}  // namespace

std::vector<double> score_features(const DatasetView& train,
                                   const DatasetView& test,
                                   SelectionMethod method,
                                   const FeatureScoringConfig& config,
                                   std::size_t first_column) {
  const std::size_t f = train.n_cols();
  std::vector<double> scores(f, 0.0);
  switch (method) {
    case SelectionMethod::kTopNAp:
    case SelectionMethod::kAuc:
    case SelectionMethod::kAveragePrecision: {
      if (test.n_cols() != f) {
        throw std::invalid_argument("score_features: train/test mismatch");
      }
      // Held-out labels gathered once, shared read-only by all columns.
      std::vector<std::uint8_t> test_label_storage;
      const std::span<const std::uint8_t> test_labels =
          test.labels(test_label_storage);
      // Every column trains its own single-feature predictor — the
      // dominant cost of selection — into its own output slot. Auto-grain
      // chunks of a few columns share one set of buffers, which live
      // only as long as the chunk.
      config.exec.parallel_for(
          first_column, f, 0, [&](std::size_t b, std::size_t e) {
            WrapperScratch scratch;
            for (std::size_t j = b; j < e; ++j) {
              scores[j] = wrapper_score(train, test, test_labels, j, method,
                                        config, scratch);
            }
          });
      return scores;
    }
    case SelectionMethod::kPca: {
      const PcaResult pca = fit_pca(train, config.pca_max_rows);
      return pca_feature_scores(pca, config.pca_components);
    }
    case SelectionMethod::kGainRatio: {
      std::vector<std::uint8_t> train_label_storage;
      const std::span<const std::uint8_t> train_labels =
          train.labels(train_label_storage);
      config.exec.parallel_for(0, f, 0, [&](std::size_t b, std::size_t e) {
        for (std::size_t j = b; j < e; ++j) {
          scores[j] = gain_ratio(train.column(j), train_labels,
                                 config.gain_bins)
                          .gain_ratio;
        }
      });
      return scores;
    }
  }
  return scores;
}

std::vector<std::size_t> select_top_k(std::span<const double> scores,
                                      std::size_t k) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  order.resize(std::min(k, order.size()));
  return order;
}

std::vector<std::size_t> select_above_threshold(std::span<const double> scores,
                                                double threshold) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < scores.size(); ++j) {
    if (scores[j] > threshold) out.push_back(j);
  }
  return out;
}

}  // namespace nevermind::ml
