// BStump: confidence-rated AdaBoost over decision stumps, the paper's
// model of choice (Section 4.4; it cites Boostexter [16] as the
// implementation). The ensemble is a *linear* model over stump
// indicators, which is what makes it robust to the label noise inherent
// in using customer tickets as ground truth.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "ml/binning.hpp"
#include "ml/dataset.hpp"
#include "ml/stump.hpp"

namespace nevermind::ml {

/// Which per-round split search train_bstump runs.
enum class BinningMode : std::uint8_t {
  /// Full sorted-index scan per feature — the original path, kept the
  /// default and byte-identical to the pre-binning implementation.
  kExact = 0,
  /// Quantized columns + per-feature weight histograms: O(N) sequential
  /// adds over uint8 bin codes and a <=256-bin threshold scan per
  /// feature per round. Identical split candidates whenever a column
  /// has fewer distinct values than bins; otherwise quantile-binned.
  kHistogram,
};

struct BStumpConfig {
  /// Number of boosting rounds T (the paper uses 800 for the ticket
  /// predictor and 200 for the locator, both by cross-validation).
  std::size_t iterations = 200;
  /// Epsilon in the confidence-rated score 0.5 ln((W+ + eps)/(W- + eps)).
  /// Non-positive means "auto": 0.5 / n_rows, Boostexter's default scale.
  double smoothing = -1.0;
  /// Stop early if the best weak learner's Z exceeds this (no learner
  /// better than chance). 1.0 disables nothing since Z <= 1 for a
  /// useful stump on normalized weights.
  double z_stop = 0.999999;
  /// Split-search path; see BinningMode.
  BinningMode binning = BinningMode::kExact;
  /// Quantization knobs of the histogram path.
  BinningConfig binning_config;
  /// Execution context for column indexing and the per-round stump
  /// search. The ensemble is byte-identical at every thread count; the
  /// default serial context is the exact pre-exec-layer path.
  exec::ExecContext exec;
};

/// Immutable per-matrix training caches, built once and shared across
/// boosting rounds, CV folds and one-vs-rest tasks. Only the member
/// matching the config's binning mode is populated.
struct TrainCache {
  std::shared_ptr<const SortedColumns> sorted;   // exact path
  std::shared_ptr<const BinnedColumns> binned;   // histogram path
};

/// Builds the cache train_bstump would otherwise construct per call.
[[nodiscard]] TrainCache make_train_cache(const DatasetView& data,
                                          const BStumpConfig& config);

/// Trained ensemble: f(x) = sum_t g_t(x). Higher scores mean "more
/// likely positive" (a future ticket / the disposition in question).
class BStumpModel {
 public:
  BStumpModel() = default;
  explicit BStumpModel(std::vector<Stump> stumps);

  [[nodiscard]] double score_row(const DatasetView& data, std::size_t row) const;
  [[nodiscard]] double score_features(std::span<const float> features) const;
  /// Column-oriented scoring of a whole dataset; much faster than
  /// per-row loops for large datasets. Rows are independent, so a
  /// parallel context chunks them; every chunk walks the stumps in
  /// order, keeping per-row accumulation byte-identical to serial.
  [[nodiscard]] std::vector<double> score_dataset(
      const DatasetView& data,
      const exec::ExecContext& exec = exec::ExecContext::serial()) const;

  [[nodiscard]] const std::vector<Stump>& stumps() const noexcept {
    return stumps_;
  }
  [[nodiscard]] bool empty() const noexcept { return stumps_.empty(); }

  /// Sum of |score contributions| a feature can make — a crude but
  /// useful feature-importance measure for explaining a model (Fig 9).
  [[nodiscard]] std::vector<double> feature_influence(
      std::size_t n_features) const;

 private:
  std::vector<Stump> stumps_;
};

struct TrainDiagnostics {
  /// Z_t per boosting round; prod(Z_t) bounds training error.
  std::vector<double> z_per_round;
  /// Training error of the thresholded ensemble after the last round.
  double final_training_error = 0.0;
};

/// Train BStump on `data`. Optional per-example starting weights (e.g.
/// class re-balancing); defaults to uniform. `diagnostics` may be null.
[[nodiscard]] BStumpModel train_bstump(const DatasetView& data,
                                       const BStumpConfig& config,
                                       TrainDiagnostics* diagnostics = nullptr,
                                       std::span<const double> initial_weights = {});

/// Train a single-feature BStump (used by per-feature selection scores:
/// the paper builds "a ticket predictor given each individual feature").
/// Exact-path only, byte-identical to train_bstump on a one-column view.
[[nodiscard]] BStumpModel train_bstump_single_feature(
    const DatasetView& data, std::size_t feature, const BStumpConfig& config);

/// train_bstump_single_feature for callers that train many in a row
/// (feature selection trains one per column): the booster keeps its
/// buffers between calls. Not thread-safe; give each task its own.
class SingleFeatureBooster {
 public:
  SingleFeatureBooster();
  ~SingleFeatureBooster();
  SingleFeatureBooster(const SingleFeatureBooster&) = delete;
  SingleFeatureBooster& operator=(const SingleFeatureBooster&) = delete;

  [[nodiscard]] BStumpModel train(const DatasetView& data, std::size_t feature,
                                  const BStumpConfig& config);

 private:
  struct Buffers;
  std::unique_ptr<Buffers> buffers_;
};

/// Train against a shared immutable matrix with externally supplied
/// labels — no dataset copies. `cache` comes from make_train_cache on
/// the same view. `rows` (histogram path only) restricts training to
/// a row subset, which is how CV folds share one set of bin codes; the
/// exact path requires `rows` to be empty. Labels are indexed by view
/// row.
[[nodiscard]] BStumpModel train_bstump_cached(
    const DatasetView& data, const TrainCache& cache,
    std::span<const std::uint8_t> labels, std::span<const std::uint32_t> rows,
    const BStumpConfig& config, TrainDiagnostics* diagnostics = nullptr,
    std::span<const double> initial_weights = {});

}  // namespace nevermind::ml
