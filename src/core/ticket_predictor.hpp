// The ticket predictor (paper Section 4): ranks every DSL line by the
// probability that its customer opens a trouble ticket within T = 4
// weeks, so the top-N can be submitted to ATDS and fixed proactively.
//
// Pipeline: encode Table-3 features -> top-N-AP feature selection
// (thresholds read off the Fig-4 bimodal histograms, with a stricter
// bar for product features) -> BStump ensemble -> Platt calibration ->
// weekly ranking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/scoring_kernel.hpp"
#include "dslsim/simulator.hpp"
#include "exec/exec.hpp"
#include "features/encoder.hpp"
#include "ml/adaboost.hpp"
#include "ml/calibration.hpp"
#include "ml/feature_selection.hpp"

namespace nevermind::core {

struct PredictorConfig {
  /// Base feature families (derived features are controlled below).
  features::EncoderConfig encoder;
  /// Add quadratic and product derived features (Fig 7's "all selected
  /// features" curve vs the dotted history+customer curve).
  bool use_derived_features = true;
  /// Boosting rounds of the final ensemble (paper: 800).
  std::size_t boost_iterations = 300;
  /// When true, pick the boosting rounds by cross-validation on the
  /// training split (the paper's procedure: "the number of iterations
  /// is set to 800 based on cross-validation"), choosing among
  /// {1/4, 1/2, 1, 2} x boost_iterations.
  bool tune_boost_iterations = false;
  /// Boosting rounds of the per-feature selection predictors.
  std::size_t selection_boost_iterations = 12;
  /// Weekly prediction budget N — ATDS capacity (paper: 20,000 of
  /// millions of lines; keep the same ~1% ratio at simulation scale).
  std::size_t top_n = 200;
  /// Feature-selection criterion (Fig 6 swaps this out).
  ml::SelectionMethod selection = ml::SelectionMethod::kTopNAp;
  /// AP thresholds read off the bimodal histograms of Fig 4. The paper
  /// uses 0.2 / 0.2 / 0.3 on its data; our simulated AP(N) scale is
  /// compressed (~2.5x), so the defaults sit at the same bimodal gap of
  /// our histograms (see bench_fig4_feature_ap). The product threshold
  /// stays well above the base one for the paper's reason: a product
  /// must beat both of its factors to earn a slot.
  double history_threshold = 0.05;
  double quadratic_threshold = 0.055;
  double product_threshold = 0.15;
  /// Product features pair the strongest `product_pool` base features.
  std::size_t product_pool = 28;
  /// Hard cap on the selected feature count (a scalability guard; the
  /// Fig 6 baseline comparison fixes 50 separately).
  std::size_t max_selected_features = 100;
  /// Prediction horizon T (paper: 4 weeks).
  int horizon_days = 28;
  /// Split-search path of the final ensemble (and of the CV rounds
  /// tuning, which then bins once and folds by row subset). kExact is
  /// the default and byte-identical to the pre-binning pipeline.
  ml::BinningMode binning = ml::BinningMode::kExact;
  /// Fraction of training weeks reserved as the selection/calibration
  /// validation split.
  double validation_fraction = 0.3;
  /// Execution context for training (per-feature selection, boosting)
  /// and weekly scoring/ranking. Predictions and models are
  /// byte-identical at every thread count; the default serial context
  /// is the exact single-threaded path.
  exec::ExecContext exec;
};

struct Prediction {
  dslsim::LineId line = 0;
  double score = 0.0;        // raw BStump margin
  double probability = 0.0;  // calibrated P(Tkt(u) | x)
};

class TicketPredictor {
 public:
  explicit TicketPredictor(PredictorConfig config);

  /// Wrap an already-trained kernel (e.g. loaded from a saved model
  /// artefact) — predict_week/score_block work immediately, no train().
  TicketPredictor(PredictorConfig config, ScoringKernel kernel);

  /// Train on measurement weeks [train_from, train_to] (inclusive).
  /// The last `validation_fraction` of those weeks drive feature
  /// selection scoring and Platt calibration.
  void train(const dslsim::SimDataset& data, int train_from, int train_to);

  /// Train from a pre-encoded full-featured block — a persisted dataset
  /// artefact loaded eagerly or mmap'ed (see features/dataset_io.hpp) —
  /// without touching the simulator. `full_encoder` must be the
  /// configuration the block was encoded with (the artefact records
  /// it); the training week range is taken from block.week_of_row.
  ///
  /// Produces a kernel byte-identical to train() over the same weeks:
  /// stage-1 selection runs on the base-column prefix of the stored
  /// matrix (per-feature scoring is column-independent, so prefix views
  /// equal a fresh base-only encode), and the derived layout stage 1
  /// implies is recomputed and checked against `full_encoder` — a
  /// mismatch (artefact from a different predictor configuration)
  /// throws std::invalid_argument rather than training on the wrong
  /// columns.
  void train_from_block(const features::EncodedBlock& block,
                        const features::EncoderConfig& full_encoder);

  /// Stage-1 planning for externally encoded pipelines: run base
  /// feature selection over `base_block` (which must be encoded under
  /// this predictor's encoder with derived features disabled — the
  /// training week range is taken from block.week_of_row) and return
  /// the full encoder configuration train() would derive from it. A
  /// streamed pipeline encodes its training artefact with this
  /// configuration and train_from_block then accepts it; because the
  /// scoring is column-independent, the plan equals what
  /// train_from_block recomputes from the full matrix's base prefix,
  /// bit for bit. The plan keeps its stage-1 scores with a fingerprint
  /// of the base matrix (values, weeks, labels); train_from_block reuses
  /// them when the full matrix's base prefix has the same fingerprint
  /// and re-scores otherwise. Throws std::invalid_argument on an empty
  /// block or a column layout that is not this predictor's base layout.
  [[nodiscard]] features::EncoderConfig plan_full_encoder(
      const features::EncodedBlock& base_block);

  /// Rank all lines at the given test week, best first.
  [[nodiscard]] std::vector<Prediction> predict_week(
      const dslsim::SimDataset& data, int week) const;

  /// Scores for an externally encoded block (columns must match the
  /// encoder config returned by full_encoder_config()).
  [[nodiscard]] std::vector<double> score_block(
      const features::EncodedBlock& block) const;

  /// The deployable scoring artefact: encoder layout, selected columns,
  /// ensemble, calibrator. Serve-side model registries publish this.
  [[nodiscard]] const ScoringKernel& kernel() const { return kernel_; }

  /// Encoder configuration including the derived features the model
  /// was trained with; benches encode test blocks with this.
  [[nodiscard]] const features::EncoderConfig& full_encoder_config() const {
    return kernel_.encoder;
  }
  [[nodiscard]] const std::vector<std::size_t>& selected_features() const {
    return kernel_.selected;
  }
  [[nodiscard]] const std::vector<ml::ColumnInfo>& selected_columns() const {
    return kernel_.columns;
  }
  [[nodiscard]] const ml::BStumpModel& model() const { return kernel_.model; }
  [[nodiscard]] bool trained() const { return kernel_.trained(); }
  [[nodiscard]] const PredictorConfig& config() const { return config_; }

 private:
  /// Stages 2+3 over one full-featured block shared by the derived-
  /// feature scoring and the final ensemble: derived selection, column
  /// cap, BStump training and Platt calibration.
  void finish_train(const features::EncodedBlock& full_block,
                    const std::vector<double>& base_scores,
                    std::vector<std::size_t> base_selected, int train_from,
                    int train_to, int n_val);

  /// Stage-1 scores of the last plan_full_encoder call and the
  /// fingerprint of the base matrix they were computed on.
  struct StageOnePlan {
    std::uint64_t fingerprint = 0;
    std::vector<double> scores;
  };

  PredictorConfig config_;
  ScoringKernel kernel_;
  std::optional<StageOnePlan> plan_;
};

}  // namespace nevermind::core
