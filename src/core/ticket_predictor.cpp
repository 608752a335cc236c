#include "core/ticket_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "ml/cross_validation.hpp"
#include "ml/metrics.hpp"

namespace nevermind::core {

namespace {

/// Row indices of a block whose week lies in [from, to].
std::vector<std::size_t> rows_in_weeks(const features::EncodedBlock& block,
                                       int from, int to) {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < block.week_of_row.size(); ++r) {
    if (block.week_of_row[r] >= from && block.week_of_row[r] <= to) {
      rows.push_back(r);
    }
  }
  return rows;
}

/// Validation weeks held out of the selection/training split.
int validation_weeks(int n_weeks, double fraction) {
  return std::clamp(static_cast<int>(std::lround(n_weeks * fraction)), 1,
                    std::max(1, n_weeks - 1));
}

/// Stage-1 base-feature selection from the per-feature scores.
std::vector<std::size_t> select_base(const PredictorConfig& config,
                                     const std::vector<double>& scores) {
  if (config.selection == ml::SelectionMethod::kTopNAp) {
    auto selected =
        ml::select_above_threshold(scores, config.history_threshold);
    if (selected.empty()) selected = ml::select_top_k(scores, 10);
    return selected;
  }
  return ml::select_top_k(scores, config.max_selected_features);
}

/// Product pairs implied by stage-1 scores: all pairs over the
/// `product_pool` strongest base features.
std::vector<std::pair<std::size_t, std::size_t>> pairs_from_scores(
    const PredictorConfig& config, const std::vector<double>& base_scores) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  const auto pool = ml::select_top_k(
      base_scores, std::min(config.product_pool, base_scores.size()));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i + 1; j < pool.size(); ++j) {
      pairs.emplace_back(pool[i], pool[j]);
    }
  }
  return pairs;
}

/// Scoring knobs of the per-feature selection predictors.
ml::FeatureScoringConfig selection_scoring(const PredictorConfig& config,
                                           int n_val) {
  ml::FeatureScoringConfig scoring;
  scoring.boost_iterations = config.selection_boost_iterations;
  scoring.top_n = config.top_n * static_cast<std::size_t>(n_val);
  scoring.exec = config.exec;
  return scoring;
}

/// Stage 1: per-feature scores of the columns of `base_view` (a column
/// view of `block`), trained on the selection weeks and scored on the
/// validation weeks.
std::vector<double> score_stage1(const PredictorConfig& config,
                                 const features::EncodedBlock& block,
                                 const ml::DatasetView& base_view,
                                 int train_from, int train_to, int n_val) {
  const int sel_train_to = train_to - n_val;  // may equal train_from
  const ml::DatasetView sel_train =
      base_view.rows(rows_in_weeks(block, train_from, sel_train_to));
  const ml::DatasetView sel_val =
      base_view.rows(rows_in_weeks(block, sel_train_to + 1, train_to));
  return ml::score_features(sel_train, sel_val, config.selection,
                            selection_scoring(config, n_val));
}

/// Word-wise 64-bit hash of a byte range, chained from `seed`.
std::uint64_t hash_bytes(const void* data, std::size_t n,
                         std::uint64_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed ^ (n * 0x9E3779B97F4A7C15ULL);
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    mix(word);
  }
  if (i < n) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, n - i);
    mix(word);
  }
  return h;
}

/// Fingerprint of everything stage-1 scores depend on besides the
/// predictor's own configuration: the first `n_base` columns, the week
/// of every row and the labels. Columns hash in parallel into their own
/// slots, then combine in column order.
std::uint64_t stage1_fingerprint(const features::EncodedBlock& block,
                                 std::size_t n_base,
                                 const exec::ExecContext& exec) {
  const ml::FeatureArena& arena = block.dataset;
  std::vector<std::uint64_t> parts(n_base + 2);
  exec.parallel_for(0, n_base, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t j = b; j < e; ++j) {
      const auto col = arena.column(j);
      parts[j] = hash_bytes(col.data(), col.size_bytes(), j);
    }
  });
  parts[n_base] = hash_bytes(block.week_of_row.data(),
                             block.week_of_row.size() * sizeof(int), n_base);
  const auto labels = arena.labels();
  parts[n_base + 1] = hash_bytes(labels.data(), labels.size(), n_base + 1);
  return hash_bytes(parts.data(), parts.size() * sizeof(std::uint64_t),
                    arena.n_rows());
}

/// True when the non-derived encoder fields agree — the precondition
/// for training this predictor off an externally encoded block.
bool same_base_layout(const features::EncoderConfig& a,
                      const features::EncoderConfig& b) {
  return a.include_basic == b.include_basic &&
         a.include_delta == b.include_delta &&
         a.include_timeseries == b.include_timeseries &&
         a.include_customer == b.include_customer &&
         a.min_history_weeks == b.min_history_weeks &&
         a.no_ticket_days == b.no_ticket_days;
}

}  // namespace

TicketPredictor::TicketPredictor(PredictorConfig config)
    : config_(std::move(config)) {}

TicketPredictor::TicketPredictor(PredictorConfig config, ScoringKernel kernel)
    : config_(std::move(config)), kernel_(std::move(kernel)) {}

void TicketPredictor::train(const dslsim::SimDataset& data, int train_from,
                            int train_to) {
  if (train_to < train_from) {
    throw std::invalid_argument("TicketPredictor::train: empty week range");
  }
  const int n_weeks = train_to - train_from + 1;
  const int n_val = validation_weeks(n_weeks, config_.validation_fraction);

  const features::TicketLabeler labeler{config_.horizon_days};

  // ---- stage 1: score base features on the validation split ----------
  features::EncoderConfig base_cfg = config_.encoder;
  base_cfg.include_quadratic = false;
  base_cfg.product_pairs.clear();

  features::EncodedBlock base_block =
      features::encode_weeks(data, train_from, train_to, base_cfg, labeler,
                             config_.exec);
  const std::vector<double> base_scores =
      score_stage1(config_, base_block, ml::DatasetView(base_block.dataset),
                   train_from, train_to, n_val);

  // Base features above the history/customer threshold. Baseline
  // methods (Fig 6) have no comparable absolute threshold; they take
  // the top-k directly.
  std::vector<std::size_t> base_selected = select_base(config_, base_scores);

  kernel_.encoder = base_cfg;
  if (config_.use_derived_features) {
    kernel_.encoder.include_quadratic = true;
    kernel_.encoder.product_pairs = pairs_from_scores(config_, base_scores);
    // One full encode shared by stage-2 derived scoring and the stage-3
    // final ensemble (formerly two identical encodes).
    const features::EncodedBlock full_block = features::encode_weeks(
        data, train_from, train_to, kernel_.encoder, labeler, config_.exec);
    finish_train(full_block, base_scores, std::move(base_selected), train_from,
                 train_to, n_val);
  } else {
    // No derived features: the base block already is the full block.
    finish_train(base_block, base_scores, std::move(base_selected), train_from,
                 train_to, n_val);
  }
}

void TicketPredictor::train_from_block(
    const features::EncodedBlock& block,
    const features::EncoderConfig& full_encoder) {
  const std::size_t n_rows = block.dataset.n_rows();
  if (n_rows == 0 || block.week_of_row.size() != n_rows) {
    throw std::invalid_argument(
        "TicketPredictor::train_from_block: empty or inconsistent block");
  }
  if (block.dataset.n_cols() != features::all_columns(full_encoder).size()) {
    throw std::invalid_argument(
        "TicketPredictor::train_from_block: column count disagrees with the "
        "encoder configuration");
  }
  features::EncoderConfig base_cfg = config_.encoder;
  base_cfg.include_quadratic = false;
  base_cfg.product_pairs.clear();
  if (!same_base_layout(base_cfg, full_encoder)) {
    throw std::invalid_argument(
        "TicketPredictor::train_from_block: dataset artefact was encoded "
        "under a different base feature configuration");
  }

  const auto [min_it, max_it] =
      std::minmax_element(block.week_of_row.begin(), block.week_of_row.end());
  const int train_from = *min_it;
  const int train_to = *max_it;
  const int n_val = validation_weeks(train_to - train_from + 1,
                                     config_.validation_fraction);

  // ---- stage 1 on the base-column prefix of the stored matrix --------
  // Base columns are a prefix of the full layout with identical values,
  // and per-feature scoring is column-independent, so these scores
  // equal a fresh base-only encode's bit for bit. When plan_full_encoder
  // already scored the same base matrix, its scores are reused.
  const std::size_t n_base = features::base_columns(base_cfg).size();
  std::vector<double> base_scores;
  if (plan_.has_value() &&
      plan_->fingerprint == stage1_fingerprint(block, n_base, config_.exec)) {
    base_scores = plan_->scores;
  } else {
    std::vector<std::size_t> base_cols(n_base);
    std::iota(base_cols.begin(), base_cols.end(), std::size_t{0});
    base_scores = score_stage1(config_, block,
                               ml::DatasetView(block.dataset).cols(base_cols),
                               train_from, train_to, n_val);
  }
  std::vector<std::size_t> base_selected = select_base(config_, base_scores);

  // Recompute the derived layout stage 1 implies and require the
  // artefact to match — an artefact from a different predictor
  // configuration would otherwise silently train on the wrong columns.
  features::EncoderConfig expected = base_cfg;
  if (config_.use_derived_features) {
    expected.include_quadratic = true;
    expected.product_pairs = pairs_from_scores(config_, base_scores);
  }
  if (expected.include_quadratic != full_encoder.include_quadratic ||
      expected.product_pairs != full_encoder.product_pairs) {
    throw std::invalid_argument(
        "TicketPredictor::train_from_block: dataset artefact's derived "
        "features disagree with this predictor configuration");
  }
  kernel_.encoder = std::move(expected);
  finish_train(block, base_scores, std::move(base_selected), train_from,
               train_to, n_val);
}

features::EncoderConfig TicketPredictor::plan_full_encoder(
    const features::EncodedBlock& base_block) {
  const std::size_t n_rows = base_block.dataset.n_rows();
  if (n_rows == 0 || base_block.week_of_row.size() != n_rows) {
    throw std::invalid_argument(
        "TicketPredictor::plan_full_encoder: empty or inconsistent block");
  }
  features::EncoderConfig base_cfg = config_.encoder;
  base_cfg.include_quadratic = false;
  base_cfg.product_pairs.clear();
  if (base_block.dataset.n_cols() != features::all_columns(base_cfg).size()) {
    throw std::invalid_argument(
        "TicketPredictor::plan_full_encoder: block is not a base-only "
        "encode of this predictor's feature configuration");
  }

  const auto [min_it, max_it] = std::minmax_element(
      base_block.week_of_row.begin(), base_block.week_of_row.end());
  const int train_from = *min_it;
  const int train_to = *max_it;
  const int n_val = validation_weeks(train_to - train_from + 1,
                                     config_.validation_fraction);
  std::vector<double> base_scores =
      score_stage1(config_, base_block, ml::DatasetView(base_block.dataset),
                   train_from, train_to, n_val);

  features::EncoderConfig full = base_cfg;
  if (config_.use_derived_features) {
    full.include_quadratic = true;
    full.product_pairs = pairs_from_scores(config_, base_scores);
  }
  plan_ = StageOnePlan{
      stage1_fingerprint(base_block, base_block.dataset.n_cols(),
                         config_.exec),
      std::move(base_scores)};
  return full;
}

void TicketPredictor::finish_train(const features::EncodedBlock& full_block,
                                   const std::vector<double>& base_scores,
                                   std::vector<std::size_t> base_selected,
                                   int train_from, int train_to, int n_val) {
  const int sel_train_to = train_to - n_val;

  const ml::FeatureScoringConfig scoring = selection_scoring(config_, n_val);

  const auto ftrain = rows_in_weeks(full_block, train_from, sel_train_to);
  const auto fval = rows_in_weeks(full_block, sel_train_to + 1, train_to);
  const ml::DatasetView full_view(full_block.dataset);

  // ---- stage 2: derived features over the strongest base features ----
  std::vector<double> full_scores = base_scores;
  if (config_.use_derived_features) {
    const ml::DatasetView dsel_train = full_view.rows(ftrain);
    const ml::DatasetView dsel_val = full_view.rows(fval);

    const std::size_t n_base = base_scores.size();
    const std::size_t n_all = full_block.dataset.n_cols();
    full_scores.resize(n_all, 0.0);
    const std::vector<double> all_scores = ml::score_features(
        dsel_train, dsel_val, config_.selection, scoring,
        config_.selection == ml::SelectionMethod::kTopNAp ? n_base : 0);
    for (std::size_t j = n_base; j < n_all; ++j) full_scores[j] = all_scores[j];

    const std::size_t n_quadratic = n_base;  // one square per base column
    kernel_.selected = std::move(base_selected);
    if (config_.selection == ml::SelectionMethod::kTopNAp) {
      for (std::size_t j = n_base; j < n_base + n_quadratic && j < n_all; ++j) {
        if (full_scores[j] > config_.quadratic_threshold) kernel_.selected.push_back(j);
      }
      // A product earns a slot only when it clearly beats BOTH of its
      // factors (the paper's rationale for the stricter threshold):
      // otherwise it is a redundant echo of a strong base feature.
      for (std::size_t j = n_base + n_quadratic; j < n_all; ++j) {
        const auto& pair =
            kernel_.encoder.product_pairs[j - n_base - n_quadratic];
        const double factor_best =
            std::max(base_scores[pair.first], base_scores[pair.second]);
        if (full_scores[j] > config_.product_threshold &&
            full_scores[j] > 1.2 * factor_best) {
          kernel_.selected.push_back(j);
        }
      }
    } else {
      for (std::size_t j = n_base; j < n_all; ++j) {
        if (all_scores[j] > 0.0) kernel_.selected.push_back(j);
      }
    }
  } else {
    kernel_.selected = std::move(base_selected);
  }

  // Cap the feature count, keeping the strongest.
  if (kernel_.selected.size() > config_.max_selected_features) {
    std::stable_sort(kernel_.selected.begin(), kernel_.selected.end(),
                     [&](std::size_t a, std::size_t b) {
                       return full_scores[a] > full_scores[b];
                     });
    kernel_.selected.resize(config_.max_selected_features);
    std::sort(kernel_.selected.begin(), kernel_.selected.end());
  }

  // ---- stage 3: final ensemble on the selected columns ----------------
  const ml::DatasetView final_train =
      full_view.rows(ftrain).cols(kernel_.selected);
  const ml::DatasetView final_val = full_view.rows(fval).cols(kernel_.selected);

  kernel_.columns = final_train.columns_copy();

  ml::BStumpConfig boost;
  boost.iterations = config_.boost_iterations;
  boost.binning = config_.binning;
  boost.exec = config_.exec;
  if (config_.tune_boost_iterations) {
    const std::size_t base = std::max<std::size_t>(config_.boost_iterations, 4);
    const std::size_t candidates[] = {base / 4, base / 2, base, base * 2};
    const auto tuned = ml::select_boosting_rounds(
        final_train, candidates,
        config_.top_n * static_cast<std::size_t>(n_val), 3, config_.exec,
        boost);
    if (tuned.best_rounds > 0) boost.iterations = tuned.best_rounds;
  }
  kernel_.model = ml::train_bstump(final_train, boost);

  // Calibrate on the held-out split so probabilities are honest.
  const std::vector<double> val_scores =
      kernel_.model.score_dataset(final_val, config_.exec);
  std::vector<std::uint8_t> val_label_storage;
  kernel_.calibrator =
      ml::fit_platt(val_scores, final_val.labels(val_label_storage));
}

std::vector<double> TicketPredictor::score_block(
    const features::EncodedBlock& block) const {
  if (kernel_.model.empty()) {
    throw std::logic_error("TicketPredictor: predict before train");
  }
  return kernel_.score_block(block, config_.exec);
}

std::vector<Prediction> TicketPredictor::predict_week(
    const dslsim::SimDataset& data, int week) const {
  const features::TicketLabeler labeler{config_.horizon_days};
  const features::EncodedBlock block = features::encode_weeks(
      data, week, week, kernel_.encoder, labeler, config_.exec);
  const std::vector<double> scores = score_block(block);

  std::vector<Prediction> out(scores.size());
  config_.exec.parallel_for(
      0, scores.size(), 0, [&](std::size_t b, std::size_t e) {
        for (std::size_t r = b; r < e; ++r) {
          out[r].line = block.line_of_row[r];
          out[r].score = scores[r];
          out[r].probability = kernel_.calibrator.probability(scores[r]);
        }
      });
  // Chunk-sorted then stably merged in chunk order — the unique stable
  // order, so the weekly ranking is byte-identical at any thread count.
  config_.exec.parallel_stable_sort(out.begin(), out.end(),
                                    [](const Prediction& a,
                                       const Prediction& b) {
                                      return a.score > b.score;
                                    });
  return out;
}

}  // namespace nevermind::core
