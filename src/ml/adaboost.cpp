#include "ml/adaboost.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ml/aligned.hpp"
#include "ml/stump_math.hpp"

namespace nevermind::ml {

using detail::block_score;
using detail::block_z;
using detail::WeightPair;

BStumpModel::BStumpModel(std::vector<Stump> stumps)
    : stumps_(std::move(stumps)) {}

double BStumpModel::score_row(const DatasetView& data, std::size_t row) const {
  double s = 0.0;
  for (const auto& stump : stumps_) {
    s += stump.evaluate(data.value(row, stump.feature));
  }
  return s;
}

double BStumpModel::score_features(std::span<const float> features) const {
  double s = 0.0;
  for (const auto& stump : stumps_) {
    s += stump.evaluate(features[stump.feature]);
  }
  return s;
}

std::vector<double> BStumpModel::score_dataset(
    const DatasetView& data, const exec::ExecContext& exec) const {
  std::vector<double> scores(data.n_rows(), 0.0);
  // Chunk across rows, not stumps: each row's accumulator is touched by
  // exactly one chunk and adds stump contributions in stump order, so
  // the floating-point result matches serial exactly.
  exec.parallel_for(0, data.n_rows(), 0, [&](std::size_t b, std::size_t e) {
    for (const auto& stump : stumps_) {
      const auto col = data.column(stump.feature);
      for (std::size_t r = b; r < e; ++r) {
        scores[r] += stump.evaluate(col[r]);
      }
    }
  });
  return scores;
}

std::vector<double> BStumpModel::feature_influence(
    std::size_t n_features) const {
  std::vector<double> influence(n_features, 0.0);
  for (const auto& stump : stumps_) {
    if (stump.feature >= n_features) continue;
    influence[stump.feature] +=
        std::fabs(stump.score_pass - stump.score_fail);
  }
  return influence;
}

TrainCache make_train_cache(const DatasetView& data, const BStumpConfig& config) {
  TrainCache cache;
  if (config.binning == BinningMode::kHistogram) {
    cache.binned = std::make_shared<const BinnedColumns>(
        data, config.binning_config, std::span<const std::size_t>{},
        config.exec);
  } else {
    cache.sorted = std::make_shared<const SortedColumns>(
        data, std::span<const std::size_t>{}, config.exec);
  }
  return cache;
}

namespace {

/// Normalized starting weights (uniform, or the caller's re-balancing
/// weights), shared by both training paths.
std::vector<double> starting_weights(std::size_t n,
                                     std::span<const double> initial_weights) {
  if (!initial_weights.empty() && initial_weights.size() != n) {
    throw std::invalid_argument("train_bstump: weight size mismatch");
  }
  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  if (!initial_weights.empty()) {
    double total = 0.0;
    for (double w : initial_weights) total += std::max(w, 0.0);
    if (total <= 0.0) throw std::invalid_argument("train_bstump: zero weights");
    for (std::size_t i = 0; i < n; ++i) {
      weights[i] = std::max(initial_weights[i], 0.0) / total;
    }
  }
  return weights;
}

void finish_diagnostics(TrainDiagnostics* diagnostics,
                        std::span<const double> margins) {
  if (diagnostics == nullptr) return;
  std::size_t errors = 0;
  for (double m : margins) {
    if (m <= 0.0) ++errors;
  }
  diagnostics->final_training_error =
      static_cast<double>(errors) /
      static_cast<double>(std::max<std::size_t>(margins.size(), 1));
}

/// exp(-y h) for a stump's three branches and both labels, computed
/// once per round instead of once per row. Each entry is the double the
/// per-row std::exp(-y * h) call returns, so reweighting through the
/// table is byte-identical to it.
class ReweightFactors {
 public:
  enum Branch : std::uint8_t { kFail = 0, kPass = 1, kMissing = 2 };

  explicit ReweightFactors(const Stump& stump)
      : h_{stump.score_fail, stump.score_pass, stump.score_missing} {
    for (int label = 0; label < 2; ++label) {
      const double y = label != 0 ? 1.0 : -1.0;
      for (int b = 0; b < 3; ++b) factor_[label][b] = std::exp(-y * h_[b]);
    }
  }
  [[nodiscard]] double operator()(std::uint8_t label, Branch b) const noexcept {
    return factor_[label != 0 ? 1 : 0][b];
  }
  /// y h, the row's margin contribution (for the diagnostics).
  [[nodiscard]] double margin(std::uint8_t label, Branch b) const noexcept {
    return (label != 0 ? 1.0 : -1.0) * h_[b];
  }

  /// The branch Stump::evaluate takes for `value`.
  [[nodiscard]] static Branch branch(const Stump& stump, float value) noexcept {
    if (is_missing(value)) return kMissing;
    const bool pass = stump.categorical ? value == stump.threshold
                                        : value >= stump.threshold;
    return pass ? kPass : kFail;
  }

 private:
  double h_[3];
  double factor_[2][3];
};

BStumpModel train_exact(const DatasetView& data,
                        std::span<const std::uint8_t> labels,
                        const SortedColumns& sorted,
                        const BStumpConfig& config,
                        TrainDiagnostics* diagnostics,
                        std::span<const double> initial_weights) {
  const std::size_t n = data.n_rows();
  if (n == 0) return BStumpModel{};
  const double smoothing =
      config.smoothing > 0.0 ? config.smoothing : 0.5 / static_cast<double>(n);
  std::vector<double> weights = starting_weights(n, initial_weights);

  std::vector<Stump> stumps;
  stumps.reserve(config.iterations);
  std::vector<double> margins(diagnostics != nullptr ? n : 0, 0.0);  // y f(x)

  for (std::size_t t = 0; t < config.iterations; ++t) {
    const StumpSearchResult best = find_best_stump(
        data, sorted, labels, weights, smoothing, config.exec);
    if (!std::isfinite(best.z) || best.z > config.z_stop) break;
    if (diagnostics != nullptr) diagnostics->z_per_round.push_back(best.z);
    stumps.push_back(best.stump);

    // Reweight: w_i <- w_i * exp(-y_i h_t(x_i)), then normalize.
    const ReweightFactors factors(best.stump);
    const auto col = data.column(best.stump.feature);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto b = ReweightFactors::branch(best.stump, col[i]);
      if (!margins.empty()) margins[i] += factors.margin(labels[i], b);
      weights[i] *= factors(labels[i], b);
      total += weights[i];
    }
    if (total <= 0.0) break;
    const double inv = 1.0 / total;
    for (auto& w : weights) w *= inv;
  }

  finish_diagnostics(diagnostics, margins);
  return BStumpModel{std::move(stumps)};
}

BStumpModel train_binned(const BinnedColumns& bins,
                         std::span<const std::uint8_t> labels,
                         std::span<const std::uint32_t> rows,
                         const BStumpConfig& config,
                         TrainDiagnostics* diagnostics,
                         std::span<const double> initial_weights) {
  const std::size_t n = rows.empty() ? bins.n_rows() : rows.size();
  if (n == 0) return BStumpModel{};
  const double smoothing =
      config.smoothing > 0.0 ? config.smoothing : 0.5 / static_cast<double>(n);
  std::vector<double> weights = starting_weights(n, initial_weights);

  std::vector<Stump> stumps;
  stumps.reserve(config.iterations);
  std::vector<double> margins(diagnostics != nullptr ? n : 0, 0.0);  // y f(x)

  for (std::size_t t = 0; t < config.iterations; ++t) {
    const BinnedStumpResult best = find_best_stump_binned(
        bins, labels, weights, rows, smoothing, config.exec);
    if (!std::isfinite(best.z) || best.z > config.z_stop) break;
    if (diagnostics != nullptr) diagnostics->z_per_round.push_back(best.z);
    stumps.push_back(best.stump);

    // Reweight straight from the bin codes — the code comparison is the
    // stump's predicate, so the branch matches Stump::evaluate on raw
    // values.
    const ReweightFactors factors(best.stump);
    const auto& col = bins.column(best.stump.feature);
    const std::uint8_t missing = col.missing_code();
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r =
          rows.empty() ? static_cast<std::uint32_t>(i) : rows[i];
      const std::uint8_t code = col.codes[r];
      ReweightFactors::Branch b;
      if (code == missing) {
        b = ReweightFactors::kMissing;
      } else if (col.categorical ? static_cast<int>(code) == best.split_bin
                                 : static_cast<int>(code) > best.split_bin) {
        b = ReweightFactors::kPass;
      } else {
        b = ReweightFactors::kFail;
      }
      if (!margins.empty()) margins[i] += factors.margin(labels[r], b);
      weights[i] *= factors(labels[r], b);
      total += weights[i];
    }
    if (total <= 0.0) break;
    const double inv = 1.0 / total;
    for (auto& w : weights) w *= inv;
  }

  finish_diagnostics(diagnostics, margins);
  return BStumpModel{std::move(stumps)};
}

/// Order-preserving key of a present value: ascending keys are ascending
/// floats, with -0.0 folded onto +0.0 so the two zeros tie exactly as
/// they compare.
std::uint32_t order_key(float v) noexcept {
  const auto bits = std::bit_cast<std::uint32_t>(v == 0.0F ? 0.0F : v);
  return (bits & 0x80000000U) != 0 ? ~bits : bits | 0x80000000U;
}

/// Stable LSD radix sort of `keyed` (order key in the high 32 bits, row
/// in the low 32) by key, in 11/11/10-bit digits. A pass whose digit is
/// the same for every key is the identity and is skipped.
void radix_sort_by_key(PageVector<std::uint64_t>& keyed,
                       PageVector<std::uint64_t>& tmp) {
  constexpr unsigned kShift[3] = {32, 43, 54};
  constexpr unsigned kBits[3] = {11, 11, 10};
  const std::size_t n = keyed.size();
  if (n < 2) return;
  std::array<std::array<std::uint32_t, 2048>, 3> count{};
  for (const std::uint64_t k : keyed) {
    for (unsigned d = 0; d < 3; ++d) {
      ++count[d][(k >> kShift[d]) & ((1U << kBits[d]) - 1)];
    }
  }
  tmp.resize(n);
  for (unsigned d = 0; d < 3; ++d) {
    const unsigned shift = kShift[d];
    const std::uint64_t mask = (1U << kBits[d]) - 1;
    auto& slot = count[d];
    if (slot[(keyed[0] >> shift) & mask] == n) continue;
    std::uint32_t start = 0;
    for (std::size_t c = 0; c <= mask; ++c) {
      const std::uint32_t size = slot[c];
      slot[c] = start;
      start += size;
    }
    for (const std::uint64_t k : keyed) tmp[slot[(k >> shift) & mask]++] = k;
    keyed.swap(tmp);
  }
}

/// A range of sorted positions no stump has split yet, and the weight
/// class its rows belong to.
struct Interval {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint32_t cls = 0;
};

/// Outcome of one round's search: the stump's Z and which run it keys
/// on — the last run below the split (continuous) or the tested run
/// (categorical); kNoSplit for the no-split stump.
struct SingleFeatureChoice {
  static constexpr std::size_t kNoSplit = static_cast<std::size_t>(-1);
  double z = std::numeric_limits<double>::infinity();
  std::size_t run = kNoSplit;
  WeightPair block;  // below (continuous) / equal (categorical)
};

/// Best candidate of one round from the run sums, replaying the
/// candidate order and the arithmetic of scan_continuous /
/// scan_categorical.
SingleFeatureChoice best_single_feature_split(std::span<const double> sum_pos,
                                              std::span<const double> sum_neg,
                                              const WeightPair& present,
                                              double z_missing,
                                              bool categorical) {
  SingleFeatureChoice best;
  const auto consider = [&](std::size_t run, const WeightPair& block) {
    const double z = detail::block_z_sum(block, present - block) + z_missing;
    if (z < best.z) best = {z, run, block};
  };
  const std::size_t runs = sum_pos.size();
  if (categorical) {
    for (std::size_t g = 0; g < runs; ++g) {
      consider(g, {sum_pos[g], sum_neg[g]});
    }
  } else {
    // The no-split stump first, then every run boundary ascending.
    consider(SingleFeatureChoice::kNoSplit, WeightPair{});
    for (std::size_t g = 0; g + 1 < runs; ++g) {
      consider(g, {sum_pos[g], sum_neg[g]});
    }
  }
  return best;
}

}  // namespace

struct SingleFeatureBooster::Buffers {
  std::vector<std::uint8_t> labels;
  PageVector<std::uint64_t> keyed, keyed_tmp;  // (order key, row), sorted
  PageVector<std::uint8_t> sorted_labels;
  PageVector<std::uint8_t> run_start;  // 1 where a run of equal values starts
  PageVector<std::uint32_t> run_begin;  // first sorted position of a run
  // Per run: the (pos, neg) sums through it (continuous) or of it alone
  // (categorical).
  PageVector<double> sum_pos, sum_neg;
  PageVector<std::uint32_t> code;  // per row: class * 2 + label
};

SingleFeatureBooster::SingleFeatureBooster()
    : buffers_(std::make_unique<Buffers>()) {}
SingleFeatureBooster::~SingleFeatureBooster() = default;

/// train_exact restricted to one feature with uniform starting weights,
/// byte-identical to it, in O(n) per round with no index chasing.
///
/// The present rows are radix-sorted once into runs of equal values.
/// Every stump on the feature sends a whole run one way, so the runs no
/// stump has split apart form intervals of the sorted order, and all
/// rows of an interval that share a label have taken the same branch of
/// every stump from the same uniform start: their weights are
/// bit-identical. Weights are therefore kept once per (class, label),
/// where a class is an interval or the missing rows. That is also why
/// any order of the rows inside a run gives the same sums, so the radix
/// order may differ from std::sort's inside ties. A round adds the same
/// weights in the same sequence as the per-row scan: in row order for
/// the totals and the reweight sum, in sorted order for the run sums.
BStumpModel SingleFeatureBooster::train(const DatasetView& data,
                                        std::size_t feature,
                                        const BStumpConfig& config) {
  if (feature >= data.n_cols()) {
    throw std::out_of_range("train_bstump_single_feature: bad feature");
  }
  const std::size_t n = data.n_rows();
  if (n == 0) return BStumpModel{};
  Buffers& s = *buffers_;
  const bool categorical = data.column_info(feature).categorical;
  const std::span<const std::uint8_t> labels = data.labels(s.labels);

  // Class 0 holds the missing rows; class 1 starts as every present row.
  const auto col = data.column(feature);
  s.code.resize(n);
  s.keyed.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const float v = col[i];
    const bool present = !is_missing(v);
    s.code[i] = (present ? 2 : 0) + (labels[i] != 0 ? 1 : 0);
    if (present) s.keyed.push_back(std::uint64_t{order_key(v)} << 32 | i);
  }
  radix_sort_by_key(s.keyed, s.keyed_tmp);
  const auto m = static_cast<std::uint32_t>(s.keyed.size());
  const auto row_at = [&s](std::uint32_t k) {
    return static_cast<std::uint32_t>(s.keyed[k]);
  };

  s.sorted_labels.resize(m);
  s.run_start.resize(m);
  s.run_begin.clear();
  for (std::uint32_t k = 0; k < m; ++k) {
    s.sorted_labels[k] = s.code[row_at(k)] & 1;
    const bool start = k == 0 || (s.keyed[k] >> 32) != (s.keyed[k - 1] >> 32);
    s.run_start[k] = start ? 1 : 0;
    if (start) s.run_begin.push_back(k);
  }
  const std::size_t runs = s.run_begin.size();
  s.sum_pos.resize(runs);
  s.sum_neg.resize(runs);
  // The value of a run's first row: a categorical threshold, and the
  // ends a continuous threshold sits between.
  const auto run_value = [&](std::size_t g) {
    return col[row_at(s.run_begin[g])];
  };

  std::vector<Interval> intervals;
  if (m > 0) intervals.push_back({0, m, 1});
  std::vector<double> weight(4, 1.0 / static_cast<double>(n));  // per code
  std::vector<WeightPair> parts;
  std::vector<ReweightFactors::Branch> branch;  // per class
  std::vector<Interval> next;

  const double smoothing =
      config.smoothing > 0.0 ? config.smoothing : 0.5 / static_cast<double>(n);
  std::vector<Stump> stumps;
  stumps.reserve(config.iterations);
  for (std::size_t t = 0; t < config.iterations; ++t) {
    // Row-order totals. A row adds its weight to its label's sum and
    // +0.0 to the other, which leaves that sum's bits unchanged.
    parts.resize(weight.size());
    for (std::size_t c = 0; c < weight.size(); ++c) {
      parts[c] = (c & 1) != 0 ? WeightPair{weight[c], 0.0}
                              : WeightPair{0.0, weight[c]};
    }
    WeightPair total;
    const auto add_row_total = [&](std::size_t i) {
      const WeightPair& p = parts[s.code[i]];
      total.pos += p.pos;
      total.neg += p.neg;
    };

    // Sorted-order run sums. The row-order totals advance one row per
    // sorted position (m <= n) in the same loop: two independent add
    // chains overlap, and each keeps its own order.
    WeightPair present;
    WeightPair own;
    std::size_t g = static_cast<std::size_t>(-1);
    for (const Interval& iv : intervals) {
      const WeightPair& neg = parts[2 * iv.cls];
      const WeightPair& pos = parts[2 * iv.cls + 1];
      for (std::uint32_t k = iv.begin; k < iv.end; ++k) {
        add_row_total(k);
        const WeightPair& p = s.sorted_labels[k] != 0 ? pos : neg;
        present.pos += p.pos;
        present.neg += p.neg;
        g += s.run_start[k];
        if (categorical) {
          if (s.run_start[k] != 0) own = WeightPair{};
          own.pos += p.pos;
          own.neg += p.neg;
          s.sum_pos[g] = own.pos;
          s.sum_neg[g] = own.neg;
        } else {
          s.sum_pos[g] = present.pos;
          s.sum_neg[g] = present.neg;
        }
      }
    }
    for (std::size_t i = m; i < n; ++i) add_row_total(i);

    const WeightPair missing = total - present;
    const SingleFeatureChoice choice = best_single_feature_split(
        s.sum_pos, s.sum_neg, present, block_z(missing), categorical);
    if (!std::isfinite(choice.z) || choice.z > config.z_stop) break;
    const WeightPair rest = present - choice.block;
    Stump stump;
    stump.feature = feature;
    stump.categorical = categorical;
    if (categorical) {
      stump.threshold = run_value(choice.run);
    } else if (choice.run == SingleFeatureChoice::kNoSplit) {
      stump.threshold = -std::numeric_limits<float>::infinity();
    } else {
      stump.threshold = detail::split_midpoint(run_value(choice.run),
                                               run_value(choice.run + 1));
    }
    stump.score_pass = block_score(categorical ? choice.block : rest, smoothing);
    stump.score_fail = block_score(categorical ? rest : choice.block, smoothing);
    stump.score_missing = block_score(missing, smoothing);
    stumps.push_back(stump);

    // Sorted positions [pass_begin, pass_end) take the pass branch.
    std::uint32_t pass_begin = 0;
    std::uint32_t pass_end = m;
    if (choice.run != SingleFeatureChoice::kNoSplit) {
      const std::size_t r = categorical ? choice.run : choice.run + 1;
      pass_begin = s.run_begin[r];
      if (categorical && r + 1 < runs) pass_end = s.run_begin[r + 1];
    }
    // Cut every interval at the pass range; a piece past the first
    // becomes a new class with its parent's weights.
    branch.assign(weight.size() / 2, ReweightFactors::kFail);
    branch[0] = ReweightFactors::kMissing;
    next.clear();
    for (const Interval& iv : intervals) {
      const std::uint32_t cuts[4] = {
          iv.begin, std::clamp(pass_begin, iv.begin, iv.end),
          std::clamp(pass_end, iv.begin, iv.end), iv.end};
      bool first = true;
      for (int piece = 0; piece < 3; ++piece) {
        if (cuts[piece] == cuts[piece + 1]) continue;
        std::uint32_t cls = iv.cls;
        if (!first) {
          cls = static_cast<std::uint32_t>(branch.size());
          branch.push_back(ReweightFactors::kFail);
          weight.push_back(weight[2 * iv.cls]);
          weight.push_back(weight[2 * iv.cls + 1]);
          for (std::uint32_t k = cuts[piece]; k < cuts[piece + 1]; ++k) {
            const std::uint32_t r = row_at(k);
            s.code[r] = 2 * cls + (s.code[r] & 1);
          }
        }
        first = false;
        if (piece == 1) branch[cls] = ReweightFactors::kPass;
        next.push_back({cuts[piece], cuts[piece + 1], cls});
      }
    }
    intervals.swap(next);

    // Reweight: every row of a class takes its class's factor, so the
    // per-(class, label) product is the product each row would get;
    // then sum the rows in row order.
    const ReweightFactors factors(stump);
    for (std::size_t c = 0; c < weight.size(); ++c) {
      weight[c] *= factors(static_cast<std::uint8_t>(c & 1), branch[c / 2]);
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += weight[s.code[i]];
    if (sum <= 0.0) break;
    const double inv = 1.0 / sum;
    for (auto& w : weight) w *= inv;
  }
  return BStumpModel{std::move(stumps)};
}

BStumpModel train_bstump(const DatasetView& data, const BStumpConfig& config,
                         TrainDiagnostics* diagnostics,
                         std::span<const double> initial_weights) {
  if (data.n_rows() == 0) return BStumpModel{};
  std::vector<std::uint8_t> label_storage;
  const std::span<const std::uint8_t> labels = data.labels(label_storage);
  if (config.binning == BinningMode::kHistogram) {
    const BinnedColumns bins(data, config.binning_config, {}, config.exec);
    return train_binned(bins, labels, {}, config, diagnostics,
                        initial_weights);
  }
  const SortedColumns sorted(data, {}, config.exec);
  return train_exact(data, labels, sorted, config, diagnostics,
                     initial_weights);
}

BStumpModel train_bstump_single_feature(const DatasetView& data,
                                        std::size_t feature,
                                        const BStumpConfig& config) {
  return SingleFeatureBooster().train(data, feature, config);
}

BStumpModel train_bstump_cached(const DatasetView& data, const TrainCache& cache,
                                std::span<const std::uint8_t> labels,
                                std::span<const std::uint32_t> rows,
                                const BStumpConfig& config,
                                TrainDiagnostics* diagnostics,
                                std::span<const double> initial_weights) {
  if (labels.size() != data.n_rows()) {
    throw std::invalid_argument("train_bstump_cached: label size mismatch");
  }
  if (config.binning == BinningMode::kHistogram) {
    if (!cache.binned) {
      throw std::invalid_argument("train_bstump_cached: cache lacks bins");
    }
    return train_binned(*cache.binned, labels, rows, config, diagnostics,
                        initial_weights);
  }
  if (!rows.empty()) {
    throw std::invalid_argument(
        "train_bstump_cached: row subsets need the histogram path");
  }
  if (!cache.sorted) {
    throw std::invalid_argument("train_bstump_cached: cache lacks index");
  }
  return train_exact(data, labels, *cache.sorted, config, diagnostics,
                     initial_weights);
}

}  // namespace nevermind::ml
