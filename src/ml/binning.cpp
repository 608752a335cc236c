#include "ml/binning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/simd.hpp"
#include "ml/stump_math.hpp"

namespace nevermind::ml {

namespace {

void bin_continuous(const ColumnView& col, std::size_t max_finite,
                    BinnedColumns::Column& out) {
  std::vector<float> values;
  values.reserve(col.size());
  for (float v : col) {
    if (!is_missing(v)) values.push_back(v);
  }
  std::sort(values.begin(), values.end());

  std::vector<float> distinct;
  distinct.reserve(values.size());
  std::vector<std::size_t> count;  // per distinct value
  for (float v : values) {
    if (distinct.empty() || v > distinct.back()) {
      distinct.push_back(v);
      count.push_back(1);
    } else {
      ++count.back();
    }
  }

  // Bin id per distinct value: identity when everything fits (lossless
  // mode), otherwise the quantile rank of the value's midpoint so bins
  // carry roughly equal row counts even under heavy duplication.
  std::vector<std::size_t> bin_of_distinct(distinct.size());
  if (distinct.size() <= max_finite) {
    for (std::size_t i = 0; i < distinct.size(); ++i) bin_of_distinct[i] = i;
  } else {
    const double n = static_cast<double>(values.size());
    std::size_t before = 0;
    std::size_t next_id = 0;
    std::size_t prev_raw = 0;
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      const double mid = static_cast<double>(before) +
                         static_cast<double>(count[i]) * 0.5;
      auto raw = static_cast<std::size_t>(mid * static_cast<double>(max_finite) / n);
      raw = std::min(raw, max_finite - 1);
      if (i > 0 && raw > prev_raw) ++next_id;
      bin_of_distinct[i] = next_id;
      prev_raw = raw;
      before += count[i];
    }
  }

  const std::size_t n_bins =
      distinct.empty() ? 0 : bin_of_distinct.back() + 1;
  out.n_finite = static_cast<std::uint16_t>(n_bins);

  // Upper bound (largest distinct value) per bin drives both code
  // assignment and the inter-bin split thresholds.
  std::vector<float> upper(n_bins);
  std::vector<float> lower(n_bins);
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    const std::size_t b = bin_of_distinct[i];
    upper[b] = distinct[i];
    if (i == 0 || bin_of_distinct[i - 1] != b) lower[b] = distinct[i];
  }
  out.split_values.resize(n_bins > 0 ? n_bins - 1 : 0);
  for (std::size_t b = 0; b + 1 < n_bins; ++b) {
    // The exact scan's threshold helper, so lossless bins reproduce its
    // thresholds bit for bit.
    out.split_values[b] = detail::split_midpoint(upper[b], lower[b + 1]);
  }

  for (std::size_t r = 0; r < col.size(); ++r) {
    if (is_missing(col[r])) {
      out.codes[r] = out.missing_code();
    } else {
      const auto it = std::lower_bound(upper.begin(), upper.end(), col[r]);
      out.codes[r] = static_cast<std::uint8_t>(it - upper.begin());
    }
  }
}

void bin_categorical(const ColumnView& col, std::size_t max_finite,
                     BinnedColumns::Column& out) {
  out.categorical = true;
  std::vector<float> distinct;
  for (float v : col) {
    if (!is_missing(v)) distinct.push_back(v);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  std::size_t n_groups = distinct.size();
  if (n_groups > max_finite) {
    // Overflow values share the last bin; the search cannot propose it
    // as an equality split but its weight still counts as present.
    out.overflow = true;
    out.category_values.assign(distinct.begin(),
                               distinct.begin() +
                                   static_cast<std::ptrdiff_t>(max_finite - 1));
    n_groups = max_finite;
  } else {
    out.category_values = distinct;
  }
  out.n_finite = static_cast<std::uint16_t>(n_groups);

  for (std::size_t r = 0; r < col.size(); ++r) {
    if (is_missing(col[r])) {
      out.codes[r] = out.missing_code();
      continue;
    }
    const auto it = std::lower_bound(out.category_values.begin(),
                                     out.category_values.end(), col[r]);
    if (it != out.category_values.end() && *it == col[r]) {
      out.codes[r] =
          static_cast<std::uint8_t>(it - out.category_values.begin());
    } else {
      out.codes[r] = static_cast<std::uint8_t>(out.n_finite - 1);  // overflow
    }
  }
}

}  // namespace

BinnedColumns::BinnedColumns(const DatasetView& data, const BinningConfig& config,
                             std::span<const std::size_t> only,
                             const exec::ExecContext& exec)
    : n_rows_(data.n_rows()),
      max_bins_(std::min<std::size_t>(config.max_bins, 256)),
      columns_(data.n_cols()) {
  const std::size_t max_bins = max_bins_;
  const std::size_t max_finite = max_bins > 1 ? max_bins - 1 : 1;

  std::vector<std::size_t> all;
  if (only.empty()) {
    all.resize(data.n_cols());
    for (std::size_t j = 0; j < all.size(); ++j) all[j] = j;
    only = all;
  }
  exec.parallel_for(0, only.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const std::size_t j = only[i];
      Column& out = columns_[j];
      out.codes.resize(n_rows_);
      if (data.column_info(j).categorical) {
        bin_categorical(data.column(j), max_finite, out);
      } else {
        bin_continuous(data.column(j), max_finite, out);
      }
    }
  });
}

BinnedStumpResult find_best_stump_binned(const BinnedColumns& bins,
                                         std::span<const std::uint8_t> labels,
                                         std::span<const double> weights,
                                         std::span<const std::uint32_t> rows,
                                         double smoothing,
                                         const exec::ExecContext& exec) {
  BinnedStumpResult init;
  init.z = std::numeric_limits<double>::infinity();

  // Resolve the kernel arm once per search so a concurrent set_mode
  // cannot mix arms inside one reduce (harmless for results — the arms
  // are byte-identical — but it would skew benchmarks).
  const simd::Kernel kernel = simd::active_kernel();

  simd::ScanArgs args;
  args.bins = &bins;
  args.labels = labels;
  args.weights = weights;
  args.rows = rows;
  args.smoothing = smoothing;

  // The AVX2 arm wants the interleaved label-selected (pos, neg) weight
  // stream; hoist it here so it is built once per search, not once per
  // chunk. Selection (not arithmetic), so values equal the scalar arm's
  // w * label bit for bit.
  AlignedDoubleVector wpn;
  if (kernel == simd::Kernel::kAvx2) {
    const std::size_t n = weights.size();
    wpn.resize(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r =
          rows.empty() ? static_cast<std::uint32_t>(i) : rows[i];
      const bool positive = labels[r] != 0;
      wpn[2 * i] = positive ? weights[i] : 0.0;
      wpn[2 * i + 1] = positive ? 0.0 : weights[i];
    }
    args.wpn = wpn;
  }

  // One chunk per thread (not the default fine grain): wide chunks let
  // the AVX2 arm amortize each pass over the rows across many feature
  // histograms. Per-feature results are chunk-independent, so the
  // ordered reduce still picks the serial winner.
  const std::size_t threads = std::max<std::size_t>(exec.threads(), 1);
  const std::size_t grain =
      std::max<std::size_t>(1, (bins.n_cols() + threads - 1) / threads);

  // Strict `<` in-chunk and `chunk < acc` across chunks: ties resolve
  // to the lowest bin/feature index, the serial scan's winner.
  return exec.parallel_reduce(
      0, bins.n_cols(), grain, init,
      [&](std::size_t b, std::size_t e) {
        return simd::scan_features(kernel, args, b, e);
      },
      [](BinnedStumpResult acc, BinnedStumpResult chunk) {
        return chunk.z < acc.z ? chunk : acc;
      });
}

}  // namespace nevermind::ml
