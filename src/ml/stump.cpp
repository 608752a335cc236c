#include "ml/stump.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/stump_math.hpp"

namespace nevermind::ml {

using detail::block_score;
using detail::block_z;
using detail::WeightPair;

SortedColumns::SortedColumns(const DatasetView& data,
                             std::span<const std::size_t> only,
                             const exec::ExecContext& exec)
    : sorted_(data.n_cols()),
      split_after_(data.n_cols()),
      groups_(data.n_cols()) {
  std::vector<std::size_t> all;
  if (only.empty()) {
    all.resize(data.n_cols());
    for (std::size_t j = 0; j < all.size(); ++j) all[j] = j;
    only = all;
  }
  // Each listed column is indexed independently into its own slot.
  exec.parallel_for(0, only.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const std::size_t j = only[i];
      const auto col = data.column(j);
      if (data.column_info(j).categorical) {
        // Sort-then-group over one index vector: same group order as a
        // value-keyed map (ascending value, rows ascending within a
        // group thanks to stability), without a node per value.
        std::vector<std::uint32_t> idx;
        idx.reserve(col.size());
        for (std::uint32_t r = 0; r < col.size(); ++r) {
          if (!is_missing(col[r])) idx.push_back(r);
        }
        std::stable_sort(idx.begin(), idx.end(),
                         [&](std::uint32_t a, std::uint32_t b2) {
                           return col[a] < col[b2];
                         });
        auto& groups = groups_[j];
        for (std::size_t k = 0; k < idx.size();) {
          const float value = col[idx[k]];
          std::size_t e2 = k;
          while (e2 < idx.size() && col[idx[e2]] == value) ++e2;
          groups.push_back(
              {value, std::vector<std::uint32_t>(idx.begin() + k,
                                                 idx.begin() + e2)});
          k = e2;
        }
      } else {
        auto& idx = sorted_[j];
        idx.reserve(col.size());
        for (std::uint32_t r = 0; r < col.size(); ++r) {
          if (!is_missing(col[r])) idx.push_back(r);
        }
        std::sort(idx.begin(), idx.end(),
                  [&](std::uint32_t a, std::uint32_t b2) {
                    return col[a] < col[b2];
                  });
        auto& bits = split_after_[j];
        bits.assign((idx.size() + 63) / 64, 0);
        for (std::size_t k = 0; k + 1 < idx.size(); ++k) {
          if (col[idx[k + 1]] > col[idx[k]]) {
            bits[k / 64] |= std::uint64_t{1} << (k % 64);
          }
        }
      }
    }
  });
}

namespace {

/// Per-scan gather buffers. The sorted row index makes every pass over
/// a feature a random-access walk of labels/weights; gathering the
/// pairs into contiguous scratch ONCE (fused with the present sum)
/// turns the threshold pass into streaming reads. Pure memory layout:
/// the add order of every weight is unchanged, so results stay
/// byte-identical to the unblocked scans. Reused across the features
/// of a chunk, so it allocates once per chunk, not per feature.
struct GatherScratch {
  std::vector<std::uint8_t> labels;
  std::vector<double> weights;
  std::vector<std::size_t> offsets;  // categorical group bounds
};

/// Scan one continuous feature: thresholds at value changes in the
/// sorted order; blocks are {below, at-or-above, missing}. Labels come
/// in as a span so one matrix can serve many relabelled problems.
StumpSearchResult scan_continuous(const ColumnView& col,
                                  std::span<const std::uint32_t> sorted,
                                  std::span<const std::uint64_t> split_after,
                                  std::span<const std::uint8_t> labels,
                                  std::span<const double> weights,
                                  double smoothing, std::size_t feature,
                                  const WeightPair& total,
                                  GatherScratch& scratch) {
  const std::size_t n = sorted.size();
  scratch.labels.resize(n);
  scratch.weights.resize(n);

  // Single gather through the sorted index, fused with the present sum
  // (same row order as the old present pass).
  WeightPair present;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = sorted[i];
    const bool positive = labels[r] != 0;
    scratch.labels[i] = positive ? 1 : 0;
    scratch.weights[i] = weights[r];
    present.add(positive, weights[r]);
  }
  const WeightPair missing = total - present;
  const double z_missing = block_z(missing);

  StumpSearchResult best;
  best.z = std::numeric_limits<double>::infinity();
  WeightPair best_below;
  auto consider = [&](std::size_t i, const WeightPair& below) {
    const double z = detail::block_z_sum(below, present - below) + z_missing;
    if (z < best.z) {
      best.z = z;
      best.stump.threshold =
          i == n ? -std::numeric_limits<float>::infinity()
                 : detail::split_midpoint(col[sorted[i]], col[sorted[i + 1]]);
      best_below = below;
    }
  };

  // The no-split stump (all present rows on the "pass" side) is a valid
  // weak learner too — it votes a constant plus the missing branch.
  consider(n, WeightPair{});
  // Then every value change, ascending: the gathered pairs stream, and
  // the split bitmap replaces comparing values through the index.
  WeightPair below;
  for (std::size_t w = 0; w < split_after.size(); ++w) {
    const std::size_t end = std::min(n, w * 64 + 64);
    const std::uint64_t bits = split_after[w];
    for (std::size_t i = w * 64; i < end; ++i) {
      below.add(scratch.labels[i] != 0, scratch.weights[i]);
      if ((bits >> (i % 64)) & 1U) consider(i, below);
    }
  }

  best.stump.feature = feature;
  best.stump.categorical = false;
  best.stump.score_fail = block_score(best_below, smoothing);
  best.stump.score_pass = block_score(present - best_below, smoothing);
  best.stump.score_missing = block_score(missing, smoothing);
  return best;
}

StumpSearchResult scan_categorical(
    std::span<const SortedColumns::CategoricalGroup> groups,
    std::span<const std::uint8_t> labels, std::span<const double> weights,
    double smoothing, std::size_t feature, const WeightPair& total,
    GatherScratch& scratch) {
  std::size_t n = 0;
  for (const auto& g : groups) n += g.rows.size();
  scratch.labels.resize(n);
  scratch.weights.resize(n);
  scratch.offsets.clear();

  // Gather label/weight pairs in group-concatenated order, fused with
  // the present sum (same row order as the old present pass).
  WeightPair present;
  std::size_t k = 0;
  for (const auto& g : groups) {
    scratch.offsets.push_back(k);
    for (std::uint32_t r : g.rows) {
      const bool positive = labels[r] != 0;
      scratch.labels[k] = positive ? 1 : 0;
      scratch.weights[k] = weights[r];
      present.add(positive, weights[r]);
      ++k;
    }
  }
  scratch.offsets.push_back(k);
  const WeightPair missing = total - present;
  const double z_missing = block_z(missing);

  StumpSearchResult best;
  best.z = std::numeric_limits<double>::infinity();
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    WeightPair equal;
    for (std::size_t i = scratch.offsets[gi]; i < scratch.offsets[gi + 1];
         ++i) {
      equal.add(scratch.labels[i] != 0, scratch.weights[i]);
    }
    const WeightPair rest = present - equal;
    const double z = detail::block_z_sum(equal, rest) + z_missing;
    if (z < best.z) {
      best.z = z;
      best.stump.feature = feature;
      best.stump.categorical = true;
      best.stump.threshold = groups[gi].value;
      best.stump.score_pass = block_score(equal, smoothing);
      best.stump.score_fail = block_score(rest, smoothing);
      best.stump.score_missing = block_score(missing, smoothing);
    }
  }
  return best;
}

WeightPair total_weights(std::span<const std::uint8_t> labels,
                         std::span<const double> weights) {
  WeightPair total;
  for (std::size_t r = 0; r < labels.size(); ++r) {
    total.add(labels[r] != 0, weights[r]);
  }
  return total;
}

}  // namespace

StumpSearchResult find_best_stump_for_feature(
    const DatasetView& data, const SortedColumns& sorted,
    std::span<const std::uint8_t> labels, std::span<const double> weights,
    double smoothing, std::size_t feature) {
  const WeightPair total = total_weights(labels, weights);
  GatherScratch scratch;
  if (data.column_info(feature).categorical) {
    return scan_categorical(sorted.groups(feature), labels, weights, smoothing,
                            feature, total, scratch);
  }
  return scan_continuous(data.column(feature), sorted.sorted_rows(feature),
                         sorted.split_after(feature), labels, weights,
                         smoothing, feature, total, scratch);
}

StumpSearchResult find_best_stump_for_feature(const DatasetView& data,
                                              const SortedColumns& sorted,
                                              std::span<const double> weights,
                                              double smoothing,
                                              std::size_t feature) {
  std::vector<std::uint8_t> storage;
  return find_best_stump_for_feature(data, sorted, data.labels(storage),
                                     weights, smoothing, feature);
}

StumpSearchResult find_best_stump(const DatasetView& data,
                                  const SortedColumns& sorted,
                                  std::span<const std::uint8_t> labels,
                                  std::span<const double> weights,
                                  double smoothing,
                                  const exec::ExecContext& exec) {
  const WeightPair total = total_weights(labels, weights);
  StumpSearchResult init;
  init.z = std::numeric_limits<double>::infinity();
  // Strict `<` in both the in-chunk scan and the ordered combine means
  // ties always resolve to the lowest feature index — the same winner
  // the plain serial loop picks, for any chunking.
  return exec.parallel_reduce(
      0, data.n_cols(), 0, init,
      [&](std::size_t b, std::size_t e) {
        StumpSearchResult best;
        best.z = std::numeric_limits<double>::infinity();
        GatherScratch scratch;  // per-chunk: reused across its features
        for (std::size_t j = b; j < e; ++j) {
          StumpSearchResult candidate =
              data.column_info(j).categorical
                  ? scan_categorical(sorted.groups(j), labels, weights,
                                     smoothing, j, total, scratch)
                  : scan_continuous(data.column(j), sorted.sorted_rows(j),
                                    sorted.split_after(j), labels, weights,
                                    smoothing, j, total, scratch);
          if (candidate.z < best.z) best = candidate;
        }
        return best;
      },
      [](StumpSearchResult acc, StumpSearchResult chunk) {
        return chunk.z < acc.z ? chunk : acc;
      });
}

StumpSearchResult find_best_stump(const DatasetView& data,
                                  const SortedColumns& sorted,
                                  std::span<const double> weights,
                                  double smoothing,
                                  const exec::ExecContext& exec) {
  std::vector<std::uint8_t> storage;
  return find_best_stump(data, sorted, data.labels(storage), weights,
                         smoothing, exec);
}

}  // namespace nevermind::ml
