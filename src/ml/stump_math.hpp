// Arithmetic every stump search shares: the (positive, negative) weight
// pair of one branch, the Schapire–Singer normalizer and confidence
// score of a branch, and the threshold placed between two adjacent
// observed values. One definition keeps the multi-feature scan, the
// single-feature booster and the lossless bins byte-identical.
#pragma once

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace nevermind::ml::detail {

struct WeightPair {
  double pos = 0.0;
  double neg = 0.0;

  void add(bool positive, double w) noexcept {
    if (positive) {
      pos += w;
    } else {
      neg += w;
    }
  }
  WeightPair operator-(const WeightPair& o) const noexcept {
    return {pos - o.pos, neg - o.neg};
  }
};

/// Z contribution of one branch: 2 sqrt(W+ W-).
[[nodiscard]] inline double block_z(const WeightPair& w) noexcept {
  const double p = std::max(w.pos, 0.0);
  const double n = std::max(w.neg, 0.0);
  return 2.0 * std::sqrt(p * n);
}

/// block_z(a) + block_z(b), the split part of a candidate's Z. Both
/// square roots go through one two-lane SSE2 sqrt where available:
/// max(x, 0) as _mm_max_pd(0, x) and the correctly rounded sqrt give
/// each lane the exact double the scalar expression gives.
[[nodiscard]] inline double block_z_sum(const WeightPair& a,
                                        const WeightPair& b) noexcept {
#if defined(__SSE2__)
  const __m128d zero = _mm_setzero_pd();
  const __m128d pos = _mm_max_pd(zero, _mm_set_pd(b.pos, a.pos));
  const __m128d neg = _mm_max_pd(zero, _mm_set_pd(b.neg, a.neg));
  const __m128d z =
      _mm_mul_pd(_mm_set1_pd(2.0), _mm_sqrt_pd(_mm_mul_pd(pos, neg)));
  return _mm_cvtsd_f64(z) + _mm_cvtsd_f64(_mm_unpackhi_pd(z, z));
#else
  return block_z(a) + block_z(b);
#endif
}

/// Confidence-rated score of one branch: 0.5 ln((W+ + eps)/(W- + eps)).
[[nodiscard]] inline double block_score(const WeightPair& w,
                                        double eps) noexcept {
  return 0.5 * std::log((std::max(w.pos, 0.0) + eps) /
                        (std::max(w.neg, 0.0) + eps));
}

/// Threshold between adjacent observed values lo < hi; the midpoint
/// keeps evaluation robust to new data. The stump's predicate x >= t
/// must send lo below and hi above, as the scan counted them, so the
/// threshold has to satisfy lo < t <= hi. The float midpoint can miss
/// that: for adjacent floats it rounds back to lo, and when hi - lo
/// overflows it is inf (or NaN from -inf). Then hi itself is the
/// threshold, with -0.0 stored as +0.0 so equal inputs give one byte
/// pattern.
[[nodiscard]] inline float split_midpoint(float lo, float hi) noexcept {
  const float mid = lo + (hi - lo) * 0.5F;
  if (lo < mid && mid <= hi) return mid;
  return hi == 0.0F ? 0.0F : hi;
}

}  // namespace nevermind::ml::detail
