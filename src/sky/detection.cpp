#include "sky/detection.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/expect.hpp"
#include "common/simd.hpp"
#include "common/statistics.hpp"

namespace ddmc::sky {

namespace {
/// Rows shorter than this take the plain path: two full selections.
constexpr std::size_t kBracketMinLength = 256;
/// Largest strided sample a bracket is placed from.
constexpr std::size_t kMaxSample = 1024;

/// The k-th smallest element of [first, last) (partially sorts it in place);
/// with `pair`, the mean of it and the (k−1)-th. nth_element leaves the k
/// smaller elements in [first, first + k), so the (k−1)-th is their max.
double select_inplace(float* first, float* last, std::size_t k, bool pair) {
  std::nth_element(first, first + k, last);
  const double upper = static_cast<double>(first[k]);
  if (!pair) return upper;
  const double lower = static_cast<double>(*std::max_element(first, first + k));
  return 0.5 * (lower + upper);
}

/// Median of [first, last), partially sorting it in place. Even-length sets
/// average the two middle elements — taking only the upper-middle one
/// biases the baseline high, and with it the MAD·1.4826 σ estimate.
double median_inplace(float* first, float* last) {
  const auto n = static_cast<std::size_t>(last - first);
  return select_inplace(first, last, n / 2, n % 2 == 0);
}

/// Exact median of v(x[i]), where v is the identity or, with AbsDiff,
/// |x[i] − c| in float — the same value median_inplace returns on the full
/// array, in linear time. A strided sample places a bracket [lo, hi] around
/// the median's rank; one pass counts the values below it and left-packs the
/// values inside, and the selection runs on the packed set only. When the
/// counts show the median outside the bracket, or the median is zero (which
/// of −0/+0 nth_element leaves at the rank depends on its permutation), the
/// full selection runs on a copy instead. `x` must be finite and at least
/// kBracketMinLength long; `scratch` holds x.size() floats.
template <bool AbsDiff>
double bracketed_median(std::span<const float> x, float c,
                        std::span<float> scratch) {
  const auto value = [c](float v) { return AbsDiff ? std::abs(v - c) : v; };
  const std::size_t n = x.size();
  const std::size_t mid = n / 2;
  const bool pair = n % 2 == 0;

  // Bracket ranks: 3σ of the binomial rank spread, √(m/4), either side of
  // the sample median.
  const std::size_t m = std::min(kMaxSample, n / 8);
  const std::size_t stride = n / m;
  const auto margin = static_cast<std::size_t>(
      std::ceil(1.5 * std::sqrt(static_cast<double>(m))));
  const std::size_t lo_rank = m / 2 > margin ? m / 2 - margin : 0;
  const std::size_t hi_rank = std::min(m - 1, m / 2 + margin);
  float* const sample = scratch.data();
  for (std::size_t j = 0; j < m; ++j) sample[j] = value(x[j * stride]);
  std::nth_element(sample, sample + lo_rank, sample + m);
  const float lo = sample[lo_rank];
  std::nth_element(sample + lo_rank, sample + hi_rank, sample + m);
  const float hi = sample[hi_rank];

  const simd::CompactCounts counts =
      AbsDiff ? simd::compact_abs_diff_in_range(x.data(), n, c, lo, hi,
                                                scratch.data())
              : simd::compact_in_range(x.data(), n, lo, hi, scratch.data());
  // Both middle ranks (mid − 1 too when averaging) must sit in the bracket.
  const std::size_t first_rank = pair ? mid - 1 : mid;
  if (counts.below <= first_rank && mid < counts.below + counts.packed) {
    const double median =
        select_inplace(scratch.data(), scratch.data() + counts.packed,
                       mid - counts.below, pair);
    if (median != 0.0) return median;
  }
  for (std::size_t i = 0; i < n; ++i) scratch[i] = value(x[i]);
  return median_inplace(scratch.data(), scratch.data() + n);
}

/// (peak − baseline)/σ with σ = MAD·1.4826, falling back to the plain
/// standard deviation when the MAD degenerates (more than half the samples
/// identical).
double snr_of(std::span<const float> series, double baseline, double mad,
              float peak) {
  double sigma = 1.4826 * mad;
  if (sigma <= 0.0) {
    RunningStats rs;
    for (float v : series) rs.add(static_cast<double>(v));
    sigma = rs.stddev();
  }
  if (sigma <= 0.0) return 0.0;
  return (static_cast<double>(peak) - baseline) / sigma;
}

/// Plain path for short or non-finite rows: median and MAD by full
/// selections on a copy.
double plain_snr(std::span<const float> series, std::span<float> scratch) {
  float* const first = scratch.data();
  float* const last = first + series.size();
  std::copy(series.begin(), series.end(), first);
  const double baseline = median_inplace(first, last);
  for (float* v = first; v != last; ++v) {
    *v = std::abs(*v - static_cast<float>(baseline));
  }
  const double mad = median_inplace(first, last);
  return snr_of(series, baseline, mad,
                *std::max_element(series.begin(), series.end()));
}

/// Maximum of a row, or nullopt when a sample is not finite, in one vector
/// pass: v − v is 0 for a finite v and NaN otherwise, and a NaN survives
/// the sum.
std::optional<float> finite_max(std::span<const float> x) {
  using namespace simd;
  const float* p = x.data();
  const std::size_t n = x.size();
  vfloat peak = vbroadcast(p[0]);
  vfloat nonfinite = vzero();
  std::size_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    const vfloat v = vload(p + i);
    peak = vmax(peak, v);
    nonfinite = vadd(nonfinite, vsub(v, v));
  }
  float peak_lanes[kFloatLanes];
  float nonfinite_lanes[kFloatLanes];
  vstore(peak_lanes, peak);
  vstore(nonfinite_lanes, nonfinite);
  float max = peak_lanes[0];
  float sum = 0.0f;
  for (std::size_t l = 0; l < kFloatLanes; ++l) {
    max = std::max(max, peak_lanes[l]);
    sum += nonfinite_lanes[l];
  }
  for (; i < n; ++i) {
    max = std::max(max, p[i]);
    sum += p[i] - p[i];
  }
  if (sum != 0.0f) return std::nullopt;
  return max;
}

/// series_snr with caller-owned scratch of at least series.size() floats.
/// Robust baseline and noise estimate (median / MAD): the pulse itself must
/// not inflate the noise term, or the aligned trial gets penalized for
/// containing exactly the signal it recovered. MAD·1.4826 estimates σ for
/// Gaussian noise.
double row_snr(std::span<const float> series, std::span<float> scratch) {
  if (series.size() < kBracketMinLength) return plain_snr(series, scratch);
  const std::optional<float> max = finite_max(series);
  if (!max) return plain_snr(series, scratch);
  const double baseline = bracketed_median<false>(series, 0.0f, scratch);
  const double mad = bracketed_median<true>(
      series, static_cast<float>(baseline), scratch);
  // A zero maximum can be −0 or +0; max_element's first maximum fixes which.
  const float peak = *max != 0.0f
                         ? *max
                         : *std::max_element(series.begin(), series.end());
  return snr_of(series, baseline, mad, peak);
}
}  // namespace

double series_snr(std::span<const float> series) {
  DDMC_REQUIRE(!series.empty(), "empty series");
  std::vector<float> scratch(series.size());
  return row_snr(series, scratch);
}

DetectionResult detect_best_dm(ConstView2D<float> dedispersed) {
  DDMC_REQUIRE(dedispersed.rows() > 0 && dedispersed.cols() > 0,
               "empty dedispersed matrix");
  DetectionResult result;
  result.best_snr = -1.0;
  std::vector<float> scratch(dedispersed.cols());
  for (std::size_t trial = 0; trial < dedispersed.rows(); ++trial) {
    const auto row = dedispersed.row(trial);
    const double s = row_snr(row, scratch);
    if (s > result.best_snr) {
      result.best_snr = s;
      result.best_trial = trial;
      result.peak_sample = static_cast<std::size_t>(
          std::max_element(row.begin(), row.end()) - row.begin());
    }
  }
  return result;
}

}  // namespace ddmc::sky
