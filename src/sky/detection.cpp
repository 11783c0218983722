#include "sky/detection.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/expect.hpp"
#include "common/simd.hpp"
#include "common/statistics.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/tracing.hpp"

namespace ddmc::sky {

namespace {
/// Sets this small finish in one std::nth_element.
constexpr std::size_t kSmallSet = 64;

/// Median of [first, last), partially sorting it in place. Even-length sets
/// average the two middle elements — taking only the upper-middle one
/// biases the baseline high, and with it the MAD·1.4826 σ estimate.
/// nth_element leaves the k smaller elements in [first, first + k), so the
/// (k−1)-th is their max.
double median_inplace(float* first, float* last) {
  const auto n = static_cast<std::size_t>(last - first);
  std::nth_element(first, first + n / 2, last);
  const double upper = static_cast<double>(first[n / 2]);
  if (n % 2 != 0) return upper;
  const double lower =
      static_cast<double>(*std::max_element(first, first + n / 2));
  return 0.5 * (lower + upper);
}

/// This thread's scratch for rows of up to `cols` samples: two sets with
/// the split slack. It is kept across calls and grows to the longest row
/// the thread has scored.
std::span<float> select_scratch(std::size_t cols) {
  thread_local std::vector<float> scratch;
  const std::size_t size = 2 * (cols + simd::kFloatLanes);
  if (scratch.size() < size) scratch.resize(size);
  return {scratch.data(), size};
}

/// Exact median of v(x[i]), where v is the identity or, with AbsDiff,
/// |x[i] − c| in float — the value median_inplace returns on the full
/// array, in expected linear time. Each round splits the current set (at
/// first the row itself) around the median of nine strided values, packing
/// the smaller values in place and the larger ones into the other half of
/// `scratch`, and keeps the side holding the rank; a rank among the values
/// equal to the pivot ends the search. Sets of kSmallSet values or fewer,
/// and the set left after two rounds that each kept more than 7/8 of their
/// input, finish in std::nth_element. The (k−1)-th value of an even length
/// is the largest one ranked below the k-th: in the final set, or else the
/// last pivot the search climbed past. `x` must be finite.
template <bool AbsDiff>
double quickselect_median(std::span<const float> x, float c,
                          std::span<float> scratch) {
  const auto value = [c](float v) { return AbsDiff ? std::abs(v - c) : v; };
  const std::size_t n = x.size();
  std::size_t k = n / 2;  // rank within the current set
  std::size_t m = n;      // size of the current set
  float* set = scratch.data();
  float* other = set + scratch.size() / 2;
  bool in_row = true;  // the current set is still the row, read through v
  float floor = 0.0f;  // largest value ranked below the current set
  int lopsided = 0;
  float upper;
  for (;;) {
    if (m <= kSmallSet || lopsided == 2) {
      if (in_row) std::transform(x.begin(), x.end(), set, value);
      std::nth_element(set, set + k, set + m);
      upper = set[k];
      break;
    }
    float sample[9];
    const std::size_t stride = m / 9;
    for (std::size_t j = 0; j < 9; ++j) {
      const std::size_t at = j * stride + stride / 2;
      sample[j] = in_row ? value(x[at]) : set[at];
    }
    std::nth_element(sample, sample + 4, sample + 9);
    const float pivot = sample[4];
    const simd::SplitCounts counts =
        !in_row  ? simd::split(set, m, pivot, set, other)
        : AbsDiff ? simd::split_abs_diff(x.data(), n, c, pivot, set, other)
                  : simd::split(x.data(), n, pivot, set, other);
    in_row = false;
    const std::size_t equal_end = m - counts.above;
    if (k >= counts.below && k < equal_end) {
      upper = pivot;
      // Past the first equal value the (k−1)-th is the pivot too; at it,
      // the k values packed below are the ones ranked under it.
      if (k > counts.below) {
        floor = pivot;
        k = 0;
      }
      break;
    }
    const std::size_t kept = k < counts.below ? counts.below : counts.above;
    if (k >= equal_end) {
      k -= equal_end;
      floor = pivot;
      std::swap(set, other);
    }
    if (8 * kept > 7 * m) ++lopsided;
    m = kept;
  }
  if (n % 2 != 0) return static_cast<double>(upper);
  const float lower = k > 0 ? *std::max_element(set, set + k) : floor;
  return 0.5 * (static_cast<double>(lower) + static_cast<double>(upper));
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

/// The two-pass detector: median and MAD by full selections on a copy.
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
/// the sum. Four independent max and sum chains keep the pass off the
/// latency of a single chain; a maximum and a sum of zeros do not depend
/// on the order they are taken in.
std::optional<float> finite_max(std::span<const float> x) {
  using namespace simd;
  constexpr std::size_t kChains = 4;
  const float* p = x.data();
  const std::size_t n = x.size();
  vfloat peak[kChains];
  vfloat nonfinite[kChains];
  for (std::size_t k = 0; k < kChains; ++k) {
    peak[k] = vbroadcast(p[0]);
    nonfinite[k] = vzero();
  }
  std::size_t i = 0;
  for (; i + kChains * kFloatLanes <= n; i += kChains * kFloatLanes) {
    for (std::size_t k = 0; k < kChains; ++k) {
      const vfloat v = vload(p + i + k * kFloatLanes);
      peak[k] = vmax(peak[k], v);
      nonfinite[k] = vadd(nonfinite[k], vsub(v, v));
    }
  }
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    const vfloat v = vload(p + i);
    peak[0] = vmax(peak[0], v);
    nonfinite[0] = vadd(nonfinite[0], vsub(v, v));
  }
  for (std::size_t k = 1; k < kChains; ++k) {
    peak[0] = vmax(peak[0], peak[k]);
    nonfinite[0] = vadd(nonfinite[0], nonfinite[k]);
  }
  float peak_lanes[kFloatLanes];
  float nonfinite_lanes[kFloatLanes];
  vstore(peak_lanes, peak[0]);
  vstore(nonfinite_lanes, nonfinite[0]);
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

/// series_snr with select_scratch(series.size()) or larger. Robust
/// baseline and noise estimate (median / MAD): the pulse itself must not
/// inflate the noise term, or the aligned trial gets penalized for
/// containing exactly the signal it recovered. MAD·1.4826 estimates σ for
/// Gaussian noise.
double row_snr(std::span<const float> series, std::span<float> scratch) {
  const std::optional<float> max = finite_max(series);
  if (!max) return plain_snr(series, scratch);
  const double baseline = quickselect_median<false>(series, 0.0f, scratch);
  // Which of −0/+0 a zero median is depends on the selection's permutation.
  // The deviations |x − c| and the stddev fallback do not see the sign;
  // peak − baseline does only when the peak is a zero too. Then take the
  // two-pass detector's.
  if (baseline == 0.0 && *max == 0.0f) return plain_snr(series, scratch);
  const double mad = quickselect_median<true>(
      series, static_cast<float>(baseline), scratch);
  // A zero maximum can be −0 or +0; max_element's first maximum fixes which.
  const float peak = *max != 0.0f
                         ? *max
                         : *std::max_element(series.begin(), series.end());
  return snr_of(series, baseline, mad, peak);
}

/// Samples one part of a split call scores at least: about 0.5 ms of
/// selection at ~2 ns per sample, so waking a worker for it stays a small
/// share of the part.
constexpr std::size_t kSamplesPerPart = std::size_t{1} << 18;

/// One detect_best_dm call's rows, shared by the caller and the pool tasks
/// it queued. Every participant claims the next row from `next` and writes
/// that row's S/N. A task that starts after every row was claimed touches
/// only `next`, so it may run after the call has returned.
struct RowShare {
  explicit RowShare(ConstView2D<float> m) : matrix(m), snr(m.rows()) {}

  /// Score rows until none is left to claim.
  void score_rows() {
    const std::size_t rows = matrix.rows();
    for (std::size_t r = next.fetch_add(1, std::memory_order_relaxed);
         r < rows; r = next.fetch_add(1, std::memory_order_relaxed)) {
      std::exception_ptr failure;
      try {
        snr[r] = row_snr(matrix.row(r), select_scratch(matrix.cols()));
      } catch (...) {
        failure = std::current_exception();
      }
      std::lock_guard lock(mutex);
      if (failure && !error) error = failure;
      if (++scored == rows) all_scored.notify_all();
    }
  }

  /// Blocks until every row is scored; rethrows the first row's failure.
  void wait_scored() {
    std::unique_lock lock(mutex);
    all_scored.wait(lock, [this] { return scored == matrix.rows(); });
    if (error) std::rethrow_exception(error);
  }

  const ConstView2D<float> matrix;
  std::vector<double> snr;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;  // guards scored and error
  std::size_t scored = 0;
  std::exception_ptr error;
  std::condition_variable all_scored;
};
}  // namespace

double series_snr(std::span<const float> series) {
  DDMC_REQUIRE(!series.empty(), "empty series");
  return row_snr(series, select_scratch(series.size()));
}

DetectionResult detect_best_dm(ConstView2D<float> dedispersed) {
  const std::size_t rows = dedispersed.rows();
  DDMC_REQUIRE(rows > 0 && dedispersed.cols() > 0, "empty dedispersed matrix");
  static const std::size_t workers = hardware_workers();
  const std::size_t parts = std::max<std::size_t>(
      1, std::min({rows, workers,
                   rows * dedispersed.cols() / kSamplesPerPart}));
  telemetry::TraceSpan span("sky.detect");
  span.arg("rows", rows).arg("cols", dedispersed.cols()).arg("parts", parts);

  const auto share = std::make_shared<RowShare>(dedispersed);
  for (std::size_t p = 1; p < parts; ++p) {
    global_pool().run([share] { share->score_rows(); });
  }
  share->score_rows();
  share->wait_scored();

  // The first maximum in trial order wins, as in a serial scan. A NaN S/N
  // never wins; with no S/N above −1 the result stays trial 0, sample 0.
  DetectionResult result;
  result.best_snr = -1.0;
  for (std::size_t trial = 0; trial < rows; ++trial) {
    if (share->snr[trial] > result.best_snr) {
      result.best_snr = share->snr[trial];
      result.best_trial = trial;
    }
  }
  if (result.best_snr > -1.0) {
    const auto row = dedispersed.row(result.best_trial);
    result.peak_sample = static_cast<std::size_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
  }
  return result;
}

}  // namespace ddmc::sky
