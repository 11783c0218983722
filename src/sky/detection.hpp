#pragma once
/// \file detection.hpp
/// \brief Single-pulse style detection statistics on dedispersed series.
///
/// After brute-force dedispersion, the search pipeline scans every trial's
/// time series for significant peaks. When the trial DM matches the source
/// the pulse energy re-aligns and the peak S/N is maximal; a slightly wrong
/// trial smears the pulse and the S/N collapses below the noise floor (§II —
/// the reason the DM space cannot be pruned).

#include <cstddef>

#include "common/array2d.hpp"

namespace ddmc::sky {

/// Peak signal-to-noise of one dedispersed time series: (max − median)/σ
/// with σ = 1.4826·MAD (the plain standard deviation when the MAD is 0),
/// all estimated from the series itself. The median and MAD are exact — the
/// order statistics a full selection returns — from a vectorized
/// quickselect: expected linear time in the series length, never worse
/// than std::nth_element.
double series_snr(std::span<const float> series);

/// Result of scanning a (DMs × samples) dedispersed matrix.
struct DetectionResult {
  std::size_t best_trial = 0;  ///< trial index with the highest peak S/N
  double best_snr = 0.0;       ///< that trial's peak S/N
  std::size_t peak_sample = 0; ///< sample index of the peak in that trial
};

/// Scan every trial and report the strongest candidate: the first trial in
/// trial order with the highest S/N, and the first maximum sample of that
/// row. With no S/N above −1 (every row NaN) the result is trial 0,
/// sample 0.
///
/// Rows are scored in `parts = min(rows, hardware_workers(), rows·cols /
/// 2^18)` parts, at least one: the calling thread and parts − 1 tasks on
/// global_pool() claim rows one at a time from a shared counter. So a part
/// carries at least 2^18 samples (about 0.5 ms of selection), and smaller
/// matrices run inline. The caller scores every row no worker has claimed,
/// so a call from inside a global_pool() task finishes even when every
/// worker is busy, and it never waits behind tasks queued before its own.
/// Each row's S/N is computed alone and the winner comes from a serial
/// scan, so the output is bitwise the same for any number of parts.
/// Records a `sky.detect` trace span (args `rows`, `cols`, `parts`) while
/// tracing is on.
DetectionResult detect_best_dm(ConstView2D<float> dedispersed);

}  // namespace ddmc::sky
