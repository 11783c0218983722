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

/// Scan every trial and report the strongest candidate. Records a
/// `sky.detect` trace span (args `rows`, `cols`) while tracing is on.
DetectionResult detect_best_dm(ConstView2D<float> dedispersed);

}  // namespace ddmc::sky
