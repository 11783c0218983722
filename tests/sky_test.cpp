// Unit tests for the radio-astronomy substrate: observational setups,
// dispersion delays (Eq. 1), the delay table and its tile-spread statistics,
// synthetic signal generation and detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/json.hpp"
#include "common/statistics.hpp"
#include "common/thread_pool.hpp"
#include "sky/delay.hpp"
#include "sky/detection.hpp"
#include "sky/observation.hpp"
#include "sky/signal.hpp"
#include "telemetry/tracing.hpp"
#include "test_util.hpp"

namespace ddmc::sky {
namespace {

// ------------------------------------------------------------ observation --

TEST(Observation, ApertifMatchesPaperSetup) {
  const Observation obs = apertif();
  EXPECT_EQ(obs.samples_per_second(), 20000u);
  EXPECT_EQ(obs.channels(), 1024u);
  EXPECT_DOUBLE_EQ(obs.f_min_mhz(), 1420.0);
  EXPECT_DOUBLE_EQ(obs.f_max_mhz(), 1720.0);  // 1420 + 1024 × (300/1024)
  EXPECT_NEAR(obs.channel_bw_mhz(), 0.293, 0.001);
  EXPECT_DOUBLE_EQ(obs.dm_first(), 0.0);
  EXPECT_DOUBLE_EQ(obs.dm_step(), 0.25);
  // §IV: "20 MFLOP per DM".
  EXPECT_NEAR(obs.flop_per_dm_per_second(), 20.48e6, 1.0);
}

TEST(Observation, LofarMatchesPaperSetup) {
  const Observation obs = lofar();
  EXPECT_EQ(obs.samples_per_second(), 200000u);
  EXPECT_EQ(obs.channels(), 32u);
  EXPECT_DOUBLE_EQ(obs.f_min_mhz(), 138.0);
  EXPECT_DOUBLE_EQ(obs.f_max_mhz(), 144.0);  // 138 + 32 × (6/32)
  // §IV: "6 MFLOP per DM" (s·c = 6.4e6).
  EXPECT_NEAR(obs.flop_per_dm_per_second(), 6.4e6, 1.0);
}

TEST(Observation, ChannelFrequenciesAscend) {
  const Observation obs = testing::mini_obs();
  for (std::size_t ch = 1; ch < obs.channels(); ++ch) {
    EXPECT_GT(obs.channel_freq_mhz(ch), obs.channel_freq_mhz(ch - 1));
  }
  EXPECT_THROW(obs.channel_freq_mhz(obs.channels()), invalid_argument);
}

TEST(Observation, DmGridIsAffine) {
  const Observation obs("o", 100.0, 4, 100.0, 1.0, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(obs.dm_value(0), 2.0);
  EXPECT_DOUBLE_EQ(obs.dm_value(3), 3.5);
}

TEST(Observation, ZeroDmVariantKillsTheGrid) {
  const Observation z = apertif().zero_dm_variant();
  EXPECT_DOUBLE_EQ(z.dm_first(), 0.0);
  EXPECT_DOUBLE_EQ(z.dm_step(), 0.0);
  EXPECT_DOUBLE_EQ(z.dm_value(4095), 0.0);
  EXPECT_NE(z.name(), apertif().name());
  // Everything else is untouched.
  EXPECT_EQ(z.channels(), 1024u);
  EXPECT_EQ(z.samples_per_second(), 20000u);
}

TEST(Observation, RejectsNonPhysicalParameters) {
  EXPECT_THROW(Observation("x", 0.0, 4, 100, 1, 0, 1), invalid_argument);
  EXPECT_THROW(Observation("x", 100, 0, 100, 1, 0, 1), invalid_argument);
  EXPECT_THROW(Observation("x", 100, 4, -5, 1, 0, 1), invalid_argument);
  EXPECT_THROW(Observation("x", 100, 4, 100, 0, 0, 1), invalid_argument);
  EXPECT_THROW(Observation("x", 100, 4, 100, 1, -1, 1), invalid_argument);
  EXPECT_THROW(Observation("x", 100, 4, 100, 1, 0, -1), invalid_argument);
}

TEST(Observation, PaperInstancesLadder) {
  const auto instances = paper_instances();
  ASSERT_EQ(instances.size(), 12u);  // §IV-A: 12 input instances
  EXPECT_EQ(instances.front(), 2u);
  EXPECT_EQ(instances.back(), 4096u);
  for (std::size_t i = 1; i < instances.size(); ++i) {
    EXPECT_EQ(instances[i], instances[i - 1] * 2);
  }
  EXPECT_THROW(paper_instances(1), invalid_argument);
}

// ------------------------------------------------------------------ delay --

TEST(Delay, MatchesEquationOne) {
  // k = 4150 · DM · (f⁻² − f_h⁻²), hand-evaluated.
  const double k = dispersion_delay_seconds(10.0, 100.0, 200.0);
  const double expected = 4150.0 * 10.0 * (1.0 / 1e4 - 1.0 / 4e4);
  EXPECT_NEAR(k, expected, 1e-12);
}

TEST(Delay, ZeroDmAndReferenceFrequencyGiveZero) {
  EXPECT_DOUBLE_EQ(dispersion_delay_seconds(0.0, 100.0, 200.0), 0.0);
  EXPECT_DOUBLE_EQ(dispersion_delay_seconds(50.0, 150.0, 150.0), 0.0);
}

TEST(Delay, MonotoneIncreasingInDm) {
  double prev = -1.0;
  for (double dm = 0.0; dm <= 100.0; dm += 12.5) {
    const double k = dispersion_delay_seconds(dm, 120.0, 180.0);
    EXPECT_GT(k, prev);
    prev = k;
  }
}

TEST(Delay, LowerFrequenciesLagMore) {
  const double low = dispersion_delay_seconds(30.0, 110.0, 200.0);
  const double mid = dispersion_delay_seconds(30.0, 150.0, 200.0);
  EXPECT_GT(low, mid);
  EXPECT_GT(mid, 0.0);
}

TEST(Delay, RejectsInvalidArguments) {
  EXPECT_THROW(dispersion_delay_seconds(-1.0, 100, 200), invalid_argument);
  EXPECT_THROW(dispersion_delay_seconds(1.0, 0.0, 200), invalid_argument);
  EXPECT_THROW(dispersion_delay_seconds(1.0, 300, 200), invalid_argument);
  EXPECT_THROW(dispersion_delay_samples(1.0, 100, 200, 0.0),
               invalid_argument);
}

TEST(Delay, SampleRoundingIsNearest) {
  // Pick dm so the delay is 2.6 samples: expect 3.
  const double seconds = dispersion_delay_seconds(1.0, 100.0, 200.0);
  const double rate = 2.6 / seconds;
  EXPECT_EQ(dispersion_delay_samples(1.0, 100.0, 200.0, rate), 3);
}

// ------------------------------------------------------------ delay table --

TEST(DelayTable, ShapeAndMonotonicity) {
  const Observation obs = testing::mini_obs();
  const DelayTable table(obs, 8);
  EXPECT_EQ(table.dms(), 8u);
  EXPECT_EQ(table.channels(), obs.channels());
  for (std::size_t ch = 0; ch < table.channels(); ++ch) {
    for (std::size_t dm = 1; dm < table.dms(); ++dm) {
      EXPECT_GE(table.delay(dm, ch), table.delay(dm - 1, ch))
          << "dm=" << dm << " ch=" << ch;
    }
  }
  for (std::size_t dm = 0; dm < table.dms(); ++dm) {
    for (std::size_t ch = 1; ch < table.channels(); ++ch) {
      EXPECT_LE(table.delay(dm, ch), table.delay(dm, ch - 1))
          << "higher channels must not lag more";
    }
  }
}

TEST(DelayTable, FirstRowIsZeroWhenDmStartsAtZero) {
  const DelayTable table(testing::mini_obs(), 4);
  for (std::size_t ch = 0; ch < table.channels(); ++ch) {
    EXPECT_EQ(table.delay(0, ch), 0);
  }
}

TEST(DelayTable, MaxDelaySitsAtLowestChannelHighestDm) {
  const Observation obs = testing::mini_obs();
  const DelayTable table(obs, 8);
  EXPECT_EQ(table.max_delay(), table.delay(7, 0));
  EXPECT_GT(table.max_delay(), 0);
}

TEST(DelayTable, ZeroDmVariantHasAllZeroDelays) {
  const DelayTable table(testing::mini_obs().zero_dm_variant(), 8);
  for (std::size_t dm = 0; dm < 8; ++dm)
    for (std::size_t ch = 0; ch < table.channels(); ++ch)
      EXPECT_EQ(table.delay(dm, ch), 0);
  EXPECT_EQ(table.max_delay(), 0);
}

TEST(DelayTable, TileSpreadsDegenerateForSingleTrialTiles) {
  const DelayTable table(testing::mini_obs(), 8);
  const SpreadStats s = table.tile_spreads(1);
  EXPECT_DOUBLE_EQ(s.total_spread, 0.0);
  EXPECT_EQ(s.max_spread, 0);
  EXPECT_EQ(s.rows, 8u * table.channels());
}

TEST(DelayTable, TileSpreadsMatchHandComputation) {
  const Observation obs = testing::mini_obs();
  const DelayTable table(obs, 8);
  const SpreadStats s = table.tile_spreads(4);
  double expected_total = 0.0;
  std::int64_t expected_max = 0;
  for (std::size_t tile = 0; tile < 2; ++tile) {
    for (std::size_t ch = 0; ch < obs.channels(); ++ch) {
      const std::int64_t spread =
          table.delay(tile * 4 + 3, ch) - table.delay(tile * 4, ch);
      expected_total += static_cast<double>(spread);
      expected_max = std::max(expected_max, spread);
    }
  }
  EXPECT_DOUBLE_EQ(s.total_spread, expected_total);
  EXPECT_EQ(s.max_spread, expected_max);
  EXPECT_EQ(s.rows, 2u * obs.channels());
}

TEST(DelayTable, LargerTilesSpreadAtLeastAsMuchPerRow) {
  const DelayTable table(testing::mini_obs(), 8);
  const SpreadStats s2 = table.tile_spreads(2);
  const SpreadStats s8 = table.tile_spreads(8);
  const double per_row2 = s2.total_spread / static_cast<double>(s2.rows);
  const double per_row8 = s8.total_spread / static_cast<double>(s8.rows);
  EXPECT_GE(per_row8, per_row2);
  EXPECT_GE(s8.max_spread, s2.max_spread);
}

TEST(DelayTable, TileSpreadsRejectNonDividingTiles) {
  const DelayTable table(testing::mini_obs(), 8);
  EXPECT_THROW(table.tile_spreads(3), invalid_argument);
  EXPECT_THROW(table.tile_spreads(0), invalid_argument);
}

TEST(DelayTable, ApertifDelaysSmallerThanLofar) {
  // The physical reason Apertif offers more reuse (§IV): higher band ⇒
  // smaller per-trial delay steps.
  const DelayTable ap(apertif(), 64);
  const DelayTable lo(lofar(), 64);
  EXPECT_LT(ap.tile_spreads(64).total_spread /
                static_cast<double>(ap.channels()),
            lo.tile_spreads(64).total_spread /
                static_cast<double>(lo.channels()));
}

// ----------------------------------------------------------------- signal --

TEST(Signal, NoiseIsDeterministicPerSeed) {
  const Observation obs = testing::mini_obs();
  Array2D<float> a(obs.channels(), 128), b(obs.channels(), 128);
  generate_noise(obs, a.view(), NoiseParams{1.0, 0.0, 5});
  generate_noise(obs, b.view(), NoiseParams{1.0, 0.0, 5});
  testing::expect_same_matrix(a, b);
}

TEST(Signal, NoiseMomentsRoughlyMatch) {
  const Observation obs = testing::mini_obs();
  Array2D<float> m(obs.channels(), 4096);
  generate_noise(obs, m.view(), NoiseParams{2.0, 10.0, 3});
  RunningStats rs;
  for (std::size_t ch = 0; ch < m.rows(); ++ch)
    for (float v : m.row(ch)) rs.add(v);
  EXPECT_NEAR(rs.mean(), 10.0, 0.1);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.1);
}

TEST(Signal, PulsarLandsAtDispersedArrivalTimes) {
  const Observation obs = testing::mini_obs();
  Array2D<float> m(obs.channels(), 256);  // starts all-zero
  PulsarParams p;
  p.dm = 1.0;
  p.period_s = 10.0;  // only one pulse inside the window
  p.width_s = 0.01;   // one sample wide
  p.amplitude = 3.0;
  p.first_pulse_s = 0.2;
  inject_pulsar(obs, m.view(), p);
  const double f_top = obs.f_max_mhz();
  for (std::size_t ch = 0; ch < obs.channels(); ++ch) {
    const std::int64_t delay = dispersion_delay_samples(
        p.dm, obs.channel_freq_mhz(ch), f_top, obs.sampling_rate());
    const auto start = static_cast<std::size_t>(20 + delay);
    ASSERT_LT(start, m.cols());
    EXPECT_EQ(m(ch, start), 3.0f) << "channel " << ch;
  }
}

TEST(Signal, PulsesClipAtMatrixEdge) {
  const Observation obs = testing::mini_obs();
  Array2D<float> m(obs.channels(), 16);  // too short for the delays
  PulsarParams p;
  p.dm = 5.0;  // max delay far beyond 16 samples
  p.first_pulse_s = 0.0;
  EXPECT_NO_THROW(inject_pulsar(obs, m.view(), p));
}

TEST(Signal, MakeObservationDataCombinesNoiseAndPulse) {
  const Observation obs = testing::mini_obs();
  PulsarParams p;
  p.dm = 0.0;
  p.amplitude = 50.0;
  p.first_pulse_s = 0.3;
  p.period_s = 10.0;
  p.width_s = 0.01;
  const Array2D<float> m =
      make_observation_data(obs, 128, p, NoiseParams{0.1, 0.0, 1});
  // At DM 0 every channel pulses at the same sample.
  for (std::size_t ch = 0; ch < obs.channels(); ++ch) {
    EXPECT_GT(m(ch, 30), 40.0f);
  }
}

TEST(Signal, RejectsWrongShapesAndParameters) {
  const Observation obs = testing::mini_obs();
  Array2D<float> wrong(obs.channels() + 1, 64);
  EXPECT_THROW(generate_noise(obs, wrong.view(), NoiseParams{}),
               invalid_argument);
  Array2D<float> ok(obs.channels(), 64);
  PulsarParams bad;
  bad.period_s = 0.0;
  EXPECT_THROW(inject_pulsar(obs, ok.view(), bad), invalid_argument);
  bad.period_s = 1.0;
  bad.width_s = 0.0;
  EXPECT_THROW(inject_pulsar(obs, ok.view(), bad), invalid_argument);
}

// -------------------------------------------------------------- detection --

TEST(Detection, SeriesSnrOfConstantIsZero) {
  const std::vector<float> flat(100, 2.0f);
  EXPECT_EQ(series_snr(flat), 0.0);
}

TEST(Detection, SeriesSnrGrowsWithPeakHeight) {
  std::vector<float> a(100, 0.0f), b(100, 0.0f);
  for (std::size_t i = 0; i < 100; ++i) {
    a[i] = static_cast<float>((i * 37 % 11)) * 0.01f;
    b[i] = a[i];
  }
  a[50] += 5.0f;
  b[50] += 15.0f;
  EXPECT_GT(series_snr(b), series_snr(a));
}

TEST(Detection, EmptySeriesRejected) {
  const std::vector<float> empty;
  EXPECT_THROW(series_snr(empty), invalid_argument);
}

TEST(Detection, EvenLengthMedianAveragesTheMiddlePair) {
  // Regression: median_inplace used to take the upper-middle element of an
  // even-length series, biasing the baseline high and the MAD·1.4826 σ
  // estimate with it. For {0, 1, 2, 10} (every step exact in binary):
  //   baseline = (1 + 2) / 2           = 1.5
  //   |x − 1.5| = {1.5, 0.5, 0.5, 8.5} → MAD = (0.5 + 1.5) / 2 = 1.0
  //   σ = 1.4826,  SNR = (10 − 1.5) / 1.4826
  const std::vector<float> series = {0.0f, 1.0f, 2.0f, 10.0f};
  EXPECT_DOUBLE_EQ(series_snr(series), (10.0 - 1.5) / 1.4826);
  // The upper-middle bias would have produced (10 − 2) / (1.4826 · 2).
  EXPECT_NE(series_snr(series), (10.0 - 2.0) / (1.4826 * 2.0));

  // Odd lengths keep the single middle element: {0, 1, 10} → baseline 1,
  // |x − 1| = {1, 0, 9} → MAD 1, σ = 1.4826.
  const std::vector<float> odd = {0.0f, 1.0f, 10.0f};
  EXPECT_DOUBLE_EQ(series_snr(odd), (10.0 - 1.0) / 1.4826);
}

TEST(Detection, FindsRowWithStrongestPeak) {
  Array2D<float> m(4, 64);
  Rng rng(2);
  for (std::size_t r = 0; r < 4; ++r)
    for (auto& v : m.row(r)) v = rng.next_float(-0.1f, 0.1f);
  m(2, 17) = 9.0f;
  const DetectionResult res = detect_best_dm(m.cview());
  EXPECT_EQ(res.best_trial, 2u);
  EXPECT_EQ(res.peak_sample, 17u);
  EXPECT_GT(res.best_snr, 5.0);
}

TEST(Detection, EqualMaximaReportTheFirstIndex) {
  // Short rows finish in one nth_element, long rows split first; both must
  // keep std::max_element's tie-break.
  for (const std::size_t n : {64u, 400u}) {
    Array2D<float> m(3, n);
    Rng rng(5);
    for (std::size_t r = 0; r < 3; ++r)
      for (auto& v : m.row(r)) v = rng.next_float(-0.1f, 0.1f);
    m(1, 20) = 9.0f;
    m(1, n - 7) = 9.0f;
    const DetectionResult res = detect_best_dm(m.cview());
    EXPECT_EQ(res.best_trial, 1u) << n;
    EXPECT_EQ(res.peak_sample, 20u) << n;
  }
}

TEST(Detection, EqualSnrKeepsTheLowerTrial) {
  for (const std::size_t n : {64u, 400u}) {
    Array2D<float> m(4, n);
    Rng rng(6);
    for (std::size_t r = 0; r < 4; ++r)
      for (auto& v : m.row(r)) v = rng.next_float(-0.1f, 0.1f);
    m(1, 9) = 7.0f;
    std::copy(m.row(1).begin(), m.row(1).end(), m.row(3).begin());
    const DetectionResult res = detect_best_dm(m.cview());
    EXPECT_EQ(res.best_trial, 1u) << n;  // strict >: trial 3 only ties
    EXPECT_EQ(res.best_snr, series_snr(m.row(3))) << n;
  }
}

// ------------------------------------------------- detection vs the oracle --
//
// The detector before the linear-time selection: two full nth_element passes
// over a copy of the row, then std::max_element. series_snr and
// detect_best_dm must reproduce it bit for bit on every input.

double reference_median_inplace(std::vector<float>& values) {
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = static_cast<double>(values[mid]);
  if (values.size() % 2 != 0) return upper;
  const double lower = static_cast<double>(
      *std::max_element(values.begin(), values.begin() + mid));
  return 0.5 * (lower + upper);
}

double reference_series_snr(std::span<const float> series) {
  std::vector<float> scratch(series.begin(), series.end());
  const double baseline = reference_median_inplace(scratch);
  for (auto& v : scratch) {
    v = std::abs(v - static_cast<float>(baseline));
  }
  double sigma = 1.4826 * reference_median_inplace(scratch);
  if (sigma <= 0.0) {
    RunningStats rs;
    for (float v : series) rs.add(static_cast<double>(v));
    sigma = rs.stddev();
  }
  if (sigma <= 0.0) return 0.0;
  const double peak = static_cast<double>(
      *std::max_element(series.begin(), series.end()));
  return (peak - baseline) / sigma;
}

DetectionResult reference_detect_best_dm(ConstView2D<float> dedispersed) {
  DetectionResult result;
  result.best_snr = -1.0;
  for (std::size_t trial = 0; trial < dedispersed.rows(); ++trial) {
    const auto row = dedispersed.row(trial);
    const double s = reference_series_snr(row);
    if (s > result.best_snr) {
      result.best_snr = s;
      result.best_trial = trial;
      result.peak_sample = static_cast<std::size_t>(
          std::max_element(row.begin(), row.end()) - row.begin());
    }
  }
  return result;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_snr_matches_oracle(std::span<const float> row,
                               const std::string& what) {
  const double expected = reference_series_snr(row);
  const double actual = series_snr(row);
  EXPECT_TRUE(same_bits(expected, actual))
      << what << ": oracle " << expected << ", series_snr " << actual;
}

void expect_detection_matches_oracle(const Array2D<float>& m,
                                     const std::string& what) {
  const DetectionResult expected = reference_detect_best_dm(m.cview());
  const DetectionResult actual = detect_best_dm(m.cview());
  EXPECT_EQ(expected.best_trial, actual.best_trial) << what;
  EXPECT_EQ(expected.peak_sample, actual.peak_sample) << what;
  EXPECT_TRUE(same_bits(expected.best_snr, actual.best_snr))
      << what << ": oracle " << expected.best_snr << ", detect_best_dm "
      << actual.best_snr;
}

enum class RowKind {
  kGaussian,
  kDequantizedU8,  // cpu_tiled_u8 output: base + scale·Σcodes, heavy ties
  kConstant,
  kMajorityTie,  // > half the samples identical: MAD 0, stddev fallback
  kSignedZeros,  // ±0 majority, negative rest: zero median and zero peak
  kSorted,
  kReverseSorted,
  kBimodal,
  kPulse,
  kPivotAdversarial,  // the first round's nine pivot samples are the maxima
  kRoundedGaussian,   // integers: a median of mixed ±0, a positive peak
};

constexpr RowKind kAllRowKinds[] = {
    RowKind::kGaussian,    RowKind::kDequantizedU8, RowKind::kConstant,
    RowKind::kMajorityTie, RowKind::kSignedZeros,   RowKind::kSorted,
    RowKind::kReverseSorted, RowKind::kBimodal,     RowKind::kPulse,
    RowKind::kPivotAdversarial, RowKind::kRoundedGaussian};

// Around the quickselect's 64-value small-set cutoff and the former
// bracketed path's 256-sample threshold, plus survey-sized rows (Apertif
// 0.02 s and 0.1 s chunks, LOFAR 0.1 s), each odd and even. The maximum
// pass steps four vectors (up to 64 lanes) at a time: 127, 129, 191 and
// 200 end in single-vector steps and a scalar tail on every backend.
constexpr std::size_t kOracleLengths[] = {
    1,   2,   3,   63,  64,  65,   127,  129,  191,  200,   255,
    256, 257, 400, 401, 1000, 1001, 2000, 2001, 20000, 20001};

std::vector<float> make_row(RowKind kind, std::size_t n, Rng& rng) {
  std::vector<float> row(n);
  const auto gaussian = [&rng] { return static_cast<float>(rng.next_normal()); };
  switch (kind) {
    case RowKind::kGaussian:
      for (auto& v : row) v = gaussian();
      break;
    case RowKind::kDequantizedU8: {
      constexpr std::size_t kChannels = 32;
      const float lo = -4.0f;
      const float scale = 8.0f / 255.0f;
      for (auto& v : row) {
        float codes = 0.0f;
        for (std::size_t c = 0; c < kChannels; ++c) {
          codes += std::clamp(std::round(128.0f + 4.0f * gaussian()), 0.0f,
                              255.0f);
        }
        v = static_cast<float>(kChannels) * lo + scale * codes;
      }
      break;
    }
    case RowKind::kConstant:
      std::fill(row.begin(), row.end(), 2.5f);
      break;
    case RowKind::kMajorityTie:
      for (auto& v : row) v = rng.next_double() < 0.6 ? 0.75f : gaussian();
      break;
    case RowKind::kSignedZeros:
      for (auto& v : row) {
        const double u = rng.next_double();
        v = u < 0.35 ? -0.0f : u < 0.7 ? 0.0f : -std::abs(gaussian());
      }
      break;
    case RowKind::kSorted:
    case RowKind::kReverseSorted:
      for (auto& v : row) v = gaussian();
      std::sort(row.begin(), row.end());
      if (kind == RowKind::kReverseSorted) std::reverse(row.begin(), row.end());
      break;
    case RowKind::kBimodal:
      for (auto& v : row) v = gaussian() + (rng.next_double() < 0.5 ? -5.0f : 5.0f);
      break;
    case RowKind::kPulse:
      for (auto& v : row) v = gaussian();
      row[rng.next_below(n)] += 20.0f;
      break;
    case RowKind::kPivotAdversarial: {
      // A selection round pivots on the median of set[j·s + s/2],
      // s = size/9, j = 0…8, and the first round's set is the row. Giving
      // those nine the set's largest values (far above the rest, so also
      // its largest deviations) makes the round keep all but a few values;
      // two such rounds send the rest to the nth_element finish.
      for (auto& v : row) v = gaussian();
      std::vector<std::size_t> set(n);
      std::iota(set.begin(), set.end(), std::size_t{0});
      for (const float base : {200.0f, 100.0f}) {
        if (set.size() <= 64) break;
        const std::size_t s = set.size() / 9;
        for (std::size_t j = 0; j < 9; ++j) {
          row[set[j * s + s / 2]] = base + static_cast<float>(j);
        }
        // The round keeps the values below its pivot, in input order.
        std::erase_if(set, [&](std::size_t i) { return row[i] >= base + 4.0f; });
      }
      break;
    }
    case RowKind::kRoundedGaussian:
      // std::round keeps the sign: values in (−0.5, 0) round to −0.
      for (auto& v : row) v = std::round(gaussian());
      break;
  }
  return row;
}

/// A rows × cols matrix of one kind, every row drawn afresh.
Array2D<float> make_matrix(RowKind kind, std::size_t rows, std::size_t cols,
                           Rng& rng) {
  Array2D<float> m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::vector<float> row = make_row(kind, cols, rng);
    std::copy(row.begin(), row.end(), m.row(r).begin());
  }
  return m;
}

std::string describe(RowKind kind, std::size_t n, std::uint64_t seed) {
  return "kind " + std::to_string(static_cast<int>(kind)) + ", n " +
         std::to_string(n) + ", seed " + std::to_string(seed);
}

/// Every kind at every oracle length, one row per series_snr check and a
/// `rows`-trial matrix of the same kind per detect_best_dm check.
void check_oracle_sweep(std::uint64_t seed, std::size_t rows) {
  for (const RowKind kind : kAllRowKinds) {
    for (const std::size_t n : kOracleLengths) {
      Rng rng(seed * 1000 + n);
      const std::string what = describe(kind, n, seed);
      expect_snr_matches_oracle(make_row(kind, n, rng), what);
      expect_detection_matches_oracle(make_matrix(kind, rows, n, rng), what);
    }
  }
}

TEST(DetectionOracle, EveryRowKindAndLengthMatchesBitwise) {
  check_oracle_sweep(1, 3);
}

TEST(DetectionOracle, StrideAlignedSampleMissesTheBracket) {
  // A periodic structure: every 19th sample is among the largest values.
  // It defeated the strided sample of the former bracketed selection (one
  // sample every n / 1024 = 19 values), putting its bracket above the
  // median and the median deviation; the quickselect must stay exact too.
  const std::size_t n = 20000;
  std::vector<float> row(n);
  Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = i % 19 == 0 ? 100.0f + 0.001f * static_cast<float>(i)
                         : static_cast<float>(rng.next_normal());
  }
  expect_snr_matches_oracle(row, "stride-aligned");
  row.push_back(0.5f);  // odd length: same stride, other median rule
  expect_snr_matches_oracle(row, "stride-aligned, odd");
}

TEST(DetectionOracle, NonFiniteRowsTakeThePlainPath) {
  // The NaN policy belongs to hostile-input handling; here a non-finite
  // row must only run the plain path, exactly as before, and stay clean
  // under the sanitizers.
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    for (const std::size_t n : {64u, 127u, 2000u, 2001u}) {
      // In each of the maximum pass's four vector chains, in its
      // single-vector steps and in its scalar tail.
      for (const std::size_t at : {std::size_t{0}, std::size_t{20},
                                   std::size_t{40}, n / 3, n - 9, n - 1}) {
        Rng rng(n);
        Array2D<float> m(3, n);
        for (std::size_t r = 0; r < 3; ++r)
          for (auto& v : m.row(r)) v = static_cast<float>(rng.next_normal());
        m(1, at) = bad;
        const std::string what = "bad " + std::to_string(bad) + ", n " +
                                 std::to_string(n) + ", at " +
                                 std::to_string(at);
        expect_snr_matches_oracle(m.row(1), what);
        expect_detection_matches_oracle(m, what);
      }
    }
  }
}

// ------------------------------------------------- row-parallel detection --
//
// 64 × 20,001 carries 4.9 · 2^18 samples: detect_best_dm scores it in four
// parts on a machine with four hardware threads or more, as it does
// lofar_rt's 64 × 20,000 chunks; fewer threads split it into fewer parts.

constexpr std::size_t kSplitRows = 64;
constexpr std::size_t kSplitCols = 20001;

std::size_t split_parts() {
  return std::min<std::size_t>(4, hardware_workers());
}

/// The `parts` arg of the `sky.detect` span one call on \p m records.
std::size_t traced_parts(const Array2D<float>& m) {
  telemetry::Tracer& tracer = telemetry::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  detect_best_dm(m.cview());
  tracer.set_enabled(false);
  const std::vector<telemetry::TraceEvent> events = tracer.events();
  tracer.clear();
  EXPECT_EQ(events.size(), 1u);
  if (events.empty()) return 0;
  const json::Value args =
      json::parse("{" + std::string(events[0].args) + "}");
  return static_cast<std::size_t>(args.at("parts").as_number());
}

TEST(DetectionOracle, SplitMatricesOfEveryRowKindMatchBitwise) {
  for (const RowKind kind : kAllRowKinds) {
    Rng rng(7);
    const Array2D<float> m = make_matrix(kind, kSplitRows, kSplitCols, rng);
    expect_detection_matches_oracle(m, describe(kind, kSplitCols, 7));
  }
}

TEST(DetectionSplit, PartsFollowTheMatrixSize) {
  Rng rng(3);
  EXPECT_EQ(traced_parts(make_matrix(RowKind::kGaussian, kSplitRows,
                                     kSplitCols, rng)),
            split_parts());
  // 64 × 4,000 is 256,000 samples, below one part's 2^18: inline.
  EXPECT_EQ(traced_parts(make_matrix(RowKind::kGaussian, kSplitRows, 4000,
                                     rng)),
            1u);
  // Never more parts than rows.
  EXPECT_EQ(traced_parts(make_matrix(RowKind::kGaussian, 1, 300000, rng)),
            1u);
}

TEST(DetectionSplit, EqualSnrAcrossPartsGoesToTheFirstTrial) {
  // Rows are claimed one at a time, so copies spread over the matrix land
  // in different parts; the serial scan must still pick the first copy.
  Rng rng(21);
  Array2D<float> m =
      make_matrix(RowKind::kGaussian, kSplitRows, kSplitCols, rng);
  std::vector<float> loud = make_row(RowKind::kGaussian, kSplitCols, rng);
  loud[1234] += 50.0f;
  for (const std::size_t trial : {9u, 10u, 40u, 63u}) {
    std::copy(loud.begin(), loud.end(), m.row(trial).begin());
  }
  for (int call = 0; call < 10; ++call) {
    const DetectionResult res = detect_best_dm(m.cview());
    EXPECT_EQ(res.best_trial, 9u) << "call " << call;
    EXPECT_EQ(res.peak_sample, 1234u) << "call " << call;
  }
  expect_detection_matches_oracle(m, "duplicated rows");
}

TEST(DetectionSplit, NanRowsNeverWin) {
  Rng rng(31);
  Array2D<float> m = make_matrix(RowKind::kPulse, kSplitRows, kSplitCols, rng);
  m(kSplitRows - 4, 777) = std::numeric_limits<float>::quiet_NaN();
  expect_detection_matches_oracle(m, "NaN in a late row");
  // No S/N beats −1: trial 0, sample 0, as the serial scan reports.
  for (std::size_t r = 0; r < m.rows(); ++r) {
    std::fill(m.row(r).begin(), m.row(r).end(),
              std::numeric_limits<float>::quiet_NaN());
  }
  const DetectionResult res = detect_best_dm(m.cview());
  EXPECT_EQ(res.best_trial, 0u);
  EXPECT_EQ(res.peak_sample, 0u);
  EXPECT_EQ(res.best_snr, -1.0);
}

TEST(DetectionSplit, CallsFromEveryPoolWorkerFinish) {
  // One more call than global_pool() has workers, each from a task on that
  // pool: every worker is inside a call while the calls' own tasks wait
  // behind them, so each caller must score its rows alone.
  Rng rng(41);
  const Array2D<float> m =
      make_matrix(RowKind::kPulse, kSplitRows, kSplitCols, rng);
  const DetectionResult expected = reference_detect_best_dm(m.cview());
  std::vector<DetectionResult> got(hardware_workers() + 1);
  global_pool().parallel_for(0, got.size(), 1,
                             [&](std::size_t begin, std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i) {
                                 got[i] = detect_best_dm(m.cview());
                               }
                             });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].best_trial, expected.best_trial) << "call " << i;
    EXPECT_EQ(got[i].peak_sample, expected.peak_sample) << "call " << i;
    EXPECT_TRUE(same_bits(got[i].best_snr, expected.best_snr)) << "call " << i;
  }
}

TEST(DetectionOracleSlowTier, RandomizedSweepMatchesBitwise) {
  for (std::uint64_t seed = 2; seed < 12; ++seed) check_oracle_sweep(seed, 4);
  // Random lengths from 256 up to survey-sized rows.
  Rng lengths(99);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto n = static_cast<std::size_t>(256 + lengths.next_below(30000));
    for (const RowKind kind : kAllRowKinds) {
      Rng rng(seed);
      expect_snr_matches_oracle(make_row(kind, n, rng),
                                describe(kind, n, seed));
    }
  }
}

}  // namespace
}  // namespace ddmc::sky
