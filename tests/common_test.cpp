// Unit tests for the common substrate: aligned buffers, pitched matrices,
// the thread pool, statistics, the deterministic RNG, tables, the CLI and
// the JSON parser on hostile input.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "common/array2d.hpp"
#include "common/cli.hpp"
#include "common/expect.hpp"
#include "common/fft.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "common/simd.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/workspace.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace ddmc {
namespace {

// ---------------------------------------------------------------- aligned --

TEST(Aligned, RoundUpBasics) {
  EXPECT_EQ(round_up(0, 64), 0u);
  EXPECT_EQ(round_up(1, 64), 64u);
  EXPECT_EQ(round_up(64, 64), 64u);
  EXPECT_EQ(round_up(65, 64), 128u);
  EXPECT_EQ(round_up(10, 0), 10u);  // degenerate alignment passes through
}

TEST(Aligned, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div<std::size_t>(4096, 3), 1366u);
}

TEST(Aligned, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(1023));
}

TEST(Aligned, AllocatorReturnsAlignedStorage) {
  AlignedAllocator<float> alloc;
  float* p = alloc.allocate(37);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes, 0u);
  alloc.deallocate(p, 37);
}

TEST(Aligned, AllocatorWorksInsideVector) {
  std::vector<float, AlignedAllocator<float>> v(1000, 1.5f);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0u);
  EXPECT_EQ(v[999], 1.5f);
}

// ---------------------------------------------------------------- array2d --

TEST(Array2D, RowsAreCacheLineAligned) {
  Array2D<float> m(5, 7);  // 7 floats = 28 bytes → pitch rounds to 16 floats
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 7u);
  EXPECT_EQ(m.pitch() * sizeof(float) % kCacheLineBytes, 0u);
  EXPECT_GE(m.pitch(), m.cols());
}

TEST(Array2D, ZeroInitializedAndWritable) {
  Array2D<float> m(3, 4);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0f);
  m(2, 3) = 5.0f;
  EXPECT_EQ(m(2, 3), 5.0f);
}

TEST(Array2D, EmptyMatrixRejected) {
  EXPECT_THROW(Array2D<float>(0, 4), invalid_argument);
  EXPECT_THROW(Array2D<float>(4, 0), invalid_argument);
}

TEST(Array2D, CheckedAccessThrowsOutOfRange) {
  Array2D<float> m(2, 2);
  EXPECT_NO_THROW(m.at(1, 1));
  EXPECT_THROW(m.at(2, 0), invalid_argument);
  EXPECT_THROW(m.at(0, 2), invalid_argument);
}

TEST(Array2D, ViewsShareStorage) {
  Array2D<float> m(2, 3);
  auto v = m.view();
  v(1, 2) = 9.0f;
  EXPECT_EQ(m(1, 2), 9.0f);
  ConstView2D<float> cv = m.cview();
  EXPECT_EQ(cv(1, 2), 9.0f);
}

TEST(Array2D, RowSpanHasExactlyColsElements) {
  Array2D<float> m(4, 10);
  EXPECT_EQ(m.row(0).size(), 10u);
  EXPECT_THROW(m.row(4), invalid_argument);
}

TEST(Array2D, FillSetsEveryElement) {
  Array2D<float> m(3, 5);
  m.fill(2.5f);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 5; ++c) EXPECT_EQ(m(r, c), 2.5f);
}

TEST(View2D, PitchMustCoverRow) {
  std::vector<float> buf(10);
  EXPECT_THROW(View2D<float>(buf.data(), 2, 5, 4), invalid_argument);
}

// ------------------------------------------------------------ thread pool --

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.run([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10, 1,
                        [&](std::size_t b, std::size_t) {
                          if (b == 4) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ConcurrentParallelForCallsAreIsolated) {
  // Two parallel_for calls share one pool: each must wait only on its own
  // blocks and see only its own exceptions (per-call completion state, not
  // the pool-global in_flight_/first_error_).
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<int>> hits(200);
    std::exception_ptr thrower_error;
    std::exception_ptr quiet_error;
    std::thread thrower([&] {
      try {
        pool.parallel_for(0, 100, 3, [](std::size_t b, std::size_t) {
          if (b >= 42) throw std::runtime_error("thrower");
        });
      } catch (...) {
        thrower_error = std::current_exception();
      }
    });
    std::thread quiet([&] {
      try {
        pool.parallel_for(0, 200, 7, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) ++hits[i];
        });
      } catch (...) {
        quiet_error = std::current_exception();
      }
    });
    thrower.join();
    quiet.join();
    EXPECT_TRUE(thrower_error != nullptr);
    EXPECT_TRUE(quiet_error == nullptr);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, RejectsNullTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.run(nullptr), invalid_argument);
}

TEST(ThreadPool, RejectsInvertedRange) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for(5, 2, 1, [](std::size_t, std::size_t) {}),
      invalid_argument);
}

TEST(ThreadPool, WorkerCountDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
}

// ------------------------------------------------------------- statistics --

TEST(Statistics, WelfordMatchesNaive) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / 5.0;
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 5.0;
  EXPECT_NEAR(rs.mean(), mean, 1e-12);
  EXPECT_NEAR(rs.variance(), var, 1e-12);
  EXPECT_EQ(rs.min(), 1.0);
  EXPECT_EQ(rs.max(), 16.0);
}

TEST(Statistics, MergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * 1.5);
    all.add(i * 1.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Statistics, MergeWithEmptySides) {
  RunningStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  RunningStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 1u);
  EXPECT_EQ(c.mean(), 3.0);
}

TEST(Statistics, SummarizeComputesSnrOfMax) {
  const std::vector<double> xs = {1.0, 1.0, 1.0, 1.0, 5.0};
  const StatsSummary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_NEAR(s.mean, 1.8, 1e-12);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_NEAR(s.snr_of_max, (5.0 - 1.8) / s.stddev, 1e-12);
}

TEST(Statistics, SummarizeRejectsEmpty) {
  const std::vector<double> empty;
  EXPECT_THROW(summarize(empty), invalid_argument);
}

TEST(Statistics, SnrZeroForDegeneratePopulation) {
  EXPECT_EQ(snr(5.0, 5.0, 0.0), 0.0);
  EXPECT_NEAR(snr(8.0, 5.0, 1.5), 2.0, 1e-12);
}

TEST(Statistics, ChebyshevBound) {
  EXPECT_EQ(chebyshev_bound(0.5), 1.0);  // clamps below k = 1
  EXPECT_NEAR(chebyshev_bound(1.6), 1.0 / (1.6 * 1.6), 1e-12);
  // The paper quotes < 39% best case and < 5% worst case.
  EXPECT_LT(chebyshev_bound(1.61), 0.39);
  EXPECT_LT(chebyshev_bound(4.5), 0.05);
}

TEST(Statistics, HistogramBinsAndClamps) {
  const std::vector<double> xs = {0.1, 0.2, 0.9, 1.5, -3.0, 99.0};
  const Histogram h = make_histogram(xs, 4, 0.0, 2.0);
  ASSERT_EQ(h.counts.size(), 4u);
  // bins: [0,0.5) [0.5,1.0) [1.0,1.5) [1.5,2.0]; -3 clamps low, 99 high.
  EXPECT_EQ(h.counts[0], 3u);  // 0.1, 0.2, -3.0(clamped)
  EXPECT_EQ(h.counts[1], 1u);  // 0.9
  EXPECT_EQ(h.counts[2], 0u);
  EXPECT_EQ(h.counts[3], 2u);  // 1.5, 99(clamped)
  EXPECT_NEAR(h.bin_width(), 0.5, 1e-12);
  EXPECT_NEAR(h.bin_center(0), 0.25, 1e-12);
}

TEST(Statistics, AutoRangeHistogramSpansData) {
  const std::vector<double> xs = {2.0, 4.0, 6.0};
  const Histogram h = make_histogram(xs, 2);
  EXPECT_EQ(h.lo, 2.0);
  EXPECT_EQ(h.hi, 6.0);
  EXPECT_EQ(h.counts[0] + h.counts[1], 3u);
}

TEST(Statistics, HistogramDegenerateAndErrors) {
  const std::vector<double> same = {3.0, 3.0};
  const Histogram h = make_histogram(same, 4);
  EXPECT_EQ(std::accumulate(h.counts.begin(), h.counts.end(), 0u), 2u);
  EXPECT_THROW(make_histogram(same, 0, 0.0, 1.0), invalid_argument);
  EXPECT_THROW(make_histogram(same, 2, 1.0, 1.0), invalid_argument);
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, FloatRespectsBounds) {
  Rng r(10);
  for (int i = 0; i < 1000; ++i) {
    const float x = r.next_float(-2.0f, 3.0f);
    EXPECT_GE(x, -2.0f);
    EXPECT_LT(x, 3.0f);
  }
}

TEST(Rng, NormalHasZeroMeanUnitVariance) {
  Rng r(11);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(r.next_normal());
  EXPECT_NEAR(rs.mean(), 0.0, 0.03);
  EXPECT_NEAR(rs.stddev(), 1.0, 0.03);
}

// ----------------------------------------------------------------- table --

TEST(TextTable, AlignsColumnsAndSeparatesHeader) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.50"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, CsvOutput) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), invalid_argument);
  EXPECT_THROW(TextTable({}), invalid_argument);
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(std::size_t{42}), "42");
}

// ------------------------------------------------------------------- cli --

TEST(Cli, ParsesOptionsAndFlags) {
  Cli cli("prog", "test program");
  cli.add_option("dms", "trial count", "64");
  cli.add_option("device", "device name", "HD7970");
  cli.add_flag("verbose", "noisy output");
  const char* argv[] = {"prog", "--dms", "128", "--verbose",
                        "--device=K20"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("dms"), 128);
  EXPECT_EQ(cli.get("device"), "K20");
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  Cli cli("prog", "test");
  cli.add_option("x", "a value", "7");
  cli.add_flag("f", "a flag");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("x"), 7);
  EXPECT_FALSE(cli.get_flag("f"));
}

TEST(Cli, HelpShortCircuits) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, RejectsUnknownAndMalformed) {
  Cli cli("prog", "test");
  cli.add_option("x", "v", "1");
  cli.add_flag("f", "flag");
  {
    const char* argv[] = {"prog", "--nope", "1"};
    EXPECT_THROW(cli.parse(3, argv), invalid_argument);
  }
  {
    const char* argv[] = {"prog", "--x"};
    EXPECT_THROW(cli.parse(2, argv), invalid_argument);
  }
  {
    const char* argv[] = {"prog", "--f=1"};
    EXPECT_THROW(cli.parse(2, argv), invalid_argument);
  }
  {
    const char* argv[] = {"prog", "positional"};
    EXPECT_THROW(cli.parse(2, argv), invalid_argument);
  }
}

TEST(Cli, TypedAccessorErrors) {
  Cli cli("prog", "test");
  cli.add_option("s", "a string", "abc");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW(cli.get_int("s"), invalid_argument);
  EXPECT_THROW(cli.get_double("s"), invalid_argument);
  EXPECT_THROW(cli.get("unregistered"), invalid_argument);
  EXPECT_THROW(cli.get_flag("s"), invalid_argument);
}

TEST(Cli, UsageMentionsOptionsAndDefaults) {
  Cli cli("prog", "does things");
  cli.add_option("alpha", "the alpha", "0.5");
  const std::string u = cli.usage();
  EXPECT_NE(u.find("--alpha"), std::string::npos);
  EXPECT_NE(u.find("0.5"), std::string::npos);
  EXPECT_NE(u.find("does things"), std::string::npos);
}

// ----------------------------------------------------------------- timer --

TEST(Stopwatch, MeasuresNonNegativeElapsed) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.milliseconds(), 0.0);
}

// ---------------------------------------------------------------- expect --

TEST(Expect, RequireThrowsInvalidArgument) {
  EXPECT_THROW(DDMC_REQUIRE(false, "reason"), invalid_argument);
  EXPECT_NO_THROW(DDMC_REQUIRE(true, ""));
}

TEST(Expect, EnsureThrowsInternalError) {
  EXPECT_THROW(DDMC_ENSURE(false, "bug"), internal_error);
}

TEST(Expect, MessageCarriesLocationAndReason) {
  try {
    DDMC_REQUIRE(1 == 2, "custom-reason");
    FAIL() << "should have thrown";
  } catch (const invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("custom-reason"), std::string::npos);
    EXPECT_NE(msg.find("common_test.cpp"), std::string::npos);
  }
}

// -------------------------------------------------------------------- fft --

TEST(Fft, NextPow2) {
  EXPECT_EQ(fft::next_pow2(0), 1u);
  EXPECT_EQ(fft::next_pow2(1), 1u);
  EXPECT_EQ(fft::next_pow2(2), 2u);
  EXPECT_EQ(fft::next_pow2(3), 4u);
  EXPECT_EQ(fft::next_pow2(1024), 1024u);
  EXPECT_EQ(fft::next_pow2(1025), 2048u);
}

TEST(Fft, RejectsNonPowerOfTwoSizes) {
  EXPECT_THROW(fft::RealFftPlan(0), invalid_argument);
  EXPECT_THROW(fft::RealFftPlan(12), invalid_argument);
  EXPECT_THROW(fft::RealFftPlan(96), invalid_argument);
}

/// Scratch for one call through \p plan.
std::vector<float> scratch_for(const fft::RealFftPlan& plan) {
  return std::vector<float>(plan.scratch_floats());
}

/// Half spectrum of the n-point zero-padded \p x by the O(n^2) definition
/// (negative-exponent kernel), in double precision.
std::vector<std::complex<double>> naive_rfft(const float* x, std::size_t n_in,
                                             std::size_t n) {
  const double tau = 6.283185307179586476925286766559;
  std::vector<std::complex<double>> bins(fft::rfft_bins(n));
  for (std::size_t k = 0; k < bins.size(); ++k) {
    double re = 0.0, im = 0.0;
    for (std::size_t t = 0; t < n_in; ++t) {
      const double a = -tau * static_cast<double>(k) *
                       static_cast<double>(t) / static_cast<double>(n);
      re += x[t] * std::cos(a);
      im += x[t] * std::sin(a);
    }
    bins[k] = {re, im};
  }
  return bins;
}

TEST(Fft, LengthOneSeriesIsItsOwnSpectrum) {
  // The degenerate transform: one sample, one bin, identity both ways.
  fft::RealFftPlan plan(1);
  EXPECT_EQ(fft::rfft_bins(1), 1u);
  EXPECT_EQ(plan.bins(), 1u);
  Array2D<float> x(1, 1), re(1, 1), im(1, 1), back(1, 1);
  x(0, 0) = 3.25f;
  im(0, 0) = 9.0f;  // must be overwritten
  auto scratch = scratch_for(plan);
  plan.forward(x.cview(), re.view(), im.view(), scratch);
  EXPECT_FLOAT_EQ(re(0, 0), 3.25f);
  EXPECT_FLOAT_EQ(im(0, 0), 0.0f);
  plan.inverse(re.cview(), im.cview(), back.view(), scratch);
  EXPECT_FLOAT_EQ(back(0, 0), 3.25f);
}

TEST(Fft, NonPowerOfTwoInputRoundTripsThroughPadding) {
  // A 97-sample series transformed at the next power of two (128) must
  // come back as the original followed by exact zeros: zero-padding is
  // the contract that lets the dedispersion engine pick its FFT size
  // independently of the plan's sample counts.
  const std::size_t n_in = 97;
  const std::size_t n = fft::next_pow2(n_in);
  ASSERT_EQ(n, 128u);
  Rng rng(42);
  Array2D<float> x(1, n_in);
  for (auto& v : x.row(0)) v = rng.next_float(-1.0f, 1.0f);

  fft::RealFftPlan plan(n);
  Array2D<float> re(1, plan.bins()), im(1, plan.bins()), back(1, n);
  auto scratch = scratch_for(plan);
  plan.forward(x.cview(), re.view(), im.view(), scratch);
  plan.inverse(re.cview(), im.cview(), back.view(), scratch);

  for (std::size_t t = 0; t < n_in; ++t) {
    EXPECT_NEAR(back(0, t), x(0, t), 1e-5f) << "t=" << t;
  }
  for (std::size_t t = n_in; t < n; ++t) {
    EXPECT_NEAR(back(0, t), 0.0f, 1e-5f) << "padded tail t=" << t;
  }
}

TEST(Fft, MatchesTheNaiveDftOnRandomizedSeries) {
  // Property check against the O(n^2) definition, across every size the
  // radix-2 recursion exercises distinctly (1 hits the degenerate real
  // packing, 2 the identity half transform, larger ones full butterflies).
  Rng rng(7);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}, std::size_t{32},
                              std::size_t{128}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Array2D<float> x(1, n);
    for (auto& v : x.row(0)) v = rng.next_float(-1.0f, 1.0f);

    fft::RealFftPlan plan(n);
    Array2D<float> re(1, plan.bins()), im(1, plan.bins());
    auto scratch = scratch_for(plan);
    plan.forward(x.cview(), re.view(), im.view(), scratch);

    const auto ref = naive_rfft(&x(0, 0), n, n);
    const double tol = 1e-4 * std::max<double>(1.0, std::sqrt(n));
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_NEAR(re(0, k), ref[k].real(), tol) << "k=" << k;
      EXPECT_NEAR(im(0, k), ref[k].imag(), tol) << "k=" << k;
    }
  }
}

TEST(Fft, EveryBatchShapeMatchesTheNaiveDftAndRoundTrips) {
  // The plan transforms kFloatLanes series per pass; a short batch pads
  // its spare lanes. Series counts around the lane width (one short
  // batch, a full one, a full one plus a single-series batch) must each
  // give every row its own spectrum, for full, odd and short inputs, and
  // the inverse must write exactly the requested columns.
  const std::size_t lanes = simd::kFloatLanes;
  const std::size_t n = 64;
  fft::RealFftPlan plan(n);
  auto scratch = scratch_for(plan);
  Rng rng(11);
  std::vector<std::size_t> counts = {1, lanes, lanes + 1};
  if (lanes > 1) counts.push_back(lanes - 1);
  for (const std::size_t count : counts) {
    for (const std::size_t n_in : {n, std::size_t{37}, std::size_t{10},
                                   std::size_t{1}}) {
      SCOPED_TRACE("series=" + std::to_string(count) +
                   " n_in=" + std::to_string(n_in));
      Array2D<float> x(count, n_in);
      for (std::size_t r = 0; r < count; ++r) {
        for (auto& v : x.row(r)) v = rng.next_float(-1.0f, 1.0f);
      }
      Array2D<float> re(count, plan.bins()), im(count, plan.bins());
      plan.forward(x.cview(), re.view(), im.view(), scratch);
      for (std::size_t r = 0; r < count; ++r) {
        const auto ref = naive_rfft(&x(r, 0), n_in, n);
        for (std::size_t k = 0; k < ref.size(); ++k) {
          ASSERT_NEAR(re(r, k), ref[k].real(), 1e-4) << "row " << r << " k=" << k;
          ASSERT_NEAR(im(r, k), ref[k].imag(), 1e-4) << "row " << r << " k=" << k;
        }
      }
      // An odd-length read-back leaves the column past it untouched.
      const std::size_t n_out = n_in == n ? n - 1 : (n_in | 1);
      Array2D<float> back(count, n_out + 1);
      back.fill(-7.0f);
      plan.inverse(re.cview(), im.cview(),
                   View2D<float>(&back(0, 0), count, n_out, back.pitch()),
                   scratch);
      for (std::size_t r = 0; r < count; ++r) {
        for (std::size_t t = 0; t < n_out; ++t) {
          const float want = t < n_in ? x(r, t) : 0.0f;
          ASSERT_NEAR(back(r, t), want, 1e-5f) << "row " << r << " t=" << t;
        }
        EXPECT_EQ(back(r, n_out), -7.0f) << "row " << r;
      }
    }
  }
}

TEST(Fft, RejectsShapeMismatchesAndShortScratch) {
  fft::RealFftPlan plan(16);
  Array2D<float> x(2, 17), re(2, plan.bins()), im(2, plan.bins());
  std::vector<float> scratch(plan.scratch_floats());
  EXPECT_THROW(plan.forward(x.cview(), re.view(), im.view(), scratch),
               invalid_argument);  // longer than the transform
  Array2D<float> ok(2, 16), short_re(2, plan.bins() - 1);
  EXPECT_THROW(plan.forward(ok.cview(), short_re.view(), im.view(), scratch),
               invalid_argument);
  Array2D<float> one_row(1, plan.bins());
  EXPECT_THROW(plan.forward(ok.cview(), one_row.view(), im.view(), scratch),
               invalid_argument);
  if (plan.scratch_floats() > 0) {
    std::vector<float> tiny(plan.scratch_floats() - 1);
    EXPECT_THROW(plan.forward(ok.cview(), re.view(), im.view(), tiny),
                 invalid_argument);
  }
}

// --------------------------------------------------------------- workspace --

TEST(Workspace, ScratchBufferGrowsOnlyWhenAShapeNeedsMore) {
  ScratchBuffer<float> buf;
  const float* first = buf.take(1000).data();
  EXPECT_EQ(buf.capacity(), 1000u);
  EXPECT_EQ(buf.take(10).data(), first);  // smaller: reused in place
  EXPECT_EQ(buf.capacity(), 1000u);
  const View2D<float> m = buf.matrix(3, 5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.pitch() * sizeof(float) % kCacheLineBytes, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % kCacheLineBytes, 0u);
  buf.take(5000);
  EXPECT_EQ(buf.capacity(), 5000u);
}

TEST(Workspace, PoolLendsOneWorkspacePerConcurrentCaller) {
  WorkspacePool<ScratchBuffer<float>> pool;
  const float* lent = nullptr;
  {
    auto a = pool.acquire();
    auto b = pool.acquire();  // a is still lent: b must be another one
    EXPECT_NE(&*a, &*b);
    lent = a->take(64).data();
  }
  // Both came back; the next caller reuses one of them, buffers intact.
  auto again = pool.acquire();
  auto other = pool.acquire();
  EXPECT_TRUE(again->capacity() == 64u || other->capacity() == 64u);
  EXPECT_TRUE(again->take(64).data() == lent || other->take(64).data() == lent);
}

// ------------------------------------------------------------------- json --

/// True when \p text parses, false when the parser rejects it with
/// ddmc::invalid_argument; any other outcome (a crash, another exception)
/// fails the test.
bool parses(const std::string& text) {
  try {
    json::parse(text);
    return true;
  } catch (const invalid_argument&) {
    return false;
  }
}

TEST(JsonParse, DeepNestingThrowsAtItsOffsetInsteadOfOverflowingTheStack) {
  const std::size_t cap = json::kMaxDepth;
  EXPECT_TRUE(parses(std::string(cap, '[') + std::string(cap, ']')));
  try {
    json::parse(std::string(cap + 1, '[') + std::string(cap + 1, ']'));
    FAIL() << "nesting past the cap parsed";
  } catch (const invalid_argument& e) {
    // The bracket that opens level cap + 1 sits at offset cap.
    EXPECT_NE(std::string(e.what()).find("offset " + std::to_string(cap)),
              std::string::npos)
        << e.what();
  }
  for (const std::string level : {"[", "{\"k\":", "[1,"}) {
    std::string deep;
    for (int i = 0; i < 1000000; ++i) deep += level;
    EXPECT_FALSE(parses(deep)) << level;
  }
}

TEST(JsonParse, CorruptedSnapshotsParseOrThrowNeverCrash) {
  // A real document: the metrics snapshot, with series of every kind.
  auto& registry = telemetry::MetricsRegistry::instance();
  for (const char* engine : {"cpu_tiled", "fdmt", "we\"ird\\name"}) {
    const telemetry::Labels labels = {{"engine", engine}};
    registry.counter("ddmc.test.json_runs_total", labels)->add(3);
    registry.gauge("ddmc.test.json_threads", labels)->set(4);
    const auto histogram = registry.histogram("ddmc.test.json_ms", labels);
    for (int i = 0; i < 5; ++i) histogram->record(0.5 * i);
  }
  const std::string doc = telemetry::snapshot_json().dump();
  ASSERT_TRUE(parses(doc));

  // Every strict prefix of an object document lacks its closing brace.
  for (std::size_t len = 0; len < doc.size(); ++len) {
    EXPECT_FALSE(parses(doc.substr(0, len))) << "prefix of " << len;
  }
  // Byte flips: one to four random bytes set to random values.
  Rng rng(2026);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bad = doc;
    const std::uint64_t flips = 1 + rng.next_u64() % 4;
    for (std::uint64_t f = 0; f < flips; ++f) {
      bad[rng.next_u64() % bad.size()] = static_cast<char>(rng.next_u64());
    }
    parses(bad);
  }
  // Deep nesting: the document wrapped in arrays under and past the cap,
  // and a million brackets spliced in where a member's value starts (after
  // a ':' outside any string) or at any offset (inside a string they are
  // text, so only the crash-free outcome is required there).
  const auto wrapped = [&](std::size_t levels) {
    return std::string(levels, '[') + doc + std::string(levels, ']');
  };
  EXPECT_TRUE(parses(wrapped(json::kMaxDepth / 2)));
  EXPECT_FALSE(parses(wrapped(json::kMaxDepth)));
  std::vector<std::size_t> value_starts;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (in_string && doc[i] == '\\') {
      ++i;
    } else if (doc[i] == '"') {
      in_string = !in_string;
    } else if (!in_string && doc[i] == ':') {
      value_starts.push_back(i + 1);
    }
  }
  ASSERT_FALSE(value_starts.empty());
  const std::string brackets(1000000, '[');
  for (int trial = 0; trial < 4; ++trial) {
    std::string bad = doc;
    bad.insert(value_starts[rng.next_u64() % value_starts.size()], brackets);
    EXPECT_FALSE(parses(bad));
    bad = doc;
    bad.insert(rng.next_u64() % bad.size(), brackets);
    parses(bad);
  }
}

}  // namespace
}  // namespace ddmc
