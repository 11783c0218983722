// Unit and property tests for the core library: plans, kernel configs, the
// reference algorithm, the tiled CPU kernels (float and u8, including every
// partial-vector tail), the CPU baseline and the arithmetic-intensity
// analysis.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/expect.hpp"
#include "common/thread_pool.hpp"
#include "dedisp/cpu_baseline.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/intensity.hpp"
#include "dedisp/kernel_config.hpp"
#include "dedisp/plan.hpp"
#include "dedisp/quantize.hpp"
#include "dedisp/reference.hpp"
#include "sky/observation.hpp"
#include "test_util.hpp"

#if defined(__has_include)
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#endif
#if !defined(ASAN_POISON_MEMORY_REGION)
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace ddmc::dedisp {
namespace {

using testing::expect_same_matrix;
using testing::mini_obs;
using testing::mini_plan;
using testing::random_input;

/// The pool a kernel call on \p threads workers runs on, one per count for
/// the whole test binary; 1 runs inline.
ThreadPool* kernel_pool(std::size_t threads) {
  static std::map<std::size_t, WorkerPool> pools;
  return pools.try_emplace(threads, threads).first->second.get();
}

// ------------------------------------------------------------------- plan --

TEST(Plan, FullSecondsRoundsInputToWholeSeconds) {
  const sky::Observation obs = mini_obs();  // 100 samples per second
  const Plan plan(obs, 8, 1);
  EXPECT_EQ(plan.out_samples(), 100u);
  EXPECT_EQ(plan.in_samples() % obs.samples_per_second(), 0u);
  EXPECT_GE(plan.in_samples(),
            plan.out_samples() +
                static_cast<std::size_t>(plan.delays().max_delay()));
}

TEST(Plan, ExplicitOutputSamplesSkipsRounding) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 8, 64);
  EXPECT_EQ(plan.out_samples(), 64u);
  EXPECT_EQ(plan.in_samples(),
            64u + static_cast<std::size_t>(plan.delays().max_delay()));
}

TEST(Plan, TotalFlopIsDBySByC) {
  const Plan plan = mini_plan(8, 64);
  EXPECT_DOUBLE_EQ(plan.total_flop(), 8.0 * 64.0 * 8.0);
}

TEST(Plan, ByteAccountingMatchesDimensions) {
  const Plan plan = mini_plan(8, 64);
  EXPECT_DOUBLE_EQ(plan.output_bytes(), 8.0 * 64.0 * 4.0);
  EXPECT_DOUBLE_EQ(plan.input_bytes(),
                   static_cast<double>(plan.channels()) *
                       static_cast<double>(plan.in_samples()) * 4.0);
}

TEST(Plan, RejectsDegenerateInstances) {
  EXPECT_THROW(Plan(mini_obs(), 0, 1), invalid_argument);
  EXPECT_THROW(Plan(mini_obs(), 8, 0), invalid_argument);
  EXPECT_THROW(Plan::with_output_samples(mini_obs(), 8, 0),
               invalid_argument);
}

TEST(Plan, ZeroDmObservationNeedsNoPadding) {
  const Plan plan =
      Plan::with_output_samples(mini_obs().zero_dm_variant(), 8, 64);
  EXPECT_EQ(plan.in_samples(), 64u);
}

// ---------------------------------------------------------- kernel config --

TEST(KernelConfig, TileArithmetic) {
  const KernelConfig cfg{32, 8, 4, 2};
  EXPECT_EQ(cfg.tile_time(), 128u);
  EXPECT_EQ(cfg.tile_dm(), 16u);
  EXPECT_EQ(cfg.work_group_size(), 256u);
  EXPECT_EQ(cfg.accumulators_per_item(), 8u);
}

TEST(KernelConfig, GridExtents) {
  const Plan plan = mini_plan(8, 64);
  const KernelConfig cfg{8, 2, 4, 2};  // tile 32 time × 4 dm
  EXPECT_EQ(cfg.groups_time(plan), 2u);
  EXPECT_EQ(cfg.groups_dm(plan), 2u);
  EXPECT_EQ(cfg.total_groups(plan), 4u);
  EXPECT_TRUE(cfg.divides(plan));
}

TEST(KernelConfig, ValidateRejectsNonDividingTiles) {
  const Plan plan = mini_plan(8, 64);
  EXPECT_THROW((KernelConfig{5, 1, 1, 1}).validate(plan), config_error);
  EXPECT_THROW((KernelConfig{1, 3, 1, 1}).validate(plan), config_error);
  EXPECT_THROW((KernelConfig{0, 1, 1, 1}).validate(plan), config_error);
  EXPECT_NO_THROW((KernelConfig{8, 2, 8, 4}).validate(plan));
}

TEST(KernelConfig, ValidateRejectsUnsupportedUnrollHints) {
  // Regression: unroll hints without a compiled accumulate instantiation
  // used to fall back silently to the plain loop — a mislabeled timing in
  // any sweep that measured them. They must fail validation instead.
  const Plan plan = mini_plan(8, 64);
  for (const std::size_t unroll : {1ul, 2ul, 4ul, 8ul}) {
    KernelConfig cfg{8, 2, 4, 2};
    cfg.unroll = unroll;
    EXPECT_NO_THROW(cfg.validate(plan)) << unroll;
  }
  for (const std::size_t unroll : {0ul, 3ul, 5ul, 6ul, 7ul, 9ul, 16ul}) {
    KernelConfig cfg{8, 2, 4, 2};
    cfg.unroll = unroll;
    EXPECT_THROW(cfg.validate(plan), config_error) << unroll;
  }
}

TEST(KernelConfig, ToStringAndEquality) {
  const KernelConfig a{1, 2, 3, 4};
  EXPECT_EQ(a.to_string(), "{wi_time=1, wi_dm=2, elem_time=3, elem_dm=4}");
  EXPECT_EQ(a, (KernelConfig{1, 2, 3, 4}));
  EXPECT_NE(a, (KernelConfig{1, 2, 3, 8}));
}

// -------------------------------------------------------------- reference --

TEST(Reference, ZeroDmSumsChannelsAtSameSample) {
  const Plan plan =
      Plan::with_output_samples(mini_obs().zero_dm_variant(), 4, 16);
  Array2D<float> in(plan.channels(), plan.in_samples());
  for (std::size_t ch = 0; ch < in.rows(); ++ch)
    for (std::size_t t = 0; t < in.cols(); ++t)
      in(ch, t) = static_cast<float>(t);
  const Array2D<float> out = dedisperse_reference(plan, in.cview());
  for (std::size_t dm = 0; dm < 4; ++dm)
    for (std::size_t t = 0; t < 16; ++t)
      EXPECT_EQ(out(dm, t), static_cast<float>(t * plan.channels()));
}

TEST(Reference, ImpulseFollowsDelayTable) {
  const Plan plan = mini_plan(8, 64);
  const sky::DelayTable& delays = plan.delays();
  // Put a single spike per channel at the position trial 5 expects.
  Array2D<float> in(plan.channels(), plan.in_samples());
  const std::size_t t_probe = 10;
  for (std::size_t ch = 0; ch < plan.channels(); ++ch) {
    in(ch, t_probe + static_cast<std::size_t>(delays.delay(5, ch))) = 1.0f;
  }
  const Array2D<float> out = dedisperse_reference(plan, in.cview());
  // At the matching trial all channels align: the full channel count.
  EXPECT_EQ(out(5, t_probe), static_cast<float>(plan.channels()));
  // Any other trial catches at most a fraction of the channels there.
  for (std::size_t dm = 0; dm < 8; ++dm) {
    if (dm == 5) continue;
    EXPECT_LT(out(dm, t_probe), static_cast<float>(plan.channels()));
  }
}

TEST(Reference, LinearInInput) {
  const Plan plan = mini_plan(4, 32);
  Array2D<float> a = random_input(plan, 1);
  Array2D<float> b = random_input(plan, 2);
  Array2D<float> sum(plan.channels(), plan.in_samples());
  for (std::size_t ch = 0; ch < sum.rows(); ++ch)
    for (std::size_t t = 0; t < sum.cols(); ++t)
      sum(ch, t) = a(ch, t) + b(ch, t);
  const Array2D<float> out_a = dedisperse_reference(plan, a.cview());
  const Array2D<float> out_b = dedisperse_reference(plan, b.cview());
  const Array2D<float> out_sum = dedisperse_reference(plan, sum.cview());
  for (std::size_t dm = 0; dm < 4; ++dm)
    for (std::size_t t = 0; t < 32; ++t)
      EXPECT_NEAR(out_sum(dm, t), out_a(dm, t) + out_b(dm, t), 1e-4f);
}

TEST(Reference, RejectsWrongShapes) {
  const Plan plan = mini_plan(4, 32);
  Array2D<float> bad_in(plan.channels() + 1, plan.in_samples());
  Array2D<float> out(plan.dms(), plan.out_samples());
  EXPECT_THROW(dedisperse_reference(plan, bad_in.cview(), out.view()),
               invalid_argument);
  Array2D<float> short_in(plan.channels(), plan.out_samples());
  EXPECT_THROW(dedisperse_reference(plan, short_in.cview(), out.view()),
               invalid_argument);
  Array2D<float> in = random_input(plan);
  Array2D<float> bad_out(plan.dms() + 1, plan.out_samples());
  EXPECT_THROW(dedisperse_reference(plan, in.cview(), bad_out.view()),
               invalid_argument);
}

/// Quantization window of the u8 kernel legs; random_input draws from
/// [-1, 1), so the codes use the middle half of the range.
const QuantizationParams kU8Params{-2.0f, 2.0f};

/// Backend-independent oracle of the u8 kernel: every output element is
/// the exact integer code sum Σq, dequantized as C·lo + scale·Σq with the
/// writeback's one rounding (fused where the target has a fast fma).
void expect_exact_u8_sums(const Plan& plan,
                          const Array2D<std::uint8_t>& codes,
                          const QuantizationParams& params,
                          const Array2D<float>& got) {
  ASSERT_EQ(got.rows(), plan.dms());
  ASSERT_EQ(got.cols(), plan.out_samples());
  Array2D<float> exact(plan.dms(), plan.out_samples());
  const float base = static_cast<float>(plan.channels()) * params.lo;
  const float scale = params.scale();
  for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
    for (std::size_t t = 0; t < plan.out_samples(); ++t) {
      std::uint32_t sum = 0;
      for (std::size_t ch = 0; ch < plan.channels(); ++ch) {
        sum += codes(ch, t + static_cast<std::size_t>(
                                 plan.delays().delay(dm, ch)));
      }
#ifdef FP_FAST_FMAF
      exact(dm, t) = std::fma(scale, static_cast<float>(sum), base);
#else
      exact(dm, t) = base + scale * static_cast<float>(sum);
#endif
    }
  }
  expect_same_matrix(exact, got);
}

// ----------------------------------------------- tiled CPU kernel (sweep) --

/// A plan whose tiles fall on both sides of the staging rule
/// (staging_pays): 32 trials on a gentle DM grid, so tiles of all 32
/// trials stage their rows and tiles of up to eight read them in place.
Plan staging_plan(std::size_t out = 64) {
  return Plan::with_output_samples(mini_obs(8, 0.05), 32, out);
}

/// Which side of the staging rule \p config's tiles of \p plan take, as
/// "staged s/n": s of its n (tile, channel block) pairs copy their rows.
std::string staging_note(const Plan& plan, const KernelConfig& config) {
  const StagingTally tally = staging_tally(
      plan.delays().view(), plan.out_samples(), config);
  return "staged " + std::to_string(tally.staged) + "/" +
         std::to_string(tally.blocks);
}

/// Property sweep: every meaningful tiling must reproduce the reference
/// bit-for-bit on float input and the exact code sums on u8 input, inline
/// and threaded, whether its tiles stage their rows or read them in place.
const KernelConfig kEquivalenceGrid[] = {
    // Up to eight trials per tile: every tile reads in place.
    KernelConfig{1, 1, 1, 1}, KernelConfig{2, 1, 1, 1},
    KernelConfig{1, 2, 1, 1}, KernelConfig{4, 2, 2, 2},
    KernelConfig{8, 1, 8, 1}, KernelConfig{2, 4, 4, 2},
    KernelConfig{16, 2, 2, 2}, KernelConfig{4, 8, 1, 1},
    KernelConfig{8, 2, 2, 4}, KernelConfig{1, 8, 1, 1},
    KernelConfig{32, 1, 2, 8}, KernelConfig{16, 4, 4, 2},
    KernelConfig{64, 1, 1, 1}, KernelConfig{2, 2, 16, 2},
    // All 32 trials in one tile: 64-sample tiles stage every block.
    KernelConfig{1, 32, 64, 1}, KernelConfig{2, 16, 32, 2},
    KernelConfig{4, 4, 16, 8, 3, 4},
    // 8-sample tiles of 32 trials: only blocks of small spread stage.
    KernelConfig{8, 4, 1, 8, 1, 2}};

class CpuKernelEquivalence
    : public ::testing::TestWithParam<KernelConfig> {};

TEST_P(CpuKernelEquivalence, MatchesReferenceInlineAndThreaded) {
  const Plan plan = staging_plan();
  const KernelConfig& cfg = GetParam();
  const std::string note = staging_note(plan, cfg);
  std::cout << "[ staging  ] " << cfg.to_string() << ": " << note << "\n";
  SCOPED_TRACE(note);
  const Array2D<float> in = random_input(plan);
  const Array2D<float> expected = dedisperse_reference(plan, in.cview());
  const Array2D<std::uint8_t> codes =
      quantize_plane(plan, in.cview(), kU8Params);
  for (const std::size_t threads : {1ul, 3ul}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool* const pool = kernel_pool(threads);
    expect_same_matrix(expected,
                       dedisperse_cpu(plan, cfg, in.cview(), {}, pool));
    expect_exact_u8_sums(
        plan, codes, kU8Params,
        dedisperse_cpu_u8(plan, cfg, codes.cview(), kU8Params, {}, pool));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, CpuKernelEquivalence, ::testing::ValuesIn(kEquivalenceGrid),
    [](const ::testing::TestParamInfo<KernelConfig>& pinfo) {
      const KernelConfig& c = pinfo.param;
      return "wt" + std::to_string(c.wi_time) + "_wd" +
             std::to_string(c.wi_dm) + "_et" + std::to_string(c.elem_time) +
             "_ed" + std::to_string(c.elem_dm) + "_cb" +
             std::to_string(c.channel_block);
    });

TEST(CpuKernel, EquivalenceGridCoversBothSidesOfTheStagingRule) {
  const Plan plan = staging_plan();
  std::size_t all = 0, none = 0, mixed = 0;
  for (const KernelConfig& cfg : kEquivalenceGrid) {
    const StagingTally tally =
        staging_tally(plan.delays().view(), plan.out_samples(), cfg);
    if (tally.staged == tally.blocks) {
      ++all;
    } else if (tally.staged == 0) {
      ++none;
    } else {
      ++mixed;
    }
  }
  EXPECT_EQ(all, 3u);
  EXPECT_EQ(none, 14u);
  EXPECT_EQ(mixed, 1u);
}

// ------------------------------------------------------- the staging rule --

TEST(StagingRule, StagesFromSixteenReadsPerCopiedElement) {
  const std::vector<std::size_t> flat(8, 0);
  // No spread: a tile of n trials reads each copied element n times.
  EXPECT_TRUE(staging_pays(16, 64, flat));
  EXPECT_FALSE(staging_pays(15, 64, flat));
  // 32·64 reads of 64 + spread copied elements: 16 reads each at 64.
  EXPECT_TRUE(staging_pays(32, 64, std::vector<std::size_t>{64}));
  EXPECT_FALSE(staging_pays(32, 64, std::vector<std::size_t>{65}));
  // The sum runs over the block: one steep channel can tip it.
  EXPECT_TRUE(staging_pays(32, 64, std::vector<std::size_t>{0, 128}));
  EXPECT_FALSE(staging_pays(32, 64, std::vector<std::size_t>{0, 129}));
  // A stage tile of subband holds at most eight trials: never staged.
  for (const std::size_t tile_dm : {1ul, 2ul, 4ul, 8ul}) {
    EXPECT_FALSE(staging_pays(tile_dm, 512, flat)) << tile_dm;
    EXPECT_FALSE(staging_pays(tile_dm, 512, std::vector<std::size_t>(256, 0)))
        << tile_dm;
  }
}

/// The pinned configs of the repository benchmark's streaming workloads
/// (bench/ddmc_bench/workloads.cpp) on their chunk plans.
TEST(StagingRule, ApertifTilesStageAndLofarTilesReadInPlace) {
  const auto tally = [](const sky::Observation& obs, std::size_t dms,
                        std::size_t out, const KernelConfig& cfg) {
    const Plan plan = Plan::with_output_samples(obs, dms, out);
    return staging_tally(plan.delays().view(), plan.out_samples(), cfg);
  };
  // apertif_rt: 128 × 400 tiles, blocks of 32 channels, reuse 63–126.
  const StagingTally rt =
      tally(sky::apertif(), 256, 2000, KernelConfig{8, 16, 50, 8, 32, 4});
  EXPECT_EQ(rt.staged, rt.blocks);
  EXPECT_EQ(rt.blocks, 2u * 5u * 32u);
  // apertif_lowlat: 32 × 200 tiles, blocks of 32 channels, reuse 21–32.
  const StagingTally lowlat =
      tally(sky::apertif(), 32, 400, KernelConfig{4, 4, 50, 8, 32, 4});
  EXPECT_EQ(lowlat.staged, lowlat.blocks);
  EXPECT_EQ(lowlat.blocks, 2u * 32u);
  // lofar_rt: 4 × 2500 tiles over all 32 channels, reuse 2.6; a 32-trial
  // tile of the same plan reaches 4.9.
  const StagingTally lofar =
      tally(sky::lofar(), 64, 20000, KernelConfig{50, 4, 50, 1, 0, 4});
  EXPECT_EQ(lofar.staged, 0u);
  EXPECT_EQ(lofar.blocks, 16u * 8u);
  const StagingTally lofar32 =
      tally(sky::lofar(), 64, 20000, KernelConfig{50, 4, 50, 8, 0, 4});
  EXPECT_EQ(lofar32.staged, 0u);
}

TEST(CpuKernel, GlobalPoolPathMatchesReference) {
  const Plan plan = mini_plan(8, 64);
  const Array2D<float> in = random_input(plan);
  const Array2D<float> expected = dedisperse_reference(plan, in.cview());
  const Array2D<float> got =
      dedisperse_cpu(plan, KernelConfig{8, 2, 4, 2}, in.cview());
  expect_same_matrix(expected, got);
}

TEST(CpuKernel, TileJobsWithRaggedTimeTilesMatchReference) {
  // The plan's delay table split into two jobs of 32 trials, run in one
  // dispatch with time tiles that do not divide the 67 output samples:
  // every job row equals the reference row, inline or threaded. The
  // 4-trial tiles read in place; the 32-trial tiles stage their full
  // 32-sample tiles and read the ragged 3-sample ones in place.
  const Plan plan = Plan::with_output_samples(mini_obs(8, 0.05), 64, 67);
  const Array2D<float> in = random_input(plan);
  const Array2D<float> expected = dedisperse_reference(plan, in.cview());
  const ConstView2D<std::int64_t> delays = plan.delays().view();
  for (const KernelConfig& config :
       {KernelConfig{16, 2, 1, 2, 0, 2}, KernelConfig{16, 4, 2, 8, 0, 2}}) {
    const StagingTally tally = staging_tally(
        ConstView2D<std::int64_t>(delays.data(), 32, delays.cols(),
                                  delays.pitch()),
        plan.out_samples(), config);
    SCOPED_TRACE(config.to_string() + " staged " +
                 std::to_string(tally.staged) + "/" +
                 std::to_string(tally.blocks));
    EXPECT_EQ(tally.staged, config.tile_dm() == 32 ? 2u : 0u);
    for (const std::size_t threads : {1ul, 3ul}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Array2D<float> got(plan.dms(), plan.out_samples());
      std::vector<TileJob<float>> jobs;
      for (std::size_t dm0 : {0ul, 32ul}) {
        jobs.push_back(
            {ConstView2D<std::int64_t>(&delays(dm0, 0), 32, delays.cols(),
                                       delays.pitch()),
             in.cview(),
             View2D<float>(&got(dm0, 0), 32, got.cols(), got.pitch())});
      }
      dedisperse_tiled(jobs, config, {}, kernel_pool(threads));
      expect_same_matrix(expected, got);
    }
  }
}

TEST(CpuKernel, TileJobRejectsAnInputShorterThanItsDelays) {
  const Plan plan = mini_plan(8, 64);
  const Array2D<float> in = random_input(plan);
  Array2D<float> out(plan.dms(), plan.out_samples());
  const TileJob<float> job{
      plan.delays().view(),
      ConstView2D<float>(in.cview().data(), in.rows(), plan.in_samples() - 1,
                         in.pitch()),
      out.view()};
  EXPECT_THROW(dedisperse_tiled(std::span<const TileJob<float>>(&job, 1),
                                KernelConfig{8, 1, 1, 1}),
               invalid_argument);
}

TEST(CpuKernel, InvalidConfigThrows) {
  const Plan plan = mini_plan(8, 64);
  const Array2D<float> in = random_input(plan);
  Array2D<float> out(plan.dms(), plan.out_samples());
  EXPECT_THROW(
      dedisperse_cpu(plan, KernelConfig{5, 1, 1, 1}, in.cview(), out.view()),
      config_error);
}

TEST(CpuKernel, WorksOnZeroDmObservation) {
  const Plan plan =
      Plan::with_output_samples(mini_obs().zero_dm_variant(), 8, 64);
  const Array2D<float> in = random_input(plan);
  const Array2D<float> expected = dedisperse_reference(plan, in.cview());
  const Array2D<float> got =
      dedisperse_cpu(plan, KernelConfig{8, 4, 2, 2}, in.cview());
  expect_same_matrix(expected, got);
}

// ------------------------------------------- SIMD / channel-blocked engine --

TEST(CpuKernel, ChannelBlockAndUnrollAreBitExact) {
  // An 8-trial tile reads in place; a 32-trial tile stages its blocks, a
  // block at a time, channel by channel where the block is one channel.
  const Plan plan = staging_plan();
  const Array2D<float> in = random_input(plan);
  const Array2D<float> expected = dedisperse_reference(plan, in.cview());
  for (const KernelConfig& base :
       {KernelConfig{4, 2, 2, 2}, KernelConfig{4, 4, 16, 8}}) {
    for (std::size_t cb : {0ul, 1ul, 2ul, 3ul, 5ul, 8ul, 100ul}) {
      for (std::size_t unroll : {1ul, 2ul, 4ul}) {
        KernelConfig cfg = base;
        cfg.channel_block = cb;
        cfg.unroll = unroll;
        CpuKernelOptions opt;
        const Array2D<float> got =
            dedisperse_cpu(plan, cfg, in.cview(), opt);
        SCOPED_TRACE(cfg.to_string() + " " + staging_note(plan, cfg));
        expect_same_matrix(expected, got);
      }
    }
  }
}

TEST(CpuKernel, ScalarEngineMatchesSimdEngine) {
  const Plan plan = mini_plan(8, 64);
  const Array2D<float> in = random_input(plan);
  KernelConfig cfg{8, 2, 4, 2};
  cfg.channel_block = 3;
  CpuKernelOptions scalar_opt;
  scalar_opt.vectorize = false;
  CpuKernelOptions simd_opt;
  simd_opt.vectorize = true;
  expect_same_matrix(dedisperse_cpu(plan, cfg, in.cview(), scalar_opt),
                     dedisperse_cpu(plan, cfg, in.cview(), simd_opt));
}

/// Seeded randomized property sweep: random plan shapes and DM grids,
/// random extended configs (channel_block/unroll included), scalar/SIMD,
/// inline and threaded — every combination must reproduce the reference
/// bit-for-bit, and the same draw on the quantized plane its exact code
/// sums. The draws put tiles on both sides of the staging rule.
TEST(CpuKernel, RandomizedExtendedConfigsMatchReference) {
  std::mt19937 gen(20260730);
  auto pick = [&](const std::vector<std::size_t>& v) {
    return v[gen() % v.size()];
  };
  std::size_t staged_draws = 0;  // draws that staged any block
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t channels = pick({4, 8});
    const std::size_t dms = pick({4, 8, 16, 32});
    const std::size_t out = pick({32, 48, 64});
    const double dm_step = std::vector<double>{0.5, 0.05, 0.0}[gen() % 3];
    const Plan plan = dedisp::Plan::with_output_samples(
        mini_obs(channels, dm_step), dms, out);
    const Array2D<float> in = random_input(plan, 1000 + iter);
    const Array2D<float> expected = dedisperse_reference(plan, in.cview());

    // Random dividing tile: factor dms and out into (wi, elem) pairs.
    // Half the DM tiles hold every trial, the tiles most likely to stage.
    auto split = [&](std::size_t total, bool whole) {
      std::vector<std::size_t> divisors;
      for (std::size_t d = 1; d <= total; ++d) {
        if (total % d == 0) divisors.push_back(d);
      }
      const std::size_t tile = whole ? total : pick(divisors);
      std::vector<std::size_t> sub;
      for (std::size_t d = 1; d <= tile; ++d) {
        if (tile % d == 0) sub.push_back(d);
      }
      const std::size_t wi = pick(sub);
      return std::pair<std::size_t, std::size_t>{wi, tile / wi};
    };
    const auto [wt, et] = split(out, false);
    const auto [wd, ed] = split(dms, gen() % 2 == 0);
    KernelConfig cfg{wt, wd, et, ed};
    cfg.channel_block = pick({0, 1, 2, 3, 5, channels, 64});
    cfg.unroll = pick({1, 2, 4, 8});  // the validated set

    CpuKernelOptions opt;
    opt.vectorize = (gen() % 4) != 0;  // bias toward the SIMD engine
    const std::size_t threads = pick({1, 2, 3});
    if (staging_tally(plan.delays().view(), plan.out_samples(), cfg).staged >
        0) {
      ++staged_draws;
    }
    SCOPED_TRACE("iter " + std::to_string(iter) + " ch=" +
                 std::to_string(channels) + " dms=" + std::to_string(dms) +
                 " out=" + std::to_string(out) +
                 " dm_step=" + std::to_string(dm_step) +
                 " cfg=" + cfg.to_string() + " " +
                 staging_note(plan, cfg) +
                 (opt.vectorize ? " simd" : " scalar") + " threads=" +
                 std::to_string(threads));
    const Array2D<float> got =
        dedisperse_cpu(plan, cfg, in.cview(), opt, kernel_pool(threads));
    expect_same_matrix(expected, got);

    const Array2D<std::uint8_t> codes =
        quantize_plane(plan, in.cview(), kU8Params);
    CpuKernelOptions scalar;
    scalar.vectorize = false;
    const Array2D<float> expected_u8 =
        dedisperse_cpu_u8(plan, cfg, codes.cview(), kU8Params, scalar);
    SCOPED_TRACE("u8");
    expect_exact_u8_sums(plan, codes, kU8Params, expected_u8);
    expect_same_matrix(expected_u8,
                       dedisperse_cpu_u8(plan, cfg, codes.cview(), kU8Params,
                                         opt, kernel_pool(threads)));
  }
  // Both sides of the rule were drawn.
  EXPECT_GT(staged_draws, 4u);
  EXPECT_LT(staged_draws, 36u);
}

TEST(CpuKernel, StagingSpanEdgeCases) {
  // One tile spans every trial, so the span of the deepest channel ends at
  // the very last input column. On the gentlest delay table every block
  // stages, copying up to that column; on the steep ones (large dm_step)
  // every block reads in place up to it; in between the blocks split.
  for (double dm_step : {0.02, 0.05, 2.0, 4.0, 8.0}) {
    const sky::Observation obs = mini_obs(8, dm_step);
    const Plan plan = Plan::with_output_samples(obs, 32, 32);
    const Array2D<float> in = random_input(plan);
    const Array2D<float> expected = dedisperse_reference(plan, in.cview());
    KernelConfig cfg{4, 4, 8, 8};
    cfg.channel_block = 2;
    const StagingTally tally =
        staging_tally(plan.delays().view(), plan.out_samples(), cfg);
    SCOPED_TRACE("dm_step=" + std::to_string(dm_step) + " " +
                 staging_note(plan, cfg));
    if (dm_step < 0.03) EXPECT_EQ(tally.staged, tally.blocks);
    if (dm_step > 1.0) EXPECT_EQ(tally.staged, 0u);
    const Array2D<std::uint8_t> codes =
        quantize_plane(plan, in.cview(), kU8Params);
    CpuKernelOptions opt;
    expect_same_matrix(expected, dedisperse_cpu(plan, cfg, in.cview(), opt));
    expect_exact_u8_sums(
        plan, codes, kU8Params,
        dedisperse_cpu_u8(plan, cfg, codes.cview(), kU8Params, opt));
  }
}

TEST(CpuKernel, U8LaneMaxCodesSumExactlyAtEveryChannelCount) {
  // Every code 255 is the worst case for the u8 register tile's 16-bit
  // code lanes: 257 channels fill a lane to 65 535 and one more would wrap.
  // The channel counts sit at, around and at multiples of that sub-block
  // edge; channel blocks of 100 and 300 cut the channel loop below and
  // above it; both output lengths end in single-vector steps and a tail.
  // Tiles of four trials read the codes in place; tiles of 16 trials on a
  // zero-DM grid stage them.
  const QuantizationParams params{-1.0f, 1.0f};
  for (std::size_t channels : {256ul, 257ul, 258ul, 514ul, 1024ul}) {
    for (const std::size_t dms : {4ul, 16ul}) {
      const sky::Observation obs = dms == 4
                                       ? mini_obs(channels)
                                       : mini_obs(channels).zero_dm_variant();
      for (std::size_t out : {67ul, 300ul}) {
        const Plan plan = Plan::with_output_samples(obs, dms, out);
        Array2D<std::uint8_t> codes(plan.channels(), plan.in_samples());
        for (std::size_t ch = 0; ch < codes.rows(); ++ch) {
          for (auto& q : codes.row(ch)) q = 255;
        }
        for (std::size_t block : {0ul, 100ul, 300ul}) {
          for (std::size_t unroll : {2ul, 8ul}) {
            const KernelConfig cfg{out, 2, 1, dms / 2, block, unroll};
            const StagingTally tally =
                staging_tally(plan.delays().view(), out, cfg);
            EXPECT_EQ(tally.staged, dms == 4 ? 0u : tally.blocks);
            for (std::size_t threads : {1ul, 3ul}) {
              SCOPED_TRACE(std::to_string(channels) + " channels, " +
                           cfg.to_string() + " " + staging_note(plan, cfg) +
                           ", threads=" + std::to_string(threads));
              expect_exact_u8_sums(
                  plan, codes, params,
                  dedisperse_cpu_u8(plan, cfg, codes.cview(), params, {},
                                    kernel_pool(threads)));
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------- partial-vector kernel tails --

/// A rows × cols matrix whose every row is followed by guard elements that
/// AddressSanitizer poisons, so a kernel reading its rows in place past the
/// end of any row faults on the sanitizer leg — not only a read past the last row.
template <typename T>
class GuardedRows {
 public:
  GuardedRows(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), pitch_(round_up(cols + 64, 64)),
        data_(rows * pitch_) {
    for (std::size_t r = 0; r < rows_; ++r) {
      ASAN_POISON_MEMORY_REGION(&data_[r * pitch_ + cols_],
                                (pitch_ - cols_) * sizeof(T));
    }
  }
  ~GuardedRows() {
    ASAN_UNPOISON_MEMORY_REGION(data_.data(), data_.size() * sizeof(T));
  }
  GuardedRows(const GuardedRows&) = delete;
  GuardedRows& operator=(const GuardedRows&) = delete;

  T& operator()(std::size_t r, std::size_t c) { return data_[r * pitch_ + c]; }
  ConstView2D<T> cview() const {
    return ConstView2D<T>(data_.data(), rows_, cols_, pitch_);
  }

 private:
  std::size_t rows_, cols_, pitch_;
  std::vector<T> data_;
};

/// Time tiles ≡ 1, 4, 8 and 15 (mod 16): every partial-vector shape of the
/// 16-, 8- and 4-lane backends, including the streaming pins' 200-sample
/// (apertif_lowlat) and 2500-sample (lofar_rt) tiles.
constexpr std::size_t kTailTileTimes[] = {1, 4, 15, 17, 20, 24, 47, 200, 2500};

/// Plans and register tiles of one time tile. On an 8-trial plan: 8 DM
/// rows at once, and 2 rows with the widest unroll and a channel block
/// that splits the band unevenly; their tiles read in place. On a 32-trial
/// plan of small delays: one tile of every trial, which stages its rows
/// from 15-sample tiles up.
struct TailCase {
  Plan plan;
  std::vector<KernelConfig> configs;
};

std::vector<TailCase> tail_cases(std::size_t tile_time) {
  KernelConfig wide{tile_time, 1, 1, 8};
  KernelConfig unrolled{tile_time, 2, 1, 2};
  unrolled.unroll = 8;
  unrolled.channel_block = 3;
  std::vector<TailCase> cases;
  cases.push_back({mini_plan(8, 2 * tile_time), {wide, unrolled}});
  cases.push_back(
      {Plan::with_output_samples(mini_obs(8, 0.01), 32, 2 * tile_time),
       {KernelConfig{tile_time, 4, 1, 8}}});
  return cases;
}

/// \p values copied into rows guarded by poisoned memory.
template <typename T>
void fill_guarded(const Array2D<T>& values, GuardedRows<T>& guarded) {
  for (std::size_t ch = 0; ch < values.rows(); ++ch) {
    for (std::size_t t = 0; t < values.cols(); ++t) {
      guarded(ch, t) = values(ch, t);
    }
  }
}

/// The staging note of \p cfg on \p plan, checking that a 32-trial tile of
/// 15 samples or more stages every block and any smaller tile none.
std::string checked_tail_staging(const Plan& plan, const KernelConfig& cfg) {
  const StagingTally tally =
      staging_tally(plan.delays().view(), plan.out_samples(), cfg);
  if (cfg.tile_dm() < kStagingMinReuse) EXPECT_EQ(tally.staged, 0u);
  if (cfg.tile_dm() == 32 && cfg.tile_time() >= 15) {
    EXPECT_EQ(tally.staged, tally.blocks);
  }
  return cfg.to_string() + " " + staging_note(plan, cfg);
}

TEST(CpuKernelTails, TiledMatchesReferenceForEveryTailWidth) {
  for (const std::size_t tile_time : kTailTileTimes) {
    for (const TailCase& tc : tail_cases(tile_time)) {
      const Plan& plan = tc.plan;
      const Array2D<float> in = random_input(plan, tile_time);
      const Array2D<float> expected = dedisperse_reference(plan, in.cview());
      GuardedRows<float> guarded(plan.channels(), plan.in_samples());
      fill_guarded(in, guarded);
      for (const KernelConfig& cfg : tc.configs) {
        SCOPED_TRACE(checked_tail_staging(plan, cfg));
        CpuKernelOptions opt;
        expect_same_matrix(expected,
                           dedisperse_cpu(plan, cfg, guarded.cview(), opt));
      }
    }
  }
}

TEST(CpuKernelTails, U8MatchesItsScalarEngineForEveryTailWidth) {
  const QuantizationParams& params = kU8Params;
  for (const std::size_t tile_time : kTailTileTimes) {
    for (const TailCase& tc : tail_cases(tile_time)) {
      const Plan& plan = tc.plan;
      const Array2D<float> in = random_input(plan, tile_time);
      const Array2D<std::uint8_t> codes =
          quantize_plane(plan, in.cview(), params);
      GuardedRows<std::uint8_t> guarded(plan.channels(), plan.in_samples());
      fill_guarded(codes, guarded);
      for (const KernelConfig& cfg : tc.configs) {
        SCOPED_TRACE(checked_tail_staging(plan, cfg));
        CpuKernelOptions scalar;
        scalar.vectorize = false;
        const Array2D<float> expected =
            dedisperse_cpu_u8(plan, cfg, guarded.cview(), params, scalar);
        expect_exact_u8_sums(plan, codes, params, expected);
        CpuKernelOptions opt;
        expect_same_matrix(expected, dedisperse_cpu_u8(plan, cfg,
                                                       guarded.cview(), params,
                                                       opt));
      }
    }
  }
}

// ----------------------------------------------------------- CPU baseline --

TEST(CpuBaseline, MatchesReferenceInlineAndThreaded) {
  const Plan plan = mini_plan(8, 64);
  const Array2D<float> in = random_input(plan);
  const Array2D<float> expected = dedisperse_reference(plan, in.cview());
  for (const std::size_t threads : {1ul, 3ul}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_matrix(expected,
                       dedisperse_cpu_baseline(plan, in.cview(), {},
                                               kernel_pool(threads)));
  }
}

TEST(CpuBaseline, HandlesNonMultipleOfEightTails) {
  // 37 output samples: 4 full 8-lane chunks + a 5-sample scalar tail.
  const Plan plan = Plan::with_output_samples(mini_obs(), 4, 37);
  const Array2D<float> in = random_input(plan);
  const Array2D<float> expected = dedisperse_reference(plan, in.cview());
  const Array2D<float> got = dedisperse_cpu_baseline(plan, in.cview());
  expect_same_matrix(expected, got);
}

TEST(CpuBaseline, TimeBlockSizeDoesNotChangeResults) {
  const Plan plan = mini_plan(4, 64);
  const Array2D<float> in = random_input(plan);
  Array2D<float> first(plan.dms(), plan.out_samples());
  CpuBaselineOptions opt;
  opt.time_block = 64;
  dedisperse_cpu_baseline(plan, in.cview(), first.view(), opt);
  for (std::size_t block : {1ul, 7ul, 8ul, 16ul, 33ul}) {
    opt.time_block = block;
    Array2D<float> again(plan.dms(), plan.out_samples());
    dedisperse_cpu_baseline(plan, in.cview(), again.view(), opt);
    expect_same_matrix(first, again);
  }
}

TEST(CpuBaseline, RejectsZeroBlockAndBadShapes) {
  const Plan plan = mini_plan(4, 64);
  const Array2D<float> in = random_input(plan);
  Array2D<float> out(plan.dms(), plan.out_samples());
  CpuBaselineOptions opt;
  opt.time_block = 0;
  EXPECT_THROW(dedisperse_cpu_baseline(plan, in.cview(), out.view(), opt),
               invalid_argument);
}

// -------------------------------------------------- arithmetic intensity --

TEST(Intensity, EquationTwoBound) {
  EXPECT_DOUBLE_EQ(ai_no_reuse_eq2(0.0), 0.25);
  EXPECT_LT(ai_no_reuse_eq2(0.5), 0.25);
  EXPECT_THROW(ai_no_reuse_eq2(-1.0), invalid_argument);
}

TEST(Intensity, EquationThreeBound) {
  // 1 / (4·(1/d + 1/s + 1/c)), hand-checked for d=s=c=12: 1/(4·(3/12)) = 1.
  EXPECT_DOUBLE_EQ(ai_upper_bound_eq3(12, 12, 12), 1.0);
  // Grows without bound as all dimensions grow (the §III-A observation).
  EXPECT_GT(ai_upper_bound_eq3(1e6, 1e6, 1e6), 1e4);
  EXPECT_THROW(ai_upper_bound_eq3(0, 1, 1), invalid_argument);
}

TEST(Intensity, NaiveAiIsBelowEquationTwoBound) {
  const Plan plan = mini_plan(8, 64);
  const IntensityReport r = analyze_intensity(plan, KernelConfig{8, 2, 4, 2});
  EXPECT_LT(r.ai_naive, 0.25);
  EXPECT_GT(r.ai_naive, 0.0);
}

TEST(Intensity, TiledAiNeverBelowNaive) {
  const Plan plan = mini_plan(8, 64);
  for (const auto& cfg :
       {KernelConfig{8, 1, 4, 1}, KernelConfig{8, 2, 4, 2},
        KernelConfig{8, 4, 4, 2}, KernelConfig{4, 8, 2, 1}}) {
    const IntensityReport r = analyze_intensity(plan, cfg);
    EXPECT_GE(r.ai_tiled, r.ai_naive) << cfg.to_string();
    EXPECT_GE(r.reuse_factor, 1.0) << cfg.to_string();
  }
}

TEST(Intensity, ZeroDmReuseEqualsTileDm) {
  // With all delays zero every trial of a tile reads the same row: reuse
  // factor is exactly tile_dm.
  const Plan plan =
      Plan::with_output_samples(mini_obs().zero_dm_variant(), 8, 64);
  const KernelConfig cfg{8, 4, 4, 2};  // tile_dm = 8
  const IntensityReport r = analyze_intensity(plan, cfg);
  EXPECT_DOUBLE_EQ(r.reuse_factor, 8.0);
}

TEST(Intensity, RealDelaysGiveLessReuseThanZeroDm) {
  const KernelConfig cfg{8, 4, 4, 2};
  const IntensityReport real =
      analyze_intensity(mini_plan(8, 64), cfg);
  const Plan zero =
      Plan::with_output_samples(mini_obs().zero_dm_variant(), 8, 64);
  const IntensityReport perfect = analyze_intensity(zero, cfg);
  EXPECT_LT(real.reuse_factor, perfect.reuse_factor);
}

TEST(Intensity, TiledAiStaysFarFromEquationThreeInRealisticSetups) {
  // §III-A's conclusion: the Eq. 3 bound is not approachable with real
  // delay geometry. Check on a LOFAR-like low band where delays diverge.
  const sky::Observation low("low", 1000.0, 8, 100.0, 1.0, 0.0, 2.0);
  const Plan plan = Plan::with_output_samples(low, 8, 128);
  const IntensityReport r = analyze_intensity(plan, KernelConfig{8, 8, 2, 1});
  const double eq3 = ai_upper_bound_eq3(8, 128, 8);
  EXPECT_LT(r.ai_tiled, 0.5 * eq3);
}

}  // namespace
}  // namespace ddmc::dedisp
