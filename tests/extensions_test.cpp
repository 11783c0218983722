// Tests for the extension modules: subband (two-stage) dedispersion,
// wall-clock tuning of the tiled host engine, and multi-beam processing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "dedisp/reference.hpp"
#include "dedisp/subband.hpp"
#include "pipeline/multibeam.hpp"
#include "sky/delay.hpp"
#include "sky/detection.hpp"
#include "sky/signal.hpp"
#include "engine/registry.hpp"
#include "test_util.hpp"
#include "tuner/strategy.hpp"

namespace ddmc {
namespace {

using dedisp::KernelConfig;
using dedisp::Plan;
using dedisp::SubbandConfig;
using testing::mini_obs;
using testing::random_input;
using testing::tiled_config;

/// Input with a couple of samples of slack beyond the plan's minimum —
/// the subband method's split delays round intra and inter parts
/// separately and may reach past in_samples by up to two samples.
Array2D<float> padded_input(const Plan& plan, std::uint64_t seed = 7) {
  Array2D<float> in(plan.channels(), plan.in_samples() + 4);
  Rng rng(seed);
  for (std::size_t ch = 0; ch < in.rows(); ++ch) {
    for (auto& v : in.row(ch)) v = rng.next_float(-1.0f, 1.0f);
  }
  return in;
}

// ---------------------------------------------------------------- subband --

/// Two-stage dedispersion of \p in into a fresh output.
Array2D<float> subband(const Plan& plan, const SubbandConfig& cfg,
                       ConstView2D<float> in) {
  Array2D<float> out(plan.dms(), plan.out_samples());
  dedisp::SubbandWorkspace workspace;
  dedisp::dedisperse_subband(plan, cfg, in, out.view(), workspace);
  return out;
}

TEST(Subband, FlopCountFollowsTheTwoStageFormula) {
  const Plan plan = testing::mini_plan(8, 64);
  const SubbandConfig cfg{4, 4};
  // stage1: (8/4)·64·8 + stage2: 8·64·4.
  EXPECT_DOUBLE_EQ(dedisp::subband_flop(plan, cfg),
                   2.0 * 64.0 * 8.0 + 8.0 * 64.0 * 4.0);
}

TEST(Subband, CheaperThanBruteForceForRealisticParameters) {
  const Plan plan(sky::apertif(), 1024);
  const SubbandConfig cfg{32, 16};
  EXPECT_LT(dedisp::subband_flop(plan, cfg), 0.1 * plan.total_flop());
}

TEST(Subband, RejectsNonDividingParameters) {
  const Plan plan = testing::mini_plan(8, 64);
  EXPECT_THROW(dedisp::subband_flop(plan, SubbandConfig{3, 4}),
               invalid_argument);
  EXPECT_THROW(dedisp::subband_flop(plan, SubbandConfig{4, 3}),
               invalid_argument);
  EXPECT_THROW(dedisp::subband_flop(plan, SubbandConfig{0, 1}),
               invalid_argument);
}

TEST(Subband, ZeroDmObservationIsExactUpToAssociation) {
  // All delays vanish, so both stages are plain channel sums; only the
  // summation association differs (per-subband partials), so the results
  // agree to float rounding.
  const Plan plan =
      Plan::with_output_samples(mini_obs().zero_dm_variant(), 8, 64);
  const Array2D<float> in = padded_input(plan);
  const Array2D<float> expected = dedisp::dedisperse_reference(plan, in.cview());
  const Array2D<float> got = subband(plan, SubbandConfig{4, 2}, in.cview());
  for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
    for (std::size_t t = 0; t < plan.out_samples(); ++t) {
      ASSERT_NEAR(expected(dm, t), got(dm, t), 1e-5)
          << "dm=" << dm << " t=" << t;
    }
  }
}

TEST(Subband, DelayErrorBoundIsZeroForDegenerateConfig) {
  // coarse_step == 1 reuses each trial's own shifts: no approximation.
  const Plan plan = testing::mini_plan(8, 64);
  EXPECT_EQ(dedisp::subband_max_delay_error(plan, SubbandConfig{8, 1}), 0);
}

TEST(Subband, DelayErrorGrowsWithCoarseStep) {
  const Plan plan = testing::mini_plan(8, 64);
  const auto e2 = dedisp::subband_max_delay_error(plan, SubbandConfig{4, 2});
  const auto e8 = dedisp::subband_max_delay_error(plan, SubbandConfig{4, 8});
  EXPECT_LE(e2, e8);
}

TEST(Subband, RampInputDeviationBoundedBySmearing) {
  // On a linear ramp, shifting a channel read by e samples changes its
  // contribution by exactly e, so |subband − reference| is bounded by
  // channels × (delay error + rounding slack).
  const Plan plan = testing::mini_plan(8, 64);
  Array2D<float> in(plan.channels(), plan.in_samples() + 4);
  for (std::size_t ch = 0; ch < in.rows(); ++ch) {
    for (std::size_t t = 0; t < in.cols(); ++t) {
      in(ch, t) = static_cast<float>(t);
    }
  }
  const Array2D<float> expected = dedisp::dedisperse_reference(plan, in.cview());
  const SubbandConfig cfg{4, 4};
  const Array2D<float> got = subband(plan, cfg, in.cview());
  const double bound =
      static_cast<double>(plan.channels()) *
      (static_cast<double>(dedisp::subband_max_delay_error(plan, cfg)) + 2.0);
  for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
    for (std::size_t t = 0; t < plan.out_samples(); ++t) {
      EXPECT_LE(std::abs(got(dm, t) - expected(dm, t)), bound)
          << "dm=" << dm << " t=" << t;
    }
  }
}

TEST(Subband, RecoversThePulsarLikeBruteForce) {
  const sky::Observation obs = mini_obs();
  const Plan plan = Plan::with_output_samples(obs, 8, 128);
  sky::PulsarParams pulsar;
  pulsar.dm = obs.dm_value(4);
  pulsar.period_s = 0.4;
  pulsar.width_s = 0.05;  // wide enough to absorb the subband smearing
  pulsar.amplitude = 6.0;
  sky::NoiseParams noise;
  noise.sigma = 0.3;
  Array2D<float> data(obs.channels(), plan.in_samples() + 4);
  sky::generate_noise(obs, data.view(), noise);
  sky::inject_pulsar(obs, data.view(), pulsar);

  const Array2D<float> out = subband(plan, SubbandConfig{4, 2}, data.cview());
  const sky::DetectionResult res = sky::detect_best_dm(out.cview());
  EXPECT_NEAR(static_cast<double>(res.best_trial), 4.0, 1.0);
  EXPECT_GT(res.best_snr, 5.0);
}

TEST(Subband, InputPaddingIsEnforced) {
  const Plan plan = testing::mini_plan(8, 64);
  Array2D<float> exact(plan.channels(), 65);  // far too short
  Array2D<float> out(plan.dms(), plan.out_samples());
  dedisp::SubbandWorkspace workspace;
  EXPECT_THROW(dedisp::dedisperse_subband(plan, SubbandConfig{4, 2},
                                          exact.cview(), out.view(),
                                          workspace),
               invalid_argument);
}

/// The two-stage method as plain scalar loops: stage 1 sums each subband's
/// channels at the coarse trial's intra-subband shifts, stage 2 sums the
/// subband series at each fine trial's inter-subband shifts, both in
/// ascending order from 0.0f.
Array2D<float> two_stage_oracle(const Plan& plan, const SubbandConfig& cfg,
                                const Array2D<float>& in) {
  const sky::Observation& obs = plan.observation();
  const std::size_t cs = plan.channels() / cfg.subbands;
  const double rate = obs.sampling_rate();
  auto top = [&](std::size_t band) {
    return obs.channel_freq_mhz(band * cs + cs - 1) + obs.channel_bw_mhz();
  };
  auto inter = [&](std::size_t dm, std::size_t band) {
    return static_cast<std::size_t>(sky::dispersion_delay_samples(
        obs.dm_value(dm), top(band), obs.f_max_mhz(), rate));
  };
  std::size_t span = plan.out_samples();
  for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
    for (std::size_t band = 0; band < cfg.subbands; ++band) {
      span = std::max(span, plan.out_samples() + inter(dm, band));
    }
  }
  Array2D<float> out(plan.dms(), plan.out_samples());
  for (std::size_t ci = 0; ci < plan.dms() / cfg.coarse_step; ++ci) {
    const double coarse_dm = obs.dm_value(ci * cfg.coarse_step);
    std::vector<std::vector<float>> stage1(cfg.subbands,
                                           std::vector<float>(span, 0.0f));
    for (std::size_t ch = 0; ch < plan.channels(); ++ch) {
      const auto shift =
          static_cast<std::size_t>(sky::dispersion_delay_samples(
              coarse_dm, obs.channel_freq_mhz(ch), top(ch / cs), rate));
      for (std::size_t t = 0; t < span; ++t) {
        stage1[ch / cs][t] += in(ch, shift + t);
      }
    }
    for (std::size_t dm = ci * cfg.coarse_step;
         dm < (ci + 1) * cfg.coarse_step; ++dm) {
      for (std::size_t t = 0; t < plan.out_samples(); ++t) {
        float sum = 0.0f;
        for (std::size_t band = 0; band < cfg.subbands; ++band) {
          sum += stage1[band][inter(dm, band) + t];
        }
        out(dm, t) = sum;
      }
    }
  }
  return out;
}

TEST(Subband, MatchesTwoStageOracleBitwise) {
  // The engine's output, bit for bit, over splits from exact brute force
  // ({channels, 1}) through the tune_cold default ({32, 16}) to one
  // subband, output lengths with SIMD tails, and inline and pooled runs.
  const std::size_t channels = 64;
  const std::vector<SubbandConfig> splits = {
      {channels, 1}, {32, 16}, {8, 4}, {16, 2}, {1, 32}};
  for (const std::size_t samples : {61ul, 64ul, 67ul}) {
    const Plan plan = Plan::with_output_samples(mini_obs(channels, 0.25), 32,
                                                samples);
    Array2D<float> in(plan.channels(), plan.in_samples() + 2);
    Rng rng(samples);
    for (std::size_t ch = 0; ch < in.rows(); ++ch) {
      for (auto& v : in.row(ch)) v = rng.next_float(-1.0f, 1.0f);
    }
    for (const SubbandConfig& split : splits) {
      const Array2D<float> expected = two_stage_oracle(plan, split, in);
      engine::EngineConfig config;
      config.set("subbands", static_cast<std::int64_t>(split.subbands))
          .set("coarse_step", static_cast<std::int64_t>(split.coarse_step));
      for (const std::size_t threads : {1ul, 3ul}) {
        SCOPED_TRACE(config.encode() + " samples=" + std::to_string(samples) +
                     " threads=" + std::to_string(threads));
        engine::EngineOptions options;
        options.cpu.threads = threads;
        Array2D<float> out(plan.dms(), plan.out_samples());
        engine::make_engine("subband", options)
            ->execute(plan, config, in.cview(), out.view());
        for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
          EXPECT_EQ(std::memcmp(&out(dm, 0), &expected(dm, 0),
                                samples * sizeof(float)),
                    0)
              << "trial " << dm;
        }
      }
    }
  }
}

TEST(Subband, WorkspaceTablesFollowThePlanAndTheSplit) {
  // One workspace alternates two DM grids (each plan built anew per call,
  // so they may share an address), a chunk plan of the first, a DM shard
  // of the second, and two splits. After every call its split tables and
  // its output equal those of a fresh workspace.
  const std::vector<SubbandConfig> splits = {{4, 2}, {2, 4}};
  const auto make_plan = [](std::size_t which) {
    const Plan base = Plan::with_output_samples(
        mini_obs(8, which % 2 == 0 ? 0.5 : 0.25), 8, 64);
    if (which == 2) return base.with_chunk(32);
    if (which == 3) return base.dm_shard(4, 4);
    return base;
  };
  const Array2D<float> in = padded_input(make_plan(0));
  dedisp::SubbandWorkspace shared;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t which = 0; which < 4; ++which) {
      for (const SubbandConfig& split : splits) {
        const Plan plan = make_plan(which);
        SCOPED_TRACE("round " + std::to_string(round) + ", plan " +
                     std::to_string(which) + ", split " +
                     std::to_string(split.subbands) + "/" +
                     std::to_string(split.coarse_step));
        Array2D<float> got(plan.dms(), plan.out_samples());
        dedisp::dedisperse_subband(plan, split, in.cview(), got.view(),
                                   shared);
        Array2D<float> want(plan.dms(), plan.out_samples());
        dedisp::SubbandWorkspace fresh;
        dedisp::dedisperse_subband(plan, split, in.cview(), want.view(),
                                   fresh);
        EXPECT_EQ(shared.intra, fresh.intra);
        EXPECT_EQ(shared.inter, fresh.inter);
        EXPECT_EQ(shared.max_intra, fresh.max_intra);
        EXPECT_EQ(shared.max_inter, fresh.max_inter);
        testing::expect_same_matrix(want, got);
      }
    }
  }
}

// ------------------------------------------------------------- host tuner --

/// Single-threaded, single-repetition measurement options.
tuner::HostTuningOptions quick_options() {
  tuner::HostTuningOptions opt;
  opt.repetitions = 1;
  opt.warmup_runs = 0;
  opt.threads = 1;
  return opt;
}

/// The paper's method on the tiled engine: time every config of
/// \p candidates (the engine's whole config_space() when empty).
tuner::StrategyResult sweep(const Plan& plan,
                            std::vector<engine::EngineConfig> candidates) {
  engine::EngineOptions options;
  options.cpu.threads = 1;
  const auto tiled = engine::make_engine("cpu_tiled", options);
  if (candidates.empty()) candidates = tiled->config_space(plan);
  tuner::HostKernelEvaluator evaluator(tiled, plan, quick_options());
  return tuner::ExhaustiveSearch().search(plan, tiled->config_axes(plan),
                                          candidates, evaluator);
}

TEST(HostTuner, FindsABestConfigAndKeepsAllTimings) {
  const Plan plan = testing::mini_plan(8, 64);
  const tuner::StrategyResult r =
      sweep(plan, {tiled_config(KernelConfig{8, 1, 1, 1}),
                   tiled_config(KernelConfig{8, 2, 4, 2}),
                   tiled_config(KernelConfig{16, 4, 2, 2})});
  EXPECT_EQ(r.timings.size(), 3u);
  EXPECT_EQ(r.stats.count, 3u);
  for (const auto& t : r.timings) {
    EXPECT_GT(t.seconds, 0.0);
    EXPECT_LE(t.gflops, r.best.gflops);
    EXPECT_NEAR(t.gflops, plan.total_flop() / t.seconds * 1e-9, 1e-9);
  }
}

TEST(HostTuner, TheEngineRejectsANonDividingTile) {
  const Plan plan = testing::mini_plan(8, 64);
  const auto tiled = engine::make_engine("cpu_tiled");
  EXPECT_THROW(
      tiled->validate_config(plan, tiled_config(KernelConfig{5, 1, 1, 1})),
      config_error);
  EXPECT_NO_THROW(
      tiled->validate_config(plan, tiled_config(KernelConfig{8, 1, 1, 1})));
}

TEST(HostTuner, DefaultLadderIsNonEmptyOnSmallPlans) {
  const Plan plan = testing::mini_plan(8, 64);
  EXPECT_GT(sweep(plan, {}).timings.size(), 10u);
}

TEST(HostTuner, RejectsZeroRepetitions) {
  const Plan plan = testing::mini_plan(8, 64);
  tuner::HostTuningOptions opt;
  opt.repetitions = 0;
  EXPECT_THROW((tuner::HostKernelEvaluator(plan, opt)), invalid_argument);
}

// -------------------------------------------------------------- multibeam --

TEST(MultiBeam, EveryBeamMatchesTheReference) {
  const Plan plan = testing::mini_plan(8, 64);
  pipeline::MultiBeamDedisperser mb(
      plan, tiled_config(KernelConfig{8, 2, 4, 2}), engine::kDefaultEngineId,
      {}, /*threads=*/2);

  std::vector<Array2D<float>> beam_data;
  std::vector<ConstView2D<float>> views;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    beam_data.push_back(random_input(plan, seed));
  }
  for (const auto& b : beam_data) views.push_back(b.cview());

  const std::vector<Array2D<float>> outputs = mb.dedisperse(views);
  ASSERT_EQ(outputs.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    const Array2D<float> expected =
        dedisp::dedisperse_reference(plan, views[b]);
    testing::expect_same_matrix(expected, outputs[b]);
  }
}

TEST(MultiBeam, SearchFindsTheBeamWithThePulsar) {
  const sky::Observation obs = mini_obs();
  const Plan plan = Plan::with_output_samples(obs, 8, 128);
  pipeline::MultiBeamDedisperser mb(
      plan, tiled_config(KernelConfig{16, 2, 4, 2}), engine::kDefaultEngineId,
      {}, /*threads=*/2);

  sky::NoiseParams noise;
  noise.sigma = 0.5;
  std::vector<Array2D<float>> beams;
  for (std::size_t b = 0; b < 4; ++b) {
    noise.seed = 100 + b;
    Array2D<float> data(obs.channels(), plan.in_samples());
    sky::generate_noise(obs, data.view(), noise);
    if (b == 2) {
      sky::PulsarParams pulsar;
      pulsar.dm = obs.dm_value(5);
      pulsar.period_s = 0.4;
      pulsar.width_s = 0.01;
      pulsar.amplitude = 5.0;
      sky::inject_pulsar(obs, data.view(), pulsar);
    }
    beams.push_back(std::move(data));
  }
  std::vector<ConstView2D<float>> views;
  for (const auto& b : beams) views.push_back(b.cview());

  const auto candidate = mb.search(views);
  EXPECT_EQ(candidate.beam, 2u);
  EXPECT_GT(candidate.detection.best_snr, 5.0);
}

TEST(MultiBeam, ValidatesConfigAndInput) {
  const Plan plan = testing::mini_plan(8, 64);
  EXPECT_THROW(
      pipeline::MultiBeamDedisperser(plan,
                                     tiled_config(KernelConfig{5, 1, 1, 1})),
      config_error);
  pipeline::MultiBeamDedisperser mb(plan,
                                    tiled_config(KernelConfig{8, 2, 4, 2}));
  EXPECT_THROW(mb.dedisperse({}), invalid_argument);
  EXPECT_THROW(mb.search({}), invalid_argument);
}

TEST(MultiBeam, RejectsMismatchedBeamShapesBeforeDispatch) {
  const Plan plan = testing::mini_plan(8, 64);
  pipeline::MultiBeamDedisperser mb(plan,
                                    tiled_config(KernelConfig{8, 2, 4, 2}));

  const Array2D<float> good = random_input(plan);
  Array2D<float> short_beam(plan.channels(), plan.in_samples() - 1);
  Array2D<float> wrong_channels(plan.channels() - 1, plan.in_samples());

  // A beam with too few samples is rejected up front (with the beam index
  // in the message), not from inside a worker thread.
  try {
    mb.dedisperse({good.cview(), short_beam.cview()});
    FAIL() << "expected invalid_argument";
  } catch (const invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("beam 1"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(mb.dedisperse({wrong_channels.cview(), good.cview()}),
               invalid_argument);
}

TEST(MultiBeam, SearchTieBreaksToTheLowestBeamIndex) {
  // Identical beams produce identical (bitwise) outputs and hence exactly
  // equal peak S/N — the candidate must deterministically be beam 0.
  const Plan plan = testing::mini_plan(8, 64);
  const Array2D<float> data = random_input(plan);
  const std::vector<ConstView2D<float>> beams = {
      data.cview(), data.cview(), data.cview()};
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    const pipeline::MultiBeamDedisperser mb(
        plan, tiled_config(KernelConfig{8, 2, 4, 2}),
        engine::kDefaultEngineId, {}, threads);
    const auto candidate = mb.search(beams);
    EXPECT_EQ(candidate.beam, 0u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ddmc
