// Tests for the high-level Dedisperser API.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "dedisp/fdmt.hpp"
#include "pipeline/dedisperser.hpp"
#include "test_util.hpp"

namespace ddmc::pipeline {
namespace {

using dedisp::KernelConfig;
using testing::expect_same_matrix;
using testing::mini_obs;
using testing::random_input;
using testing::tiled_config;

Dedisperser small(const std::string& engine) {
  return Dedisperser::with_output_samples(mini_obs(), 8, 64, engine);
}

TEST(Dedisperser, AllBitwiseEnginesAgreeBitExactly) {
  Dedisperser ref = small("reference");
  const Array2D<float> in = random_input(ref.plan());
  const Array2D<float> expected = ref.dedisperse(in.cview());

  for (const char* id : {"cpu_tiled", "cpu_baseline"}) {
    SCOPED_TRACE(id);
    Dedisperser dd = small(id);
    // A tiled shape: cpu_baseline declares no axes and runs its defaults.
    dd.set_config(dd.engine().adapt_config(
        dd.plan(), tiled_config(KernelConfig{8, 2, 4, 2})));
    const Array2D<float> got = dd.dedisperse(in.cview());
    expect_same_matrix(expected, got);
  }
}

TEST(Dedisperser, TuneCachedHitsTheCacheOnSecondUse) {
  tuner::TuningCache cache;
  tuner::GuidedTuningOptions opt;
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  opt.strategy = tuner::StrategyKind::kRandom;
  opt.random_samples = 3;

  Dedisperser first = small("cpu_tiled");
  dedisp::CpuKernelOptions cpu;
  cpu.threads = 1;
  first.set_cpu_options(cpu);
  const tuner::GuidedTuningOutcome cold = first.tune_cached(cache, opt);
  EXPECT_EQ(cold.source, tuner::GuidedTuningOutcome::Source::kSearch);
  EXPECT_EQ(first.config(), cold.config);

  // A second pipeline over the same plan and engine tunes for free…
  Dedisperser second = small("cpu_tiled");
  second.set_cpu_options(cpu);
  const tuner::GuidedTuningOutcome warm = second.tune_cached(cache, opt);
  EXPECT_EQ(warm.source, tuner::GuidedTuningOutcome::Source::kCacheHit);
  EXPECT_EQ(warm.configs_evaluated, 0u);
  EXPECT_EQ(second.config(), first.config());

  // …and the tuned config changes nothing about correctness.
  Dedisperser ref = small("reference");
  const Array2D<float> in = random_input(ref.plan());
  expect_same_matrix(ref.dedisperse(in.cview()),
                     second.dedisperse(in.cview()));

  // A different engine signature (thread count) is a different cache key.
  Dedisperser other = small("cpu_tiled");
  dedisp::CpuKernelOptions two;
  two.threads = 2;
  other.set_cpu_options(two);
  const tuner::GuidedTuningOutcome miss = other.tune_cached(cache, opt);
  EXPECT_EQ(miss.source, tuner::GuidedTuningOutcome::Source::kSearch);
}

TEST(Dedisperser, TuneCachedRacesNonTunableEnginesAsSingleCandidates) {
  // Engines without tunable knobs used to be rejected outright; with
  // engine-native config spaces they race as single-candidate entries —
  // the empty config, "the engine's defaults" — so a cross-engine race can
  // include e.g. the reference baseline without special-casing.
  tuner::TuningCache cache;
  tuner::GuidedTuningOptions opt;
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  for (const char* id : {"reference", "cpu_baseline"}) {
    SCOPED_TRACE(id);
    Dedisperser dd = small(id);
    const tuner::GuidedTuningOutcome o = dd.tune_cached(cache, opt);
    EXPECT_EQ(o.engine_id, id);
    EXPECT_EQ(o.source, tuner::GuidedTuningOutcome::Source::kSearch);
    EXPECT_EQ(o.configs_evaluated, 1u);
    EXPECT_TRUE(o.config.empty()) << o.config.to_string();
  }
  EXPECT_EQ(cache.size(), 2u);  // one defaults entry per engine
}

TEST(Dedisperser, TuneCachedSearchesTheSubbandNativeAxes) {
  // The acceptance seam of the engine-native refactor: tuning the subband
  // engine searches *its* axes (subbands × coarse_step), not the tiled
  // kernel shape that is meaningless to it.
  tuner::TuningCache cache;
  tuner::GuidedTuningOptions opt;
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  Dedisperser dd = small("subband");
  dedisp::CpuKernelOptions cpu;
  cpu.threads = 1;
  dd.set_cpu_options(cpu);
  const tuner::GuidedTuningOutcome o = dd.tune_cached(cache, opt);
  EXPECT_EQ(o.engine_id, "subband");
  EXPECT_EQ(o.source, tuner::GuidedTuningOutcome::Source::kSearch);
  EXPECT_GT(o.configs_evaluated, 1u);
  for (const auto& [name, value] : o.config.axes) {
    EXPECT_TRUE(name == "subbands" || name == "coarse_step") << name;
  }
  EXPECT_EQ(dd.config(), o.config);
  // The tuned session still computes: the adopted split is valid.
  const Array2D<float> in = random_input(dd.plan());
  EXPECT_NO_THROW(dd.dedisperse(in.cview()));
}

// ---------------------------------------------------------- engine adoption --

tuner::GuidedTuningOptions race_options(std::vector<std::string> engines) {
  tuner::GuidedTuningOptions opt;
  opt.engines = std::move(engines);
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  return opt;
}

/// Rewrite every cached entry of \p engine_id to report \p seconds, so a
/// warm multi-engine race has a deterministic winner (store() replaces by
/// (host, plan) signature).
void pin_cached_seconds(tuner::TuningCache& cache, const std::string& engine_id,
                        double seconds) {
  const std::vector<tuner::CacheEntry> entries = cache.entries();
  for (tuner::CacheEntry entry : entries) {
    if (entry.host.engine_id == engine_id) {
      entry.seconds = seconds;
      cache.store(entry);
    }
  }
}

TEST(Dedisperser, TuneCachedAdoptsTheRaceWinner) {
  // When tune_cached races several engines, the winner is part of the
  // tuning decision: the Dedisperser switches to it, so subsequent
  // dedisperse() calls run the winning engine — here deliberately not the
  // engine the Dedisperser was constructed with.
  tuner::TuningCache cache;
  for (const char* id : {"cpu_tiled", "cpu_baseline"}) {
    Dedisperser dd = small(id);
    dd.tune_cached(cache, race_options({id}));
  }
  pin_cached_seconds(cache, "cpu_baseline", 1e-9);
  pin_cached_seconds(cache, "cpu_tiled", 1.0);

  Dedisperser dd = small("cpu_tiled");
  const tuner::GuidedTuningOutcome o =
      dd.tune_cached(cache, race_options({"cpu_tiled", "cpu_baseline"}));
  EXPECT_EQ(o.engine_id, "cpu_baseline");
  EXPECT_EQ(dd.engine_id(), "cpu_baseline");  // adopted != requested
  EXPECT_EQ(o.source, tuner::GuidedTuningOutcome::Source::kCacheHit);
  EXPECT_EQ(o.configs_evaluated, 0u);  // whole race answered from the cache

  // The adopted engine computes the same science (bitwise here: both the
  // requested and the adopted engine are bitwise-exact).
  Dedisperser ref = small("reference");
  const Array2D<float> in = random_input(ref.plan());
  expect_same_matrix(ref.dedisperse(in.cview()), dd.dedisperse(in.cview()));
}

TEST(Dedisperser, TuneCachedAdoptsAFdmtRaceWinnerEndToEnd) {
  // The Fourier-domain engine participates in cross-engine adoption like
  // any other: when its cached row wins the race, the session switches to
  // it and subsequent dedisperse() calls run the transform path. fdmt is
  // not bitwise-exact, so the adopted output is checked against its
  // documented error bound rather than bit-for-bit.
  tuner::TuningCache cache;
  for (const char* id : {"cpu_tiled", "fdmt"}) {
    Dedisperser dd = small(id);
    dd.tune_cached(cache, race_options({id}));
  }
  pin_cached_seconds(cache, "fdmt", 1e-9);
  pin_cached_seconds(cache, "cpu_tiled", 1.0);

  Dedisperser dd = small("cpu_tiled");
  const tuner::GuidedTuningOutcome o =
      dd.tune_cached(cache, race_options({"cpu_tiled", "fdmt"}));
  EXPECT_EQ(o.engine_id, "fdmt");
  EXPECT_EQ(dd.engine_id(), "fdmt");
  EXPECT_EQ(o.source, tuner::GuidedTuningOutcome::Source::kCacheHit);
  EXPECT_EQ(o.configs_evaluated, 0u);

  // Recover the adopted split from the winning config's native axes to
  // evaluate the bound the engine documents for it.
  dedisp::SubbandConfig split;
  const auto sb = o.config.axes.find("subbands");
  if (sb != o.config.axes.end()) split.subbands = static_cast<std::size_t>(sb->second);
  const auto cs = o.config.axes.find("coarse_step");
  if (cs != o.config.axes.end()) split.coarse_step = static_cast<std::size_t>(cs->second);

  Dedisperser ref = small("reference");
  const Array2D<float> in = random_input(ref.plan());
  const Array2D<float> expected = ref.dedisperse(in.cview());
  const Array2D<float> got = dd.dedisperse(in.cview());
  const double bound =
      dedisp::fdmt_error_bound(dd.plan(), split, /*max_abs=*/1.0);
  ASSERT_EQ(expected.rows(), got.rows());
  ASSERT_EQ(expected.cols(), got.cols());
  for (std::size_t r = 0; r < expected.rows(); ++r) {
    for (std::size_t c = 0; c < expected.cols(); ++c) {
      ASSERT_NEAR(expected(r, c), got(r, c), bound)
          << "outside the fdmt bound at (" << r << ", " << c << ")";
    }
  }
}

TEST(Dedisperser, TelemetrySurvivesReconfiguration) {
  // Reconfiguring the session (a new config, new cpu options and with
  // them a rebuilt engine) keeps the traffic of the runs before it.
  Dedisperser dd = Dedisperser::with_output_samples(mini_obs(), 12, 60);
  const Array2D<float> input = random_input(dd.plan());
  dd.dedisperse(input.cview());
  EXPECT_EQ(dd.telemetry().runs, 1u);
  dd.set_config(tiled_config(KernelConfig{5, 2, 4, 2}));
  dd.set_cpu_options(dd.cpu_options());
  dd.dedisperse(input.cview());
  const engine::SessionTraffic total = dd.telemetry();
  EXPECT_EQ(total.runs, 2u);
  EXPECT_GT(total.gflops(), 0.0);
}

TEST(Dedisperser, SetConfigValidates) {
  Dedisperser dd = small("cpu_tiled");
  EXPECT_THROW(dd.set_config(tiled_config(KernelConfig{5, 1, 1, 1})),
               config_error);
  EXPECT_NO_THROW(dd.set_config(tiled_config(KernelConfig{8, 2, 2, 2})));
}

TEST(Dedisperser, FullSecondsConstructorMatchesPlanShape) {
  const Dedisperser dd(mini_obs(), 4, "reference", 2);
  EXPECT_EQ(dd.plan().out_samples(), 200u);  // two seconds at 100 Hz
  EXPECT_EQ(dd.plan().dms(), 4u);
}

}  // namespace
}  // namespace ddmc::pipeline
