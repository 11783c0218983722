// Tests for tuning by measurement: the tiled engines' search space and
// execution deduplication, the guided search strategies (differential
// against the exhaustive optimum on deterministic synthetic landscapes),
// the persistent tuning cache with nearest-neighbor transfer, and result
// persistence (including a randomized save→load round-trip property). The
// paper's model tuner is tested in model_properties_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/expect.hpp"
#include "common/random.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "engine/engine_config.hpp"
#include "engine/registry.hpp"
#include "test_util.hpp"
#include "tuner/results_io.hpp"
#include "tuner/strategy.hpp"
#include "tuner/tuning_cache.hpp"

namespace ddmc::tuner {
namespace {

using dedisp::KernelConfig;
using dedisp::Plan;
using dedisp::SearchSpace;
using dedisp::default_search_space;
using testing::mini_obs;
using testing::mini_plan;
using testing::tiled_config;

/// The default tiled engine (cpu_tiled) under \p vectorize.
std::shared_ptr<const engine::DedispEngine> tiled_engine(
    bool vectorize = true) {
  engine::EngineOptions options;
  options.cpu.vectorize = vectorize;
  return engine::make_engine("cpu_tiled", options);
}

/// The strategy tests' candidate list: the vectorized tiled engine's whole
/// ladder as a multi-lane build runs it, one config per distinct register
/// tile, before the engine prunes it to the shapes that can win. One-lane
/// builds run every register tile as the same loop and collapse the
/// engine's own space onto the scalar one, so the list is built here from
/// the shared ladder, and multi-lane builds check that the engine's pruned
/// space is drawn from it.
std::vector<engine::EngineConfig> register_tile_space(const Plan& plan) {
  const SearchSpace ladder = default_search_space();
  std::vector<engine::EngineConfig> space;
  std::set<std::vector<std::size_t>> seen;
  for (std::size_t wt : ladder.wi_time) {
    for (std::size_t wd : ladder.wi_dm) {
      if (wt * wd > 1024) continue;
      for (std::size_t et : ladder.elem_time) {
        for (std::size_t ed : ladder.elem_dm) {
          for (std::size_t cb : ladder.channel_block) {
            if (cb >= plan.channels() && cb != 0) continue;
            for (std::size_t un : ladder.unroll) {
              const KernelConfig cfg{wt, wd, et, ed, cb, un};
              if (!cfg.divides(plan)) continue;
              const std::vector<std::size_t> key = {
                  cfg.tile_time(), cfg.tile_dm(),
                  dedisp::compiled_register_extent(ed),
                  cfg.effective_channel_block(plan),
                  dedisp::compiled_register_extent(un)};
              if (seen.insert(key).second) {
                space.push_back(tiled_config(cfg));
              }
            }
          }
        }
      }
    }
  }
  if (dedisp::runs_register_tile({})) {
    std::set<std::string> ladder;
    for (const engine::EngineConfig& cfg : space) ladder.insert(cfg.encode());
    for (const engine::EngineConfig& cfg : tiled_engine()->config_space(plan)) {
      EXPECT_TRUE(ladder.count(cfg.encode())) << cfg.to_string();
    }
  }
  return space;
}

/// The kernel axes of register_tile_space(plan).
std::vector<engine::AxisSpec> register_tile_axes(const Plan& plan) {
  std::vector<KernelConfig> configs;
  for (const engine::EngineConfig& cfg : register_tile_space(plan)) {
    configs.push_back(engine::decode_kernel_config(cfg));
  }
  return engine::kernel_config_axes(configs);
}

// ------------------------------------------------------------ search space --

TEST(SearchSpace, DefaultLaddersAreNonEmptyAndSorted) {
  const SearchSpace s = default_search_space();
  EXPECT_FALSE(s.wi_time.empty());
  EXPECT_FALSE(s.wi_dm.empty());
  EXPECT_FALSE(s.elem_time.empty());
  EXPECT_FALSE(s.elem_dm.empty());
  EXPECT_TRUE(std::is_sorted(s.wi_time.begin(), s.wi_time.end()));
  // The ladder contains the non-power-of-two values behind the paper's
  // 250×4 LOFAR optimum on the GTX 680.
  EXPECT_TRUE(std::count(s.wi_time.begin(), s.wi_time.end(), 250));
}

TEST(SearchSpace, HostEnumerationSweepsChannelBlockAndUnroll) {
  // On a many-channel plan the tiled engine's space crosses the paper's
  // four axes with every ladder channel_block of at most 128 channels (the
  // widest block that can win) and every unroll ladder value.
  const Plan plan = Plan::with_output_samples(sky::apertif(), 16, 200);
  const auto space = tiled_engine()->config_space(plan);
  ASSERT_FALSE(space.empty());
  std::set<std::size_t> blocks, unrolls;
  for (const engine::EngineConfig& encoded : space) {
    const KernelConfig cfg = engine::decode_kernel_config(encoded);
    EXPECT_TRUE(cfg.divides(plan)) << cfg.to_string();
    EXPECT_TRUE(cfg.channel_block == 0 ||
                cfg.channel_block < plan.channels())
        << cfg.to_string();
    blocks.insert(cfg.channel_block);
    unrolls.insert(cfg.unroll);
  }
  const SearchSpace ladder = default_search_space();
  EXPECT_EQ(blocks, (std::set<std::size_t>{32, 128}));
  if (dedisp::runs_register_tile({})) {
    EXPECT_EQ(unrolls.size(), ladder.unroll.size());
  } else {
    // One-lane builds run no register tile: unroll selects nothing.
    EXPECT_EQ(unrolls, std::set<std::size_t>{1});
  }
}

TEST(SearchSpace, HostEnumerationDropsOversizedChannelBlocks) {
  // 8 channels: every ladder block ≥ 8 collapses onto the single-pass 0.
  const Plan plan = mini_plan(8, 64);
  const auto space = tiled_engine()->config_space(plan);
  ASSERT_FALSE(space.empty());
  for (const engine::EngineConfig& cfg : space) {
    EXPECT_EQ(engine::decode_kernel_config(cfg).channel_block, 0u)
        << cfg.to_string();
  }
}

// ------------------------------------------------------------- results io --

namespace {
constexpr const char* kSchemaLine = "# ddmc-tuner-results v3 cols=8\n";
constexpr const char* kHeaderLine =
    "device,observation,dms,config,gflops,seconds,snr,evaluated\n";
// The v2 layout (one column per kernel axis) that load_results migrates.
constexpr const char* kLegacySchemaLine = "# ddmc-tuner-results v2 cols=13\n";
constexpr const char* kLegacyHeaderLine =
    "device,observation,dms,wi_time,wi_dm,elem_time,elem_dm,"
    "channel_block,unroll,gflops,seconds,snr,evaluated\n";

std::string error_of(std::istream& is) {
  try {
    load_results(is);
  } catch (const invalid_argument& e) {
    return e.what();
  }
  return "";
}
}  // namespace

TEST(ResultsIo, RoundTrips) {
  std::vector<ResultRow> rows(2);
  rows[0].device = "HD7970";
  rows[0].observation = "mini";
  rows[0].dms = 8;
  rows[0].config = tiled_config(KernelConfig{8, 2, 4, 2});
  rows[0].gflops = 123.456789;
  rows[0].seconds = 1.5e-4;
  rows[0].snr = 2.75;
  rows[0].evaluated = 42;
  rows[1] = rows[0];
  rows[1].device = "K20";
  rows[1].config = tiled_config(KernelConfig{16, 1, 2, 4});

  std::stringstream ss;
  save_results(ss, rows);
  const std::vector<ResultRow> loaded = load_results(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].device, "HD7970");
  EXPECT_EQ(loaded[1].device, "K20");
  EXPECT_EQ(loaded[0].config, rows[0].config);
  EXPECT_NEAR(loaded[0].gflops, rows[0].gflops, 1e-6 * rows[0].gflops);
  EXPECT_EQ(loaded[0].dms, 8u);
  EXPECT_EQ(loaded, rows);
}

TEST(ResultsIo, SavesTheSchemaLineFirst) {
  std::stringstream ss;
  save_results(ss, {});
  std::string first;
  ASSERT_TRUE(std::getline(ss, first));
  EXPECT_EQ(first, "# ddmc-tuner-results v4 cols=9");
}

TEST(ResultsIo, RejectsCorruptInput) {
  {
    std::stringstream ss("not,a,header\n");
    EXPECT_THROW(load_results(ss), invalid_argument);
  }
  {
    std::stringstream empty;
    EXPECT_THROW(load_results(empty), invalid_argument);
  }
  {
    std::stringstream ss;
    ss << kSchemaLine << kHeaderLine << "HD7970,mini,8,-,1\n";  // truncated
    EXPECT_THROW(load_results(ss), invalid_argument);
  }
  {
    std::stringstream ss;
    ss << kSchemaLine << kHeaderLine
       << "HD7970,mini,eight,-,1.0,1.0,1.0,5\n";  // non-numeric dms
    EXPECT_THROW(load_results(ss), invalid_argument);
  }
  {
    std::stringstream ss;
    ss << kSchemaLine << kHeaderLine
       << "HD7970,mini,8,wi_time:8,1.0,1.0,1.0,5\n";  // malformed config
    EXPECT_THROW(load_results(ss), invalid_argument);
  }
}

TEST(ResultsIo, DiagnosesAPreSchemaFileClearly) {
  // A file written before the schema line existed starts straight with the
  // column header; the error must say so rather than "unexpected header".
  std::stringstream ss;
  ss << kHeaderLine << "K20,Apertif,64,wi_time=32,123.4,0.01,3.2,900\n";
  const std::string msg = error_of(ss);
  EXPECT_NE(msg.find("no schema line"), std::string::npos) << msg;
  EXPECT_NE(msg.find("re-run the sweep"), std::string::npos) << msg;
}

TEST(ResultsIo, DiagnosesVersionAndColumnMismatches) {
  {
    std::stringstream ss;
    ss << "# ddmc-tuner-results v1 cols=11\n";  // stale pre-PR-1 sweep
    const std::string msg = error_of(ss);
    EXPECT_NE(msg.find("version mismatch"), std::string::npos) << msg;
  }
  {
    std::stringstream ss;
    ss << "# ddmc-tuner-results v3 cols=11\n";
    const std::string msg = error_of(ss);
    EXPECT_NE(msg.find("11 columns"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expects 8"), std::string::npos) << msg;
  }
  {
    // A v2 schema line must still declare v2's 13 columns.
    std::stringstream ss;
    ss << "# ddmc-tuner-results v2 cols=8\n";
    const std::string msg = error_of(ss);
    EXPECT_NE(msg.find("8 columns"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expects 13"), std::string::npos) << msg;
  }
  {
    // Schema line ok, but the header row lost a column (hand-edited).
    std::stringstream ss;
    ss << kSchemaLine
       << "device,observation,dms,gflops,seconds,snr,evaluated\n";
    const std::string msg = error_of(ss);
    EXPECT_NE(msg.find("7 columns"), std::string::npos) << msg;
  }
  {
    // Row with the wrong column count names the counts.
    std::stringstream ss;
    ss << kSchemaLine << kHeaderLine << "K20,Apertif,64,-,1.0\n";
    const std::string msg = error_of(ss);
    EXPECT_NE(msg.find("5 columns"), std::string::npos) << msg;
  }
}

TEST(ResultsIo, MigratesV2KernelAxisRowsIntoEngineConfigs) {
  // A results file written by the previous schema (one column per kernel
  // axis) still loads: the six axis columns become the kernel axes of an
  // engine-native config.
  std::stringstream ss;
  ss << kLegacySchemaLine << kLegacyHeaderLine
     << "K20,Apertif,64,32,4,5,2,128,2,123.4,0.01,3.2,900\n"
     << "HD7970,mini,8,1,1,1,1,0,1,1.0,1.0,1.0,5\n";
  const std::vector<ResultRow> rows = load_results(ss);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].config,
            engine::encode_kernel_config(KernelConfig{32, 4, 5, 2, 128, 2}));
  EXPECT_EQ(rows[0].gflops, 123.4);
  EXPECT_EQ(rows[0].evaluated, 900u);
  // A legacy untuned 1×1 row migrates to the *empty* config — valid for
  // every engine, not just the tiled ones.
  EXPECT_TRUE(rows[1].config.empty());
  // Migrated rows re-save in the current schema and round-trip.
  std::stringstream resaved;
  save_results(resaved, rows);
  EXPECT_EQ(load_results(resaved), rows);
}

TEST(ResultsIo, LoadsV3RowsUnprunedAndRoundTripsThePrunedFlag) {
  // A v3 file (written before the pruned column) still loads, every row
  // unpruned; re-saved, it is a v4 file carrying the flag both ways.
  std::stringstream ss;
  ss << kSchemaLine << kHeaderLine
     << "K20,Apertif,64,wi_time=32,123.4,0.01,3.2,900\n";
  std::vector<ResultRow> rows = load_results(ss);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].pruned);
  rows.push_back(rows[0]);
  rows[1].pruned = true;
  std::stringstream resaved;
  save_results(resaved, rows);
  EXPECT_EQ(load_results(resaved), rows);
  {
    std::stringstream bad;
    bad << "# ddmc-tuner-results v4 cols=9\n"
        << "device,observation,dms,config,gflops,seconds,snr,evaluated,"
           "pruned\n"
        << "K20,Apertif,64,-,1.0,1.0,1.0,5,yes\n";
    const std::string msg = error_of(bad);
    EXPECT_NE(msg.find("malformed pruned field"), std::string::npos) << msg;
  }
}

// ----------------------------------------------- host-execution dedup --

TEST(HostDedup, KeyCollapsesWorkItemElementSplits) {
  // The tiled kernel only sees tile extents: {wi_time=8, elem_time=2} and
  // {wi_time=4, elem_time=4} run the identical kernel.
  const Plan plan = mini_plan(8, 64);
  const auto simd = tiled_engine(true);
  const auto key = [&](const engine::DedispEngine& e, const KernelConfig& c) {
    return e.config_key(plan, tiled_config(c));
  };
  const std::string a = key(*simd, KernelConfig{8, 1, 2, 1});
  EXPECT_EQ(a, key(*simd, KernelConfig{4, 1, 4, 1}));
  // The scalar engine ignores the register-tile and unroll knobs.
  const auto scalar = tiled_engine(false);
  EXPECT_EQ(key(*scalar, KernelConfig{8, 1, 2, 2, 0, 4}),
            key(*scalar, KernelConfig{8, 1, 2, 2, 0, 1}));
  if (dedisp::runs_register_tile({})) {
    // elem_dm is a real axis (register-tile rows): it must NOT collapse.
    EXPECT_NE(a, key(*simd, KernelConfig{8, 1, 2, 2}));
    EXPECT_NE(key(*simd, KernelConfig{8, 1, 2, 2, 0, 4}),
              key(*simd, KernelConfig{8, 1, 2, 2, 0, 1}));
  } else {
    // A one-lane build runs the scalar loop either way: same keys.
    for (const KernelConfig& c :
         {KernelConfig{8, 1, 2, 2}, KernelConfig{8, 1, 2, 2, 0, 4}}) {
      EXPECT_EQ(key(*simd, c), key(*scalar, c)) << c.to_string();
    }
  }
  // Oversized channel blocks collapse onto the single-pass key.
  EXPECT_EQ(key(*simd, KernelConfig{8, 1, 1, 1, 0, 1}),
            key(*simd, KernelConfig{8, 1, 1, 1, 999, 1}));
}

TEST(HostDedup, ConfigSpaceHoldsOneConfigPerKernel) {
  const Plan plan = mini_plan(8, 64);
  const auto simd = tiled_engine(true);
  const auto space = simd->config_space(plan);
  ASSERT_FALSE(space.empty());
  std::set<std::string> keys;
  for (const engine::EngineConfig& cfg : space) {
    EXPECT_TRUE(keys.insert(simd->config_key(plan, cfg)).second)
        << cfg.to_string();
    EXPECT_NO_THROW(simd->validate_config(plan, cfg)) << cfg.to_string();
  }
  // Dedup loses no kernel that can win: every dividing point of the ladder
  // whose time tile is the plan's longest (64 samples here, under the
  // 128-sample floor) runs a kernel some entry of the space already
  // represents, and no shorter tile is a candidate.
  const SearchSpace ladder = default_search_space();
  std::size_t points = 0;
  for (std::size_t wt : ladder.wi_time) {
    for (std::size_t wd : ladder.wi_dm) {
      for (std::size_t et : ladder.elem_time) {
        for (std::size_t ed : ladder.elem_dm) {
          for (std::size_t un : ladder.unroll) {
            const KernelConfig cfg{wt, wd, et, ed, 0, un};
            if (wt * wd > 1024 || !cfg.divides(plan)) continue;
            const bool kept = cfg.tile_time() == plan.out_samples();
            points += kept;
            EXPECT_EQ(keys.count(simd->config_key(plan, tiled_config(cfg))),
                      kept ? 1u : 0u)
                << cfg.to_string();
          }
        }
      }
    }
  }
  EXPECT_LT(space.size(), points);  // the ladder has real duplicates
  // The scalar engine's key is coarser, so its space is no larger.
  EXPECT_LE(tiled_engine(false)->config_space(plan).size(), space.size());
}

TEST(HostDedup, ANonDividingTileFailsValidation) {
  const Plan plan = mini_plan(8, 64);
  for (const char* id : {"cpu_tiled", "cpu_tiled_u8"}) {
    SCOPED_TRACE(id);
    const auto tiled = engine::make_engine(id);
    EXPECT_THROW(
        tiled->validate_config(plan, tiled_config(KernelConfig{5, 1, 1, 1})),
        config_error);
    EXPECT_THROW(
        tiled->validate_config(plan, tiled_config(KernelConfig{8, 3, 1, 1})),
        config_error);
    EXPECT_NO_THROW(
        tiled->validate_config(plan, tiled_config(KernelConfig{8, 1, 1, 1})));
  }
}

TEST(HostDedup, ZeroRepetitionsThrowFromTheEvaluator) {
  const Plan plan = mini_plan(8, 64);
  HostTuningOptions opt;
  opt.repetitions = 0;
  EXPECT_THROW((HostKernelEvaluator(plan, opt)), invalid_argument);
  EXPECT_THROW((HostKernelEvaluator(tiled_engine(), plan, opt)),
               invalid_argument);
}

// ------------------------------------------------------------ strategies --

/// Deterministic synthetic landscape over the six axes: smooth log-space
/// penalties around a known sweet spot, so strategy behaviour is testable
/// without wall-clock noise. Optionally honors early-abort semantics.
class SyntheticEvaluator : public ConfigEvaluator {
 public:
  explicit SyntheticEvaluator(const Plan& plan, bool support_abort = false)
      : plan_(plan), support_abort_(support_abort) {}

  double true_seconds(const KernelConfig& cfg) const {
    auto penalty = [](double value, double sweet) {
      const double d = std::log2(value + 1.0) - std::log2(sweet + 1.0);
      return 1.0 + 0.15 * d * d;
    };
    double s = 1e-3;
    s *= penalty(static_cast<double>(cfg.tile_time()), 64.0);
    s *= penalty(static_cast<double>(cfg.tile_dm()), 4.0);
    s *= penalty(
        static_cast<double>(cfg.effective_channel_block(plan_)), 8.0);
    s *= penalty(static_cast<double>(cfg.unroll), 2.0);
    // Mild cross-term so the landscape is not axis-separable.
    s *= 1.0 + 0.01 * std::log2(static_cast<double>(cfg.tile_time()) + 1.0) *
                   static_cast<double>(cfg.unroll);
    return s;
  }

  double true_seconds(const engine::EngineConfig& cfg) const {
    return true_seconds(engine::decode_kernel_config(cfg));
  }

  Measurement measure(const engine::EngineConfig& cfg,
                      double incumbent_seconds) override {
    ++calls_;
    const double t = true_seconds(cfg);
    Measurement m;
    m.repetitions = 1;
    if (support_abort_ && t > incumbent_seconds) {
      m.aborted = true;
      m.seconds = t;
      // A floor that is ≤ the true mean but already above the incumbent —
      // exactly what a partial repetition sum proves.
      m.lower_bound_seconds = std::min(t, incumbent_seconds * 1.25);
      return m;
    }
    m.seconds = t;
    m.lower_bound_seconds = t;
    return m;
  }

  std::size_t calls() const { return calls_; }

 private:
  const Plan& plan_;
  bool support_abort_;
  std::size_t calls_ = 0;
};

TEST(Strategies, ExhaustiveFindsTheGlobalSyntheticOptimum) {
  const Plan plan = mini_plan(8, 64);
  const auto tiled = tiled_engine();
  const auto axes = tiled->config_axes(plan);
  const auto candidates = tiled->config_space(plan);
  ASSERT_GT(candidates.size(), 10u);
  SyntheticEvaluator eval(plan);
  const StrategyResult r =
      ExhaustiveSearch().search(plan, axes, candidates, eval);
  EXPECT_EQ(r.evaluated, candidates.size());
  EXPECT_EQ(r.timings.size(), candidates.size());
  double best = std::numeric_limits<double>::infinity();
  for (const auto& cfg : candidates) {
    best = std::min(best, eval.true_seconds(cfg));
  }
  EXPECT_DOUBLE_EQ(r.best.seconds, best);
  EXPECT_GT(r.stats.snr_of_max, 0.0);
  EXPECT_LT(r.chebyshev_p, 1.0);
}

TEST(Strategies, DifferentialCoordinateDescentNearsTheOptimumCheaply) {
  // The differential bound of the guided strategies: on a deterministic
  // landscape CoordinateDescent must land within 10% of the exhaustive
  // optimum while evaluating a fraction of the space.
  const Plan plan = mini_plan(8, 64);
  const auto axes = register_tile_axes(plan);
  const auto candidates = register_tile_space(plan);
  SyntheticEvaluator ex_eval(plan);
  const StrategyResult ex =
      ExhaustiveSearch().search(plan, axes, candidates, ex_eval);

  SyntheticEvaluator cd_eval(plan);
  const StrategyResult cd =
      CoordinateDescent(7).search(plan, axes, candidates, cd_eval);
  EXPECT_GE(cd.best.gflops, 0.9 * ex.best.gflops);
  EXPECT_LE(cd.evaluated, candidates.size() / 2);
  EXPECT_LE(cd.timings.size() + cd.aborted, cd_eval.calls());
}

TEST(Strategies, DifferentialRandomSearchIsBoundedlyWorse) {
  const Plan plan = mini_plan(8, 64);
  const auto tiled = tiled_engine();
  const auto axes = tiled->config_axes(plan);
  const auto candidates = tiled->config_space(plan);
  SyntheticEvaluator ex_eval(plan);
  const StrategyResult ex =
      ExhaustiveSearch().search(plan, axes, candidates, ex_eval);

  SyntheticEvaluator rs_eval(plan);
  const StrategyResult rs =
      RandomSearch(24, 7).search(plan, axes, candidates, rs_eval);
  EXPECT_EQ(rs.evaluated, std::min<std::size_t>(24, candidates.size()));
  // The landscape's dynamic range is small (smooth penalties), so even a
  // thin sample lands within a bounded factor of the optimum.
  EXPECT_GE(rs.best.gflops, 0.7 * ex.best.gflops);
  // The sampled population's statistics bound the guessing probability.
  EXPECT_GT(rs.chebyshev_p, 0.0);
  EXPECT_LE(rs.chebyshev_p, 1.0);
}

TEST(Strategies, SeededSearchesAreDeterministic) {
  const Plan plan = mini_plan(8, 64);
  const auto tiled = tiled_engine();
  const auto axes = tiled->config_axes(plan);
  const auto candidates = tiled->config_space(plan);
  for (int run = 0; run < 2; ++run) {
    SyntheticEvaluator e1(plan), e2(plan);
    const StrategyResult a =
        CoordinateDescent(99).search(plan, axes, candidates, e1);
    const StrategyResult b =
        CoordinateDescent(99).search(plan, axes, candidates, e2);
    EXPECT_EQ(a.best.config, b.best.config);
    EXPECT_EQ(a.evaluated, b.evaluated);
    const StrategyResult r1 =
        RandomSearch(16, 5).search(plan, axes, candidates, e1);
    const StrategyResult r2 =
        RandomSearch(16, 5).search(plan, axes, candidates, e2);
    EXPECT_EQ(r1.best.config, r2.best.config);
  }
}

TEST(Strategies, CoordinateDescentUsesEarlyAbort) {
  const Plan plan = mini_plan(8, 64);
  const auto tiled = tiled_engine();
  const auto axes = tiled->config_axes(plan);
  const auto candidates = tiled->config_space(plan);
  SyntheticEvaluator eval(plan, /*support_abort=*/true);
  const StrategyResult r =
      CoordinateDescent(7).search(plan, axes, candidates, eval);
  // Hopeless neighbors are abandoned mid-measurement…
  EXPECT_GT(r.aborted, 0u);
  // …and every completed timing is a full (exact) measurement — aborted
  // configs never leak into the population.
  for (const auto& t : r.timings) {
    EXPECT_DOUBLE_EQ(t.seconds, eval.true_seconds(t.config));
  }
  SyntheticEvaluator plain(plan);
  const StrategyResult no_abort =
      CoordinateDescent(7).search(plan, axes, candidates, plain);
  // Early abort must not change the answer, only its cost.
  EXPECT_EQ(r.best.config, no_abort.best.config);
}

TEST(Strategies, RealMeasurementSmoke) {
  // One real wall-clock run of each strategy on the miniature plan: the
  // machinery works end to end on the actual kernels.
  const Plan plan = mini_plan(8, 64);
  HostTuningOptions opt;
  opt.repetitions = 1;
  opt.warmup_runs = 0;
  opt.threads = 1;
  const auto tiled = tiled_engine();
  const auto axes = tiled->config_axes(plan);
  const auto candidates = tiled->config_space(plan);
  ASSERT_FALSE(candidates.empty());
  HostKernelEvaluator eval(plan, opt);
  const StrategyResult cd =
      CoordinateDescent(3, 2, 4, 0).search(plan, axes, candidates, eval);
  EXPECT_GT(cd.best.gflops, 0.0);
  EXPECT_LE(cd.evaluated, candidates.size());
  // Without restarts the threshold only tightens, so every evaluator call
  // is a distinct config.
  EXPECT_EQ(eval.measurements(), cd.evaluated);
}

// ------------------------------------------------- race-bounded searches --

/// Records the candidate index of every measurement a search makes, on the
/// abort-honouring synthetic landscape.
class RecordingEvaluator : public SyntheticEvaluator {
 public:
  RecordingEvaluator(const Plan& plan,
                     const std::vector<engine::EngineConfig>& candidates)
      : SyntheticEvaluator(plan, /*support_abort=*/true) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      index_[candidates[i].encode()] = i;
    }
  }

  Measurement measure(const engine::EngineConfig& cfg,
                      double incumbent_seconds) override {
    sequence.push_back(index_.at(cfg.encode()));
    return SyntheticEvaluator::measure(cfg, incumbent_seconds);
  }

  std::vector<std::size_t> sequence;

 private:
  std::map<std::string, std::size_t> index_;
};

/// Times from a table, aborted the way HostKernelEvaluator aborts: three
/// repetitions of `t` each, stopped after k < 3 of them once k·t/3 exceeds
/// the threshold, the floor being that partial sum over three.
class TableEvaluator : public ConfigEvaluator {
 public:
  explicit TableEvaluator(std::function<double(const engine::EngineConfig&)>
                              seconds)
      : seconds_(std::move(seconds)) {}

  Measurement measure(const engine::EngineConfig& cfg,
                      double incumbent_seconds) override {
    ++calls_;
    const double t = seconds_(cfg);
    Measurement m;
    for (m.repetitions = 1; m.repetitions < 3; ++m.repetitions) {
      if (t * static_cast<double>(m.repetitions) / 3.0 > incumbent_seconds) {
        m.aborted = true;
        break;
      }
    }
    m.seconds = t;
    m.lower_bound_seconds =
        m.aborted ? t * static_cast<double>(m.repetitions) / 3.0 : t;
    return m;
  }

  std::size_t calls() const { return calls_; }

 private:
  std::function<double(const engine::EngineConfig&)> seconds_;
  std::size_t calls_ = 0;
};

TEST(Strategies, WithoutABoundCoordinateDescentMeasuresAsALoneSearch) {
  // The exact sequences CoordinateDescent measured before the race bound
  // existed, on the abort-honouring landscape: with no bound, and with an
  // infinite one, the race machinery must not move a single measurement.
  const Plan plan = mini_plan(8, 64);
  const auto axes = register_tile_axes(plan);
  const auto candidates = register_tile_space(plan);
  ASSERT_EQ(candidates.size(), 210u);
  const std::map<std::uint64_t, std::vector<std::size_t>> expected = {
      {7, {84,  104, 78,  64,  131, 65,  67,  70,  55,  187, 199, 188,
           190, 184, 106, 16,  178, 19,  113, 166, 179, 175, 208, 202,
           193, 203, 205, 57,  101, 150, 53,  204, 195, 196, 198}},
      {99, {58,  96,  177, 166, 80,  118, 119, 121, 124, 112, 196, 205, 197,
            199, 14,  161, 95,  69,  127, 194, 70,  71,  67,  64,  55,  187,
            188, 190, 184, 116, 35,  95,  46,  132, 8,   115, 112}},
  };
  for (const auto& [seed, sequence] : expected) {
    RecordingEvaluator lone(plan, candidates);
    const StrategyResult a =
        CoordinateDescent(seed).search(plan, axes, candidates, lone);
    EXPECT_EQ(lone.sequence, sequence) << "seed " << seed;
    EXPECT_FALSE(a.pruned);
    RecordingEvaluator unbounded(plan, candidates);
    CoordinateDescent(seed).search(plan, axes, candidates, unbounded,
                                   ConfigEvaluator::kNoIncumbent);
    EXPECT_EQ(unbounded.sequence, sequence) << "seed " << seed;
  }
}

TEST(Strategies, AnEntrantSlowerThanTheBoundStopsAfterItsProbesAndOneRound) {
  const Plan plan = mini_plan(8, 64);
  const auto tiled = tiled_engine();
  const auto axes = tiled->config_axes(plan);
  const auto candidates = tiled->config_space(plan);
  SyntheticEvaluator landscape(plan);
  const auto seconds = [&](const engine::EngineConfig& cfg) {
    return landscape.true_seconds(cfg);
  };
  double fastest = std::numeric_limits<double>::infinity();
  for (const auto& cfg : candidates) fastest = std::min(fastest, seconds(cfg));
  const double bound = 0.5 * fastest;  // another engine is twice as fast

  constexpr std::size_t kProbes = 6;
  TableEvaluator raced(seconds);
  const StrategyResult r = CoordinateDescent(7, kProbes).search(
      plan, axes, candidates, raced, bound);
  EXPECT_TRUE(r.pruned);
  // The probes, then one round: at most the two nearest neighbours on each
  // axis of the lowest-floor probe.
  EXPECT_GE(raced.calls(), 1u);
  EXPECT_LE(raced.calls(), kProbes + 2 * axes.size());
  EXPECT_EQ(r.evaluated, raced.calls());
  // The restarts are skipped: the count is that of a search without them.
  TableEvaluator no_restarts(seconds);
  CoordinateDescent(7, kProbes, 16, 0)
      .search(plan, axes, candidates, no_restarts, bound);
  EXPECT_EQ(raced.calls(), no_restarts.calls());
  // A pruned result reports a floor above the bound, not a tuned optimum.
  EXPECT_GT(r.best.seconds, bound);
  // Alone, the same search measures far more.
  TableEvaluator lone(seconds);
  const StrategyResult alone =
      CoordinateDescent(7, kProbes).search(plan, axes, candidates, lone);
  EXPECT_FALSE(alone.pruned);
  EXPECT_GT(lone.calls(), raced.calls());
}

TEST(Strategies, AnEntrantWithOneConfigUnderTheBoundStillFindsIt) {
  // A 8×4 grid where every config takes four times the bound except one:
  // a neighbour, on the first axis, of the search's first probe. No probe
  // completes under the bound, and the one climbing round from the
  // lowest-floor probe must reach it.
  std::vector<engine::AxisSpec> axes(2);
  axes[0].name = "a";
  axes[0].values = {1, 2, 3, 4, 5, 6, 7, 8};
  axes[0].default_value = 1;
  axes[1].name = "b";
  axes[1].values = {1, 2, 3, 4};
  axes[1].default_value = 1;
  std::vector<engine::EngineConfig> candidates;
  for (std::int64_t a : axes[0].values) {
    for (std::int64_t b : axes[1].values) {
      engine::EngineConfig cfg;
      cfg.set("a", a).set("b", b);
      candidates.push_back(cfg);
    }
  }
  const Plan plan = mini_plan(8, 64);
  constexpr double kBound = 1e-3;
  for (std::uint64_t seed : {3u, 7u, 42u}) {
    const CoordinateDescent descent(seed);
    const auto probe = descent.first_probe(candidates);
    ASSERT_TRUE(probe.has_value());
    engine::EngineConfig good = candidates[*probe];
    const std::int64_t a = good.get("a", 1);
    good.set("a", a < 8 ? a + 1 : a - 1);
    TableEvaluator eval([&](const engine::EngineConfig& cfg) {
      return cfg == good ? 0.5 * kBound : 4.0 * kBound;
    });
    const StrategyResult r =
        descent.search(plan, axes, candidates, eval, kBound);
    EXPECT_FALSE(r.pruned) << "seed " << seed;
    EXPECT_EQ(r.best.config, good) << "seed " << seed;
    EXPECT_DOUBLE_EQ(r.best.seconds, 0.5 * kBound);
  }
}

TEST(Strategies, OnlyCoordinateDescentNamesAFirstProbe) {
  const std::vector<engine::EngineConfig> candidates(5);
  EXPECT_FALSE(ExhaustiveSearch().first_probe(candidates).has_value());
  EXPECT_FALSE(RandomSearch(3).first_probe(candidates).has_value());
  const auto probe = CoordinateDescent(42).first_probe(candidates);
  ASSERT_TRUE(probe.has_value());
  EXPECT_LT(*probe, candidates.size());
  // Exhaustive and random searches keep their full populations under a
  // bound that every config misses.
  const Plan plan = mini_plan(8, 64);
  const auto tiled = tiled_engine();
  const auto axes = tiled->config_axes(plan);
  const auto configs = tiled->config_space(plan);
  SyntheticEvaluator eval(plan, /*support_abort=*/true);
  const StrategyResult ex =
      ExhaustiveSearch().search(plan, axes, configs, eval, 1e-12);
  EXPECT_FALSE(ex.pruned);
  EXPECT_EQ(ex.timings.size(), configs.size());
  const StrategyResult rs =
      RandomSearch(12, 5).search(plan, axes, configs, eval, 1e-12);
  EXPECT_FALSE(rs.pruned);
  EXPECT_EQ(rs.timings.size(), 12u);
}

// ----------------------------------------------------------- tuning cache --

TEST(TuningCacheTest, SignaturesRoundTripThroughEncode) {
  const Plan plan = mini_plan(8, 64);
  const PlanSignature psig = PlanSignature::of(plan);
  const auto decoded = PlanSignature::decode(psig.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, psig);

  dedisp::CpuKernelOptions engine;
  engine.threads = 3;
  engine.vectorize = false;
  const HostSignature hsig = HostSignature::of(engine);
  EXPECT_EQ(hsig.engine_id, "cpu_tiled");
  EXPECT_EQ(hsig.variant, "scalar");
  const auto hdecoded = HostSignature::decode(hsig.encode());
  ASSERT_TRUE(hdecoded.has_value());
  EXPECT_EQ(*hdecoded, hsig);

  // Legacy three-part signatures (pre-engine-axis caches) still decode and
  // map onto the tiled host engine.
  const auto legacy = HostSignature::decode("scalar|t3|staged");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->engine_id, "cpu_tiled");
  EXPECT_EQ(legacy->variant, "scalar");
  EXPECT_EQ(legacy->threads, 3u);

  // The fourth part is a legacy field, always written as `staged`.
  const std::string encoded = hsig.encode();
  EXPECT_NE(encoded.find("|t3|staged"), std::string::npos) << encoded;

  EXPECT_FALSE(PlanSignature::decode("not a signature").has_value());
  EXPECT_FALSE(HostSignature::decode("HD7970").has_value());
}

TEST(TuningCacheTest, EngineEpochRoundTripsAndOlderRowsDecodeAsEpochZero) {
  engine::EngineOptions options;
  options.cpu.threads = 1;
  const auto signature = [&](const char* id) {
    return HostSignature::of(*engine::make_engine(id, options));
  };
  const HostSignature u8 = signature("cpu_tiled_u8");
  EXPECT_EQ(u8.epoch, 2u);
  EXPECT_EQ(signature("subband").epoch, 1u);
  const HostSignature tiled = signature("cpu_tiled");
  EXPECT_EQ(tiled.epoch, 1u);

  // A bumped engine signs its epoch last; epoch 0 keeps the four-part form
  // that caches written before epochs existed hold.
  const std::string encoded = u8.encode();
  EXPECT_EQ(encoded.substr(encoded.size() - 3), "|e2") << encoded;
  const auto decoded = HostSignature::decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, u8);
  HostSignature unbumped = tiled;
  unbumped.epoch = 0;
  EXPECT_EQ(unbumped.encode().find("|e"), std::string::npos)
      << unbumped.encode();

  const auto four_part = HostSignature::decode("cpu_tiled_u8|avx512|t1|staged");
  ASSERT_TRUE(four_part.has_value());
  EXPECT_EQ(four_part->engine_id, "cpu_tiled_u8");
  EXPECT_EQ(four_part->epoch, 0u);
  const auto three_part = HostSignature::decode("scalar|t3|staged");
  ASSERT_TRUE(three_part.has_value());
  EXPECT_EQ(three_part->epoch, 0u);

  for (const char* bad :
       {"cpu_tiled|avx|t1|staged|1", "cpu_tiled|avx|t1|staged|e",
        "cpu_tiled|avx|t1|staged|ex", "avx|t1|staged|e1",
        "a|cpu_tiled|avx|t1|staged|e1"}) {
    EXPECT_FALSE(HostSignature::decode(bad).has_value()) << bad;
  }
}

/// A cache file in the v4 layout holding one row per (device, config) pair
/// for \p plan.
void write_cache_rows(
    const std::string& path, const Plan& plan,
    const std::vector<std::pair<std::string, std::string>>& rows) {
  std::ofstream file(path);
  file << "# ddmc-tuner-results v4 cols=9\n"
       << "device,observation,dms,config,gflops,seconds,snr,evaluated,"
          "pruned\n";
  for (const auto& [device, config] : rows) {
    file << device << "," << PlanSignature::of(plan).encode() << ","
         << plan.dms() << "," << config << ",1,0.001,0,1,0\n";
  }
}

TEST(TuningCacheTest, RowsOlderThanTheEngineEpochMissAndUnbumpedEnginesHit) {
  // A cache written before the staging rule: the two tiled engines timed
  // every tile staged (cpu_tiled at epoch 0, cpu_tiled_u8 at 1), and
  // subband, whose stages never staged, is still at epoch 1. Only subband
  // answers; the others miss exactly and as transfer sources.
  const std::string path =
      ::testing::TempDir() + "ddmc_engine_epoch_cache_test.csv";
  std::remove(path.c_str());
  const Plan plan = mini_plan(8, 64);
  engine::EngineOptions options;
  options.cpu.threads = 1;
  const auto signature = [&](const char* id) {
    return HostSignature::of(*engine::make_engine(id, options));
  };
  const auto at_epoch = [&](const char* id, std::size_t epoch) {
    HostSignature sig = signature(id);
    sig.epoch = epoch;
    return sig.encode();
  };
  write_cache_rows(path, plan,
                   {{at_epoch("cpu_tiled_u8", 1), "unroll=2"},
                    {at_epoch("subband", 1), "coarse_step=2;subbands=4"},
                    {at_epoch("cpu_tiled", 0), "unroll=2"}});
  TuningCache cache(path);
  ASSERT_EQ(cache.size(), 3u);
  const PlanSignature psig = PlanSignature::of(plan);
  for (const char* stale : {"cpu_tiled_u8", "cpu_tiled"}) {
    SCOPED_TRACE(stale);
    EXPECT_FALSE(cache.find_exact(signature(stale), psig).has_value());
    EXPECT_FALSE(cache.find_nearest(signature(stale), plan).has_value());
  }
  const auto hit = cache.find_exact(signature("subband"), psig);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->config.get("subbands", 0), 4);
  EXPECT_TRUE(cache.find_nearest(signature("subband"), plan).has_value());
  std::remove(path.c_str());
}

TEST(TuningCacheTest, DirectRowsDecodeButNeverResolve) {
  // A row whose fourth device part is `direct` was timed with staging off
  // on every tile. It loads, under a variant no engine reports, and answers
  // no lookup, even at the engine's current epoch; rewriting the cache
  // keeps it that way.
  const std::string path =
      ::testing::TempDir() + "ddmc_direct_rows_cache_test.csv";
  std::remove(path.c_str());
  const Plan plan = mini_plan(8, 64);
  engine::EngineOptions options;
  options.cpu.threads = 1;
  std::vector<std::pair<std::string, std::string>> rows;
  for (const char* id : {"cpu_tiled", "cpu_tiled_u8", "subband"}) {
    const HostSignature sig =
        HostSignature::of(*engine::make_engine(id, options));
    std::string device = sig.encode();
    device.replace(device.find("|staged"), 7, "|direct");
    const auto decoded = HostSignature::decode(device);
    ASSERT_TRUE(decoded.has_value()) << device;
    EXPECT_EQ(decoded->variant, sig.variant + "~direct");
    EXPECT_NE(*decoded, sig);
    rows.push_back({device, std::string(id) == "subband"
                                ? "coarse_step=2;subbands=4"
                                : "unroll=2"});
  }
  write_cache_rows(path, plan, rows);
  const PlanSignature psig = PlanSignature::of(plan);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "as written" : "after a rewrite");
    TuningCache cache(path);
    ASSERT_EQ(cache.size(), pass == 0 ? 3u : 4u);
    for (const char* id : {"cpu_tiled", "cpu_tiled_u8", "subband"}) {
      SCOPED_TRACE(id);
      const HostSignature sig =
          HostSignature::of(*engine::make_engine(id, options));
      EXPECT_FALSE(cache.find_exact(sig, psig).has_value());
      EXPECT_FALSE(cache.find_nearest(sig, plan).has_value());
    }
    if (pass == 0) {
      // Storing an unrelated row rewrites the file with the loaded rows.
      CacheEntry entry;
      entry.host = HostSignature::of(*engine::make_engine("fdmt", options));
      entry.plan = psig;
      entry.seconds = 0.001;
      cache.store(entry);
      ASSERT_EQ(cache.size(), 4u);
    }
  }
  std::remove(path.c_str());
}

TEST(TuningCacheTest, HostileObservationNamesCannotCorruptTheCache) {
  // The observation name is free-form and ends up inside two layered text
  // formats ('|'-delimited signature in a comma-delimited CSV cell):
  // delimiters are sanitized to '_' and a key-shaped name is never
  // mistaken for a key=value field.
  const sky::Observation hostile("LOFAR,HBA|v2\n", 100.0, 8, 100.0, 10.0,
                                 0.0, 0.5);
  const Plan plan = Plan::with_output_samples(hostile, 8, 64);
  const PlanSignature sig = PlanSignature::of(plan);
  EXPECT_EQ(sig.observation, "LOFAR_HBA_v2_");
  const auto round = PlanSignature::decode(sig.encode());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, sig);

  const sky::Observation key_shaped("ch=12", 100.0, 8, 100.0, 10.0, 0.0,
                                    0.5);
  const PlanSignature shaped =
      PlanSignature::of(Plan::with_output_samples(key_shaped, 8, 64));
  const auto decoded = PlanSignature::decode(shaped.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->observation, "ch=12");
  EXPECT_EQ(decoded->channels, 8u);  // the real ch field, not the name

  // End to end: a file-backed cache written under a hostile name reloads.
  const std::string path =
      ::testing::TempDir() + "ddmc_hostile_cache_test.csv";
  std::remove(path.c_str());
  {
    TuningCache cache(path);
    CacheEntry entry;
    entry.host = HostSignature::of({});
    entry.plan = sig;
    entry.config = engine::encode_kernel_config(KernelConfig{8, 1, 1, 1});
    entry.gflops = 1.0;
    cache.store(entry);
  }
  {
    TuningCache reloaded(path);
    ASSERT_EQ(reloaded.size(), 1u);
    EXPECT_EQ(reloaded.entries().front().plan, sig);
    EXPECT_TRUE(reloaded.find_exact(HostSignature::of({}), sig).has_value());
  }
  std::remove(path.c_str());
}

TEST(TuningCacheTest, PlanDistanceIsMetricLike) {
  const PlanSignature a = PlanSignature::of(mini_plan(8, 64));
  const PlanSignature b = PlanSignature::of(mini_plan(16, 64));
  const PlanSignature c = PlanSignature::of(mini_plan(64, 64));
  EXPECT_DOUBLE_EQ(plan_distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(plan_distance(a, b), plan_distance(b, a));
  EXPECT_LT(plan_distance(a, b), plan_distance(a, c));  // 2x nearer than 8x
}

TEST(TuningCacheTest, NearestNeighborSkipsConfigsTheEngineRejects) {
  TuningCache cache;
  dedisp::CpuKernelOptions engine_options;
  const HostSignature host = HostSignature::of(engine_options);

  // Closest entry's config has tile_dm = 16, which cannot divide the
  // 8-trial target plan; the farther entry's config runs everywhere.
  CacheEntry close;
  close.host = host;
  close.plan = PlanSignature::of(mini_plan(16, 64));
  close.config = engine::encode_kernel_config(KernelConfig{8, 16, 1, 1});
  CacheEntry far;
  far.host = host;
  far.plan = PlanSignature::of(mini_plan(64, 64));
  far.config = engine::encode_kernel_config(KernelConfig{8, 1, 1, 1});
  cache.store(close);
  cache.store(far);

  const Plan target = mini_plan(8, 64);
  // The cache cannot judge a config's validity itself — only the engine
  // that declares the axes can. Without a predicate, proximity decides.
  const auto blind = cache.find_nearest(host, target);
  ASSERT_TRUE(blind.has_value());
  EXPECT_EQ(blind->config, close.config);

  // With the engine's validate_config as the usable predicate, the
  // non-dividing config is skipped and the farther entry transfers.
  const auto tiled = engine::make_engine(host.engine_id);
  const auto usable = [&](const engine::EngineConfig& config) {
    try {
      tiled->validate_config(target, config);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  };
  const auto found = cache.find_nearest(
      host, target, TuningCache::kDefaultMaxTransferDistance, usable);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->config, far.config);

  // A host-signature mismatch never transfers.
  dedisp::CpuKernelOptions other_engine;
  other_engine.threads = 7;
  EXPECT_FALSE(cache
                   .find_nearest(HostSignature::of(other_engine), target)
                   .has_value());
}

TEST(TuningCacheTest, WarmHitSkipsMeasurementEntirely) {
  const Plan plan = mini_plan(8, 64);
  TuningCache cache;
  GuidedTuningOptions opt;
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  opt.host.threads = 1;
  opt.strategy = StrategyKind::kRandom;
  opt.random_samples = 3;

  const GuidedTuningOutcome cold = tune_guided(plan, cache, opt);
  EXPECT_EQ(cold.source, GuidedTuningOutcome::Source::kSearch);
  EXPECT_GT(cold.configs_evaluated, 0u);
  ASSERT_TRUE(cold.search.has_value());
  EXPECT_EQ(cache.size(), 1u);

  const GuidedTuningOutcome warm = tune_guided(plan, cache, opt);
  EXPECT_EQ(warm.source, GuidedTuningOutcome::Source::kCacheHit);
  EXPECT_EQ(warm.configs_evaluated, 0u);  // the sweep is skipped entirely
  EXPECT_FALSE(warm.search.has_value());
  EXPECT_EQ(warm.config, cold.config);
  ASSERT_TRUE(warm.transfer_distance.has_value());
  EXPECT_DOUBLE_EQ(*warm.transfer_distance, 0.0);
}

TEST(TuningCacheTest, MissTransfersFromTheNearestPlan) {
  const Plan plan = mini_plan(8, 64);
  TuningCache cache;
  GuidedTuningOptions opt;
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  opt.host.threads = 1;
  opt.strategy = StrategyKind::kRandom;
  opt.random_samples = 3;
  const GuidedTuningOutcome cold = tune_guided(plan, cache, opt);

  // Same setup, twice the trials: answered by transfer, no measurements.
  const Plan grown = mini_plan(16, 64);
  const GuidedTuningOutcome moved = tune_guided(grown, cache, opt);
  EXPECT_EQ(moved.source, GuidedTuningOutcome::Source::kTransfer);
  EXPECT_EQ(moved.configs_evaluated, 0u);
  EXPECT_EQ(moved.config, cold.config);
  EXPECT_NO_THROW(
      engine::make_engine(moved.engine_id)->validate_config(grown,
                                                            moved.config));
  ASSERT_TRUE(moved.transfer_distance.has_value());
  EXPECT_GT(*moved.transfer_distance, 0.0);
  EXPECT_EQ(cache.size(), 1u);  // transfers are not stored as measurements

  // With transfer disabled the miss falls back to a search and stores.
  GuidedTuningOptions strict = opt;
  strict.allow_transfer = false;
  const GuidedTuningOutcome searched = tune_guided(grown, cache, strict);
  EXPECT_EQ(searched.source, GuidedTuningOutcome::Source::kSearch);
  EXPECT_EQ(cache.size(), 2u);
  // …and the next request for the grown plan is an exact hit.
  const GuidedTuningOutcome hit = tune_guided(grown, cache, opt);
  EXPECT_EQ(hit.source, GuidedTuningOutcome::Source::kCacheHit);
}

TEST(TuningCacheTest, PersistsAcrossProcessesViaResultsIo) {
  const std::string path =
      ::testing::TempDir() + "ddmc_tuning_cache_test.csv";
  std::remove(path.c_str());
  const Plan plan = mini_plan(8, 64);
  GuidedTuningOptions opt;
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  opt.host.threads = 1;
  opt.strategy = StrategyKind::kRandom;
  opt.random_samples = 3;

  engine::EngineConfig tuned;
  {
    TuningCache cache(path);
    EXPECT_EQ(cache.size(), 0u);
    const GuidedTuningOutcome cold = tune_guided(plan, cache, opt);
    EXPECT_EQ(cold.source, GuidedTuningOutcome::Source::kSearch);
    tuned = cold.config;
  }
  {
    // A fresh cache object (a new process, in effect) reloads the file and
    // answers without measuring.
    TuningCache cache(path);
    EXPECT_EQ(cache.size(), 1u);
    const GuidedTuningOutcome warm = tune_guided(plan, cache, opt);
    EXPECT_EQ(warm.source, GuidedTuningOutcome::Source::kCacheHit);
    EXPECT_EQ(warm.configs_evaluated, 0u);
    EXPECT_EQ(warm.config, tuned);
  }
  std::remove(path.c_str());
}

TEST(TuningCacheTest, RaceRanksEnginesBySecondsNotGflops) {
  // Regression: cache entries credit flops differently per engine (the
  // subband engine saves work, the u8 engine moves fewer bytes), so a
  // flashy GFLOP/s figure can belong to the *slower* engine. The
  // multi-engine race must rank by measured wall seconds; GFLOP/s rides
  // along for display only.
  const Plan plan = mini_plan(8, 64);
  TuningCache cache;
  GuidedTuningOptions opt;
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  opt.host.threads = 1;
  opt.strategy = StrategyKind::kRandom;
  opt.random_samples = 2;
  for (const char* id : {"cpu_tiled", "cpu_baseline"}) {
    GuidedTuningOptions seed = opt;
    seed.engines = {id};
    tune_guided(plan, cache, seed);
  }
  ASSERT_EQ(cache.size(), 2u);
  // Pin the stored figures so the two orderings *disagree*: cpu_tiled
  // claims 1000 GFLOP/s yet a full second, cpu_baseline 1 GFLOP/s at 1 µs.
  for (CacheEntry entry : cache.entries()) {
    const bool tiled = entry.host.engine_id == "cpu_tiled";
    entry.gflops = tiled ? 1000.0 : 1.0;
    entry.seconds = tiled ? 1.0 : 1e-6;
    cache.store(entry);
  }
  GuidedTuningOptions race = opt;
  race.engines = {"cpu_tiled", "cpu_baseline"};
  const GuidedTuningOutcome raced = tune_guided(plan, cache, race);
  EXPECT_EQ(raced.source, GuidedTuningOutcome::Source::kCacheHit);
  EXPECT_EQ(raced.configs_evaluated, 0u);  // both engines answer warm
  EXPECT_EQ(raced.engine_id, "cpu_baseline");
  EXPECT_DOUBLE_EQ(raced.seconds, 1e-6);
  EXPECT_DOUBLE_EQ(raced.gflops, 1.0);  // the winner's own display figure
}

TEST(TuningCacheTest, WarmRaceRoundTripsTheEngineAxisThroughTheFile) {
  // The v3 cache rows carry the engine id inside the host signature: a
  // warm rerun of a multi-engine race in a fresh process measures nothing
  // and returns the same engine and config as the cold race.
  const std::string path =
      ::testing::TempDir() + "ddmc_engine_race_cache_test.csv";
  std::remove(path.c_str());
  const Plan plan = mini_plan(8, 64);
  GuidedTuningOptions opt;
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  opt.host.threads = 1;
  opt.strategy = StrategyKind::kRandom;
  opt.random_samples = 2;
  opt.engines = {"cpu_tiled", "cpu_baseline"};
  GuidedTuningOutcome cold;
  {
    TuningCache cache(path);
    cold = tune_guided(plan, cache, opt);
    EXPECT_EQ(cold.source, GuidedTuningOutcome::Source::kSearch);
    EXPECT_GT(cold.configs_evaluated, 0u);
    EXPECT_EQ(cache.size(), 2u);  // one entry per raced engine
  }
  {
    TuningCache cache(path);
    EXPECT_EQ(cache.size(), 2u);
    const GuidedTuningOutcome warm = tune_guided(plan, cache, opt);
    EXPECT_EQ(warm.source, GuidedTuningOutcome::Source::kCacheHit);
    EXPECT_EQ(warm.configs_evaluated, 0u);
    EXPECT_EQ(warm.engine_id, cold.engine_id);
    EXPECT_EQ(warm.config, cold.config);
  }
  std::remove(path.c_str());
}

TEST(TuningCacheTest, ThreeWayRaceWithFdmtResolvesWarmAndRanksBySeconds) {
  // The Fourier-domain engine races the brute-force and subband engines
  // on equal footing: a cold race measures all three ladders, the warm
  // rerun answers the whole comparison with zero measurements, and the
  // ranking is by measured wall seconds. fdmt makes the seconds-vs-GFLOP/s
  // distinction structural — its cache rows credit the transform's
  // asymptotically smaller operation count, so its display GFLOP/s is low
  // even when its wall time wins — which the pinned rerank pins down.
  const Plan plan = mini_plan(8, 64);
  TuningCache cache;
  GuidedTuningOptions opt;
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  opt.host.threads = 1;
  opt.strategy = StrategyKind::kRandom;
  opt.random_samples = 2;
  opt.engines = {"cpu_tiled", "subband", "fdmt"};

  const GuidedTuningOutcome cold = tune_guided(plan, cache, opt);
  EXPECT_EQ(cold.source, GuidedTuningOutcome::Source::kSearch);
  EXPECT_GT(cold.configs_evaluated, 0u);
  EXPECT_EQ(cache.size(), 3u);  // one entry per raced engine

  const GuidedTuningOutcome warm = tune_guided(plan, cache, opt);
  EXPECT_EQ(warm.source, GuidedTuningOutcome::Source::kCacheHit);
  EXPECT_EQ(warm.configs_evaluated, 0u);
  EXPECT_EQ(warm.engine_id, cold.engine_id);
  EXPECT_EQ(warm.config, cold.config);

  // Pin the stored figures so the orderings disagree: fdmt reports the
  // lowest GFLOP/s of the field yet the fastest wall time. Seconds win.
  for (CacheEntry entry : cache.entries()) {
    const bool is_fdmt = entry.host.engine_id == "fdmt";
    entry.gflops = is_fdmt ? 0.5 : 500.0;
    entry.seconds = is_fdmt ? 1e-6 : 1.0;
    cache.store(entry);
  }
  const GuidedTuningOutcome reranked = tune_guided(plan, cache, opt);
  EXPECT_EQ(reranked.source, GuidedTuningOutcome::Source::kCacheHit);
  EXPECT_EQ(reranked.configs_evaluated, 0u);
  EXPECT_EQ(reranked.engine_id, "fdmt");
  EXPECT_DOUBLE_EQ(reranked.seconds, 1e-6);
  EXPECT_DOUBLE_EQ(reranked.gflops, 0.5);  // the winner's display figure
}

TEST(TuningCacheTest, RaceAtTwoThreadsRunsTiledAndSubbandOnTwoThreads) {
  // Both subband stages run the tiled kernel on its workers, so a race at
  // a fixed thread count compares cpu_tiled and subband at that count, and
  // the record says so.
  const Plan plan = mini_plan(8, 64);
  TuningCache cache;
  GuidedTuningOptions opt;
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  opt.host.threads = 2;
  opt.strategy = StrategyKind::kRandom;
  opt.random_samples = 2;
  opt.engines = {"cpu_tiled", "subband"};
  const GuidedTuningOutcome outcome = tune_guided(plan, cache, opt);
  ASSERT_EQ(outcome.race.size(), 2u);
  for (const auto& row : outcome.race) {
    EXPECT_EQ(row.threads, 2u) << row.engine_id;
  }
}

TEST(TuningCacheTest, PrunedEntriesNeverTransferAndMissWhenUnbeaten) {
  // A pruned entry records only that its engine lost to a bound. It is
  // never a transfer source, and a race in which nothing beats its bound
  // (here: a single-engine tune) treats it as a miss and searches.
  const Plan plan = mini_plan(8, 64);
  GuidedTuningOptions opt;
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  opt.host.threads = 1;
  opt.engines = {"cpu_tiled"};
  engine::EngineOptions engine_options;
  engine_options.cpu.threads = 1;
  CacheEntry pruned;
  pruned.host =
      HostSignature::of(*engine::make_engine("cpu_tiled", engine_options));
  pruned.plan = PlanSignature::of(plan);
  pruned.config = engine::encode_kernel_config(KernelConfig{8, 1, 1, 1});
  pruned.seconds = 1e-12;
  pruned.evaluated = 3;
  pruned.pruned = true;

  {
    TuningCache cache;
    cache.store(pruned);
    const Plan grown = mini_plan(16, 64);
    EXPECT_FALSE(cache.find_nearest(pruned.host, grown).has_value());
    const GuidedTuningOutcome moved = tune_guided(grown, cache, opt);
    EXPECT_EQ(moved.source, GuidedTuningOutcome::Source::kSearch);
  }
  {
    TuningCache cache;
    cache.store(pruned);
    const GuidedTuningOutcome again = tune_guided(plan, cache, opt);
    EXPECT_EQ(again.source, GuidedTuningOutcome::Source::kSearch);
    EXPECT_GT(again.configs_evaluated, 0u);
    ASSERT_EQ(again.race.size(), 1u);
    EXPECT_FALSE(again.race[0].pruned);
    const auto stored = cache.find_exact(pruned.host, pruned.plan);
    ASSERT_TRUE(stored.has_value());
    EXPECT_FALSE(stored->pruned);  // the search replaced the pruned entry
    EXPECT_EQ(stored->config, again.config);
  }
}

TEST(TuningCacheTest, APrunedEntryIsSearchedWhenTheRaceNoLongerBeatsItsBound) {
  // cpu_tiled was pruned against a bound of 1 ps; cpu_baseline's stored
  // second does not beat that, so cpu_tiled must race again — and, far
  // under a second, it wins.
  const Plan plan = mini_plan(8, 64);
  GuidedTuningOptions opt;
  opt.host.repetitions = 1;
  opt.host.warmup_runs = 0;
  opt.host.threads = 1;
  opt.engines = {"cpu_tiled", "cpu_baseline"};
  engine::EngineOptions engine_options;
  engine_options.cpu.threads = 1;
  TuningCache cache;
  CacheEntry pruned;
  pruned.host =
      HostSignature::of(*engine::make_engine("cpu_tiled", engine_options));
  pruned.plan = PlanSignature::of(plan);
  pruned.seconds = 1e-12;
  pruned.pruned = true;
  cache.store(pruned);
  CacheEntry slow;
  slow.host =
      HostSignature::of(*engine::make_engine("cpu_baseline", engine_options));
  slow.plan = pruned.plan;
  slow.seconds = 1.0;
  slow.gflops = 1.0;
  cache.store(slow);

  const GuidedTuningOutcome raced = tune_guided(plan, cache, opt);
  EXPECT_EQ(raced.engine_id, "cpu_tiled");
  EXPECT_EQ(raced.source, GuidedTuningOutcome::Source::kSearch);
  ASSERT_EQ(raced.race.size(), 2u);
  EXPECT_EQ(raced.race[0].engine_id, "cpu_baseline");  // cache answers first
  EXPECT_EQ(raced.race[0].source, GuidedTuningOutcome::Source::kCacheHit);
  EXPECT_EQ(raced.race[1].engine_id, "cpu_tiled");
  EXPECT_EQ(raced.race[1].source, GuidedTuningOutcome::Source::kSearch);
  EXPECT_FALSE(raced.race[1].pruned);
  EXPECT_GT(raced.race[1].configs_evaluated, 0u);
}

/// A race entrant that reliably loses on the miniature plan: the reference
/// engine behind a sleep per call, under its own registry id. Two are
/// registered: kId sleeps 1 ms per call, kMildId 200 µs — still far above
/// what a preempted call of a fast engine costs.
class SlowReferenceEngine final : public engine::DedispEngine {
 public:
  static constexpr const char* kId = "test_slow_reference";
  static constexpr const char* kMildId = "test_mild_reference";

  /// Register both engines (once per process).
  static void install() {
    static std::once_flag registered;
    std::call_once(registered, [] {
      for (const auto& [id, delay] :
           {std::pair{kId, std::chrono::microseconds(1000)},
            std::pair{kMildId, std::chrono::microseconds(200)}}) {
        engine::EngineRegistry::instance().add(
            id, [id = std::string(id), delay = delay](
                    const engine::EngineOptions& options) {
              return std::make_shared<const SlowReferenceEngine>(options, id,
                                                                 delay);
            });
      }
    });
  }

  SlowReferenceEngine(const engine::EngineOptions& options, std::string id,
                      std::chrono::microseconds delay)
      : id_(std::move(id)),
        delay_(delay),
        inner_(engine::make_engine("reference", options)) {}

  const std::string& id() const override { return id_; }
  const engine::EngineCapabilities& capabilities() const override {
    return inner_->capabilities();
  }
  const engine::EngineOptions& options() const override {
    return inner_->options();
  }
  std::string variant() const override { return inner_->variant(); }

 protected:
  engine::EngineRun execute_impl(const Plan& plan,
                                 const engine::EngineConfig& config,
                                 ConstView2D<float> in,
                                 View2D<float> out) const override {
    std::this_thread::sleep_for(delay_);
    return inner_->execute(plan, config, in, out);
  }

 private:
  std::string id_;
  std::chrono::microseconds delay_;
  std::shared_ptr<const engine::DedispEngine> inner_;
};

TEST(TuningCacheTest, ColdRaceUnderCoordinateDescentPrunesItsLosers) {
  // A real race on the miniature plan: cpu_baseline runs a call in about
  // 4 µs, the two slow references in over 200 µs and over 1 ms. The seeds
  // put cpu_baseline first — a preempted seed call would have to lose
  // 200 µs to invert that — and the two losers, searched against its time,
  // cannot complete a single config under it.
  SlowReferenceEngine::install();
  const std::string path =
      ::testing::TempDir() + "ddmc_pruned_race_cache_test.csv";
  std::remove(path.c_str());
  const Plan plan = mini_plan(8, 64);
  GuidedTuningOptions opt;
  opt.host.threads = 1;
  opt.engines = {SlowReferenceEngine::kMildId, SlowReferenceEngine::kId,
                 "cpu_baseline"};
  GuidedTuningOutcome cold;
  {
    TuningCache cache(path);
    cold = tune_guided(plan, cache, opt);
    EXPECT_EQ(cold.engine_id, "cpu_baseline");
    EXPECT_EQ(cold.source, GuidedTuningOutcome::Source::kSearch);
    ASSERT_EQ(cold.race.size(), 3u);
    EXPECT_EQ(cold.race[0].engine_id, "cpu_baseline");
    EXPECT_FALSE(cold.race[0].pruned);
    EXPECT_DOUBLE_EQ(cold.race[0].seconds, cold.seconds);
    std::size_t evaluated = 0;
    for (const auto& row : cold.race) {
      evaluated += row.configs_evaluated;
      EXPECT_EQ(row.threads, 1u) << row.engine_id;
      if (row.engine_id == cold.engine_id) continue;
      EXPECT_TRUE(row.pruned) << row.engine_id;
      EXPECT_EQ(row.source, GuidedTuningOutcome::Source::kSearch);
      EXPECT_DOUBLE_EQ(row.seconds, cold.seconds);  // the bound it lost to
    }
    EXPECT_EQ(evaluated, cold.configs_evaluated);
    for (const CacheEntry& entry : cache.entries()) {
      EXPECT_EQ(entry.pruned, entry.host.engine_id != "cpu_baseline");
    }
  }
  {
    // A fresh process answers the whole race from the file.
    TuningCache cache(path);
    const GuidedTuningOutcome warm = tune_guided(plan, cache, opt);
    EXPECT_EQ(warm.source, GuidedTuningOutcome::Source::kCacheHit);
    EXPECT_EQ(warm.configs_evaluated, 0u);
    EXPECT_EQ(warm.engine_id, cold.engine_id);
    EXPECT_EQ(warm.config, cold.config);
    ASSERT_EQ(warm.race.size(), 3u);
    for (const auto& row : warm.race) {
      EXPECT_EQ(row.source, GuidedTuningOutcome::Source::kCacheHit);
      EXPECT_EQ(row.configs_evaluated, 0u);
      EXPECT_EQ(row.pruned, row.engine_id != cold.engine_id);
    }

    // Alone, a pruned engine has nothing to lose to: it searches again.
    GuidedTuningOptions alone = opt;
    alone.engines = {SlowReferenceEngine::kMildId};
    const GuidedTuningOutcome mild = tune_guided(plan, cache, alone);
    EXPECT_EQ(mild.engine_id, SlowReferenceEngine::kMildId);
    EXPECT_EQ(mild.source, GuidedTuningOutcome::Source::kSearch);
    EXPECT_GT(mild.configs_evaluated, 0u);
    EXPECT_GT(mild.seconds, 0.0);
    ASSERT_EQ(mild.race.size(), 1u);
    EXPECT_FALSE(mild.race[0].pruned);
  }
  std::remove(path.c_str());
}

TEST(TuningCacheTest, AV4RowOfTheRetiredOclSimEngineLoadsAndRacesIgnoreIt) {
  // Caches written while the device simulator was a registered engine hold
  // rows signed "ocl_sim|…". Such a file still loads, a race over the
  // registered engines never answers from that row, and rewriting the
  // file keeps it.
  const std::string path =
      ::testing::TempDir() + "ddmc_retired_engine_cache_test.csv";
  std::remove(path.c_str());
  const Plan plan = mini_plan(8, 64);
  engine::EngineOptions engine_options;
  engine_options.cpu.threads = 1;
  const std::string baseline =
      HostSignature::of(*engine::make_engine("cpu_baseline", engine_options))
          .encode();
  const std::string signature = PlanSignature::of(plan).encode();
  {
    std::ofstream file(path);
    file << "# ddmc-tuner-results v4 cols=9\n"
         << "device,observation,dms,config,gflops,seconds,snr,evaluated,"
            "pruned\n"
         << "ocl_sim|AMD_HD7970|t1|staged," << signature
         << ",8,wi_time=8,9999,1e-12,0,1,0\n"
         << baseline << "," << signature << ",8,-,1,0.001,0,1,0\n";
  }
  {
    TuningCache cache(path);
    ASSERT_EQ(cache.size(), 2u);
    GuidedTuningOptions opt;
    opt.host.repetitions = 1;
    opt.host.warmup_runs = 0;
    opt.host.threads = 1;
    opt.engines = {"cpu_baseline", "reference"};
    const GuidedTuningOutcome raced = tune_guided(plan, cache, opt);
    EXPECT_NE(raced.engine_id, "ocl_sim");
    EXPECT_TRUE(raced.config.empty()) << raced.config.to_string();
    ASSERT_EQ(raced.race.size(), 2u);
    for (const auto& row : raced.race) {
      EXPECT_NE(row.engine_id, "ocl_sim");
      EXPECT_TRUE(row.config.empty()) << row.engine_id;
      if (row.engine_id == "cpu_baseline") {
        EXPECT_EQ(row.source, GuidedTuningOutcome::Source::kCacheHit);
      }
    }
  }
  TuningCache reloaded(path);
  EXPECT_EQ(reloaded.size(), 3u);  // ocl_sim, cpu_baseline, reference
  std::remove(path.c_str());
}

namespace {

/// Distinct, decodable cache entry for worker \p worker, op \p op.
CacheEntry synthetic_entry(std::size_t worker, std::size_t op) {
  CacheEntry entry;
  dedisp::CpuKernelOptions engine;
  engine.threads = worker + 1;  // distinct host signature per worker
  entry.host = HostSignature::of(engine);
  entry.plan = PlanSignature::of(mini_plan(8 << (op % 4), 64));
  entry.config = engine::encode_kernel_config(KernelConfig{8, 1, 1, 1});
  entry.gflops = static_cast<double>(worker * 100 + op + 1);  // never 0
  entry.seconds = 1.0 / entry.gflops;
  entry.evaluated = op;
  return entry;
}

}  // namespace

TEST(TuningCacheTest, ConcurrentStoresAndLookupsStaySafe) {
  // Regression: the sharded executor's workers tune shard plans against a
  // shared cache — concurrent store()s used to interleave writes into the
  // results CSV. Every operation now locks, and the file is replaced
  // atomically, so a concurrent mix of stores and lookups must neither
  // race (the sanitize job watches this) nor corrupt the reloaded file.
  const std::string path =
      ::testing::TempDir() + "ddmc_cache_concurrent_fast.csv";
  std::remove(path.c_str());
  {
    TuningCache cache(path);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < 4; ++w) {
      workers.emplace_back([&cache, w] {
        for (std::size_t op = 0; op < 8; ++op) {
          const CacheEntry entry = synthetic_entry(w, op);
          cache.store(entry);
          EXPECT_TRUE(cache.find_exact(entry.host, entry.plan).has_value());
        }
      });
    }
    for (auto& t : workers) t.join();
    EXPECT_EQ(cache.size(), 4u * 4u);  // 4 hosts × 4 distinct plans
  }
  TuningCache reloaded(path);  // malformed rows would throw here
  EXPECT_EQ(reloaded.size(), 4u * 4u);
  std::remove(path.c_str());
}

TEST(TuningCacheConcurrencySlowTier, HammeringNeverCorruptsTheFile) {
  const std::string path =
      ::testing::TempDir() + "ddmc_cache_concurrent_slow.csv";
  std::remove(path.c_str());
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kOps = 48;
  const Plan probe = mini_plan(8, 64);
  {
    TuningCache cache(path);
    std::atomic<std::size_t> found{0};
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        dedisp::CpuKernelOptions engine;
        engine.threads = w + 1;
        const HostSignature host = HostSignature::of(engine);
        for (std::size_t op = 0; op < kOps; ++op) {
          cache.store(synthetic_entry(w, op));
          if (cache.find_nearest(host, probe).has_value()) ++found;
          (void)cache.entries();  // snapshot under the lock
          if (op % 16 == 0) cache.save();
        }
      });
    }
    for (auto& t : workers) t.join();
    EXPECT_GT(found.load(), 0u);
    EXPECT_EQ(cache.size(), kWorkers * 4u);
  }
  // The file parses cleanly and holds the final value of every key: each
  // (host, plan) pair was last stored by op ≥ kOps − 4 of its worker.
  TuningCache reloaded(path);
  EXPECT_EQ(reloaded.size(), kWorkers * 4u);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    for (std::size_t op = kOps - 4; op < kOps; ++op) {
      const CacheEntry expected = synthetic_entry(w, op);
      const auto got = reloaded.find_exact(expected.host, expected.plan);
      ASSERT_TRUE(got.has_value()) << "worker " << w << " op " << op;
      EXPECT_EQ(got->gflops, expected.gflops);
    }
  }
  std::remove(path.c_str());
}

TEST(ResultsIoFuzzSlowTier, RandomPopulationsSurviveSaveLoadBitwise) {
  // Property: any population of rows round-trips bitwise — integers
  // exactly, doubles via max_digits10 — across 100 seeded populations.
  Rng rng(20260730);
  auto random_text = [&rng]() {
    static const char alphabet[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789|=._-";
    std::string s;
    const std::size_t n = 1 + rng.next_below(12);
    for (std::size_t i = 0; i < n; ++i) {
      s += alphabet[rng.next_below(sizeof(alphabet) - 1)];
    }
    return s;
  };
  auto random_double = [&rng]() {
    const double mantissa = rng.next_double() * 2.0 - 1.0;
    const int exponent = static_cast<int>(rng.next_below(61)) - 30;
    return mantissa * std::pow(10.0, exponent);
  };
  for (int iteration = 0; iteration < 100; ++iteration) {
    std::vector<ResultRow> rows(1 + rng.next_below(8));
    for (ResultRow& row : rows) {
      row.device = random_text();
      row.observation = random_text();
      row.dms = rng.next_below(1u << 20);
      KernelConfig kernel;
      kernel.wi_time = 1 + rng.next_below(1024);
      kernel.wi_dm = 1 + rng.next_below(32);
      kernel.elem_time = 1 + rng.next_below(64);
      kernel.elem_dm = 1 + rng.next_below(8);
      kernel.channel_block = rng.next_below(4096);
      kernel.unroll = 1 + rng.next_below(8);
      row.config = engine::encode_kernel_config(kernel);
      // The config cell is engine-native: non-kernel axes round-trip too.
      if (rng.next_below(2)) {
        row.config.set("subbands", 1 + rng.next_below(64));
      }
      row.gflops = random_double();
      row.seconds = random_double();
      row.snr = random_double();
      row.evaluated = rng.next_below(1u << 24);
    }
    std::stringstream ss;
    save_results(ss, rows);
    const std::vector<ResultRow> loaded = load_results(ss);
    ASSERT_EQ(loaded.size(), rows.size()) << "iteration " << iteration;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(loaded[i], rows[i])
          << "iteration " << iteration << " row " << i;
    }
  }
}

TEST(ResultsIoFuzzSlowTier, RandomCorruptionsAreDiagnosedPrecisely) {
  // Property: truncating a random row mid-cell, scrambling a numeric cell
  // or permuting the header always throws the targeted diagnostic rather
  // than producing silent garbage.
  Rng rng(42424242);
  std::vector<ResultRow> rows(3);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].device = "dev" + std::to_string(i);
    rows[i].observation = "obs";
    rows[i].dms = 8;
    rows[i].config =
        engine::encode_kernel_config(KernelConfig{8, 1, 2, 1, 0, 2});
    rows[i].gflops = 1.5;
    rows[i].seconds = 0.25;
    rows[i].snr = 3.0;
    rows[i].evaluated = 99;
  }
  std::stringstream pristine;
  save_results(pristine, rows);
  const std::string text = pristine.str();

  std::vector<std::string> lines;
  {
    std::istringstream ss(text);
    std::string line;
    while (std::getline(ss, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2 + rows.size());

  auto load_expecting_error = [](const std::string& corrupted) {
    std::stringstream ss(corrupted);
    try {
      load_results(ss);
    } catch (const invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  auto join = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const auto& l : ls) out += l + "\n";
    return out;
  };

  for (int iteration = 0; iteration < 50; ++iteration) {
    std::vector<std::string> mutated = lines;
    const std::size_t victim = 2 + rng.next_below(rows.size());
    switch (iteration % 3) {
      case 0: {  // truncate: drop at least the last column
        std::string& line = mutated[victim];
        const std::size_t last_comma = line.rfind(',');
        line = line.substr(0, last_comma - rng.next_below(last_comma / 2));
        const std::string msg = load_expecting_error(join(mutated));
        EXPECT_NE(msg.find("columns"), std::string::npos) << msg;
        break;
      }
      case 1: {  // scramble one numeric cell
        std::string& line = mutated[victim];
        const std::size_t comma = line.find(',', line.find(',') + 1);
        line.insert(comma + 1, "x");
        const std::string msg = load_expecting_error(join(mutated));
        EXPECT_NE(msg.find("malformed"), std::string::npos) << msg;
        break;
      }
      case 2: {  // permute two header columns
        std::string& header = mutated[1];
        const std::size_t cut = header.find(',');
        header = header.substr(cut + 1) + "," + header.substr(0, cut);
        const std::string msg = load_expecting_error(join(mutated));
        EXPECT_NE(msg.find("header"), std::string::npos) << msg;
        break;
      }
    }
  }
}

TEST(ResultsIo, SkipsBlankLines) {
  std::stringstream ss;
  ss << kSchemaLine << kHeaderLine << "\n"
     << "K20,Apertif,64,"
        "channel_block=128;elem_dm=2;elem_time=5;unroll=2;wi_dm=4;wi_time=32,"
        "123.4,0.01,3.2,900\n";
  const auto rows = load_results(ss);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].device, "K20");
  EXPECT_EQ(rows[0].config,
            engine::encode_kernel_config(KernelConfig{32, 4, 5, 2, 128, 2}));
  EXPECT_EQ(rows[0].evaluated, 900u);
}

}  // namespace
}  // namespace ddmc::tuner
