// Tests for DM-sharded execution (pipeline/sharding.hpp): planner cost
// balance and the differential guarantee — sharded output is bitwise
// identical to the single-engine batch path across shard counts, uneven DM
// grids, multi-beam batching and streaming chunked mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/random.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "engine/engine_config.hpp"
#include "pipeline/dedisperser.hpp"
#include "pipeline/multibeam.hpp"
#include "pipeline/sharding.hpp"
#include "stream/streaming_dedisperser.hpp"
#include "test_util.hpp"

namespace ddmc::pipeline {
namespace {

using dedisp::KernelConfig;
using dedisp::Plan;
using testing::expect_same_matrix;
using testing::mini_obs;
using testing::random_input;
using testing::tiled_config;

/// Single-engine reference: one kernel call over the whole plan, one thread.
Array2D<float> single_engine(const Plan& plan, const KernelConfig& config,
                             const Array2D<float>& input) {
  dedisp::CpuKernelOptions cpu;
  cpu.threads = 1;
  return dedisp::dedisperse_cpu(plan, config, input.cview(), cpu);
}

// ------------------------------------------------------------------ plan --

TEST(DmShardPlan, SlicesTheParentDelayTableBitForBit) {
  const Plan parent = Plan::with_output_samples(mini_obs(), 12, 60);
  const Plan shard = parent.dm_shard(5, 4);
  EXPECT_EQ(shard.dms(), 4u);
  EXPECT_EQ(shard.out_samples(), parent.out_samples());
  EXPECT_EQ(shard.channels(), parent.channels());
  for (std::size_t dm = 0; dm < shard.dms(); ++dm) {
    for (std::size_t ch = 0; ch < shard.channels(); ++ch) {
      ASSERT_EQ(shard.delays().delay(dm, ch),
                parent.delays().delay(5 + dm, ch))
          << "dm " << dm << " ch " << ch;
    }
  }
  // The shard's input window is its own sweep, not the parent's: low-DM
  // shards carry less history.
  EXPECT_EQ(shard.in_samples(),
            shard.out_samples() +
                static_cast<std::size_t>(shard.delays().max_delay()));
  EXPECT_LE(shard.in_samples(), parent.in_samples());
  const Plan low = parent.dm_shard(0, 4);
  EXPECT_LT(low.in_samples(), parent.in_samples());
  // The shard observation's grid starts at the sliced trial.
  EXPECT_DOUBLE_EQ(shard.observation().dm_first(),
                   parent.observation().dm_value(5));

  EXPECT_THROW(parent.dm_shard(5, 8), invalid_argument);
  EXPECT_THROW(parent.dm_shard(0, 0), invalid_argument);
}

// --------------------------------------------------------------- planner --

TEST(DmShardPlanner, PartitionCoversTheGridContiguously) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 24, 60);
  const DmShardPlanner planner(plan);
  for (std::size_t workers : {1u, 2u, 3u, 5u, 7u, 24u, 40u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const ShardLayout layout = planner.partition(workers);
    // One shard per worker, clamped to the trial count.
    EXPECT_EQ(layout.shards.size(), std::min<std::size_t>(workers, 24));
    std::size_t next = 0;
    for (const DmShard& s : layout.shards) {
      EXPECT_EQ(s.first_dm, next);
      EXPECT_GE(s.dms, 1u);
      EXPECT_EQ(s.cost, planner.shard_cost(s.first_dm, s.dms));
      next += s.dms;
    }
    EXPECT_EQ(next, 24u);
  }
}

TEST(DmShardPlanner, CostIsBalancedWithinTolerance) {
  // A steep DM grid (large step) makes the top shard's input window much
  // larger than the bottom's, which is exactly what the cost model must
  // absorb: the balanced layout's critical path must not exceed the mean
  // by more than the contiguity granularity allows.
  const Plan plan =
      Plan::with_output_samples(mini_obs(8, /*dm_step=*/4.0), 64, 50);
  const DmShardPlanner planner(plan);
  for (std::size_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const ShardLayout layout = planner.partition(workers);
    ASSERT_EQ(layout.shards.size(), workers);
    EXPECT_LT(layout.imbalance(), 1.25);
  }
}

TEST(DmShardPlanner, BeatsOrMatchesEqualCountSplits) {
  const Plan plan =
      Plan::with_output_samples(mini_obs(8, /*dm_step=*/4.0), 64, 50);
  const DmShardPlanner planner(plan);
  for (std::size_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::size_t equal_max = 0;
    const std::size_t per = 64 / workers;
    for (std::size_t w = 0; w < workers; ++w) {
      equal_max = std::max(equal_max, planner.shard_cost(w * per, per));
    }
    const ShardLayout layout = planner.partition(workers);
    EXPECT_LE(layout.max_cost, equal_max);
  }
}

TEST(DmShardPlanner, MoreWorkersNeverRaiseTheCriticalPath) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 32, 60);
  const DmShardPlanner planner(plan);
  std::size_t prev = planner.partition(1).max_cost;
  for (std::size_t workers : {2u, 3u, 4u, 6u, 8u}) {
    const std::size_t now = planner.partition(workers).max_cost;
    EXPECT_LE(now, prev) << "workers=" << workers;
    prev = now;
  }
}

TEST(DmShardPlanner, HigherShardsCostMoreAtEqualCounts) {
  const Plan plan =
      Plan::with_output_samples(mini_obs(8, /*dm_step=*/4.0), 64, 50);
  const DmShardPlanner planner(plan);
  EXPECT_GT(planner.shard_cost(48, 16), planner.shard_cost(0, 16));
  EXPECT_THROW(planner.shard_cost(60, 8), invalid_argument);
  EXPECT_THROW(planner.shard_cost(0, 0), invalid_argument);
}

TEST(DmShardPlanner, CostCountsTheInputElementsAShardReads) {
  // channels × (dms·out_samples + out_samples + max_delay(top trial)):
  // every trial reads channels × out_samples elements, and the shard's
  // staged window spans its top trial's dispersion sweep.
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const DmShardPlanner planner(plan);
  for (const auto& [first, dms] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 1}, {0, 12}, {5, 4}, {11, 1}}) {
    SCOPED_TRACE("shard [" + std::to_string(first) + ", +" +
                 std::to_string(dms) + ")");
    const std::size_t max_delay = plan.dm_shard(0, first + dms).max_delay();
    EXPECT_EQ(planner.shard_cost(first, dms),
              8 * (dms * 60 + 60 + max_delay));
  }
  // A layout's totals are its shards' costs.
  const ShardLayout layout = planner.partition(3);
  std::size_t total = 0;
  for (const DmShard& s : layout.shards) total += s.cost;
  EXPECT_EQ(layout.total_cost, total);
}

TEST(DmShardPlanner, PinsTheApertifLayouts) {
  // 128 Apertif DMs × 1000 samples: the sweep is short next to the output,
  // so the balanced layouts are the equal-count splits, with the remainder
  // on the low-DM shards.
  const Plan plan = Plan::with_output_samples(sky::apertif(), 128, 1000);
  const DmShardPlanner planner(plan);
  const auto counts = [&](std::size_t workers) {
    std::vector<std::size_t> dms;
    for (const DmShard& s : planner.partition(workers).shards) {
      dms.push_back(s.dms);
    }
    return dms;
  };
  EXPECT_EQ(counts(2), (std::vector<std::size_t>{64, 64}));
  EXPECT_EQ(counts(3), (std::vector<std::size_t>{43, 43, 42}));
  EXPECT_EQ(counts(4), (std::vector<std::size_t>(4, 32)));
  EXPECT_EQ(counts(8), (std::vector<std::size_t>(8, 16)));
}

// -------------------------------------------------------------- executor --

TEST(ShardedDedisperser, BitwiseIdenticalAcrossShardCounts) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Array2D<float> input = random_input(plan);
  const KernelConfig config{5, 2, 4, 2};
  const Array2D<float> expected = single_engine(plan, config, input);

  // 1, 2, primes, and more workers than trials.
  for (std::size_t workers : {1u, 2u, 3u, 5u, 7u, 12u, 19u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ShardedOptions opts;
    opts.workers = workers;
    const ShardedDedisperser sharded(plan, tiled_config(config), opts);
    EXPECT_EQ(sharded.shard_count(),
              sharded.layout().shards.size());
    expect_same_matrix(expected, sharded.dedisperse(input.cview()));
  }
}

TEST(ShardedDedisperser, HandlesUnevenAndPrimeDmGrids) {
  for (std::size_t dms : {1u, 7u, 13u}) {
    SCOPED_TRACE("dms=" + std::to_string(dms));
    const Plan plan = Plan::with_output_samples(mini_obs(), dms, 60);
    const Array2D<float> input = random_input(plan);
    const KernelConfig config{5, 1, 4, 1};
    const Array2D<float> expected = single_engine(plan, config, input);
    ShardedOptions opts;
    opts.workers = 3;
    const ShardedDedisperser sharded(plan, tiled_config(config), opts);
    expect_same_matrix(expected, sharded.dedisperse(input.cview()));
  }
}

TEST(ShardedDedisperser, AdaptsTheDmTileToEachShard) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const KernelConfig config{5, 2, 4, 2};  // tile_dm = 4
  ShardedOptions opts;
  opts.workers = 5;  // 12 trials over 5 shards: some shard breaks tile 4
  const ShardedDedisperser sharded(plan, tiled_config(config), opts);
  for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    const KernelConfig c =
        engine::decode_kernel_config(sharded.shard_config(i));
    EXPECT_EQ(c.tile_time(), config.tile_time());  // time tile untouched
    EXPECT_EQ(sharded.shard_plan(i).dms() % c.tile_dm(), 0u);
    EXPECT_NO_THROW(c.validate(sharded.shard_plan(i)));
  }
  // A config that does not validate against the parent plan is rejected.
  EXPECT_THROW(
      ShardedDedisperser(plan, tiled_config(KernelConfig{7, 1, 1, 1}), opts),
      config_error);
}

TEST(ShardedDedisperser, RejectsWrongShapes) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 8, 60);
  const Array2D<float> input = random_input(plan);
  ShardedOptions opts;
  opts.workers = 2;
  const ShardedDedisperser sharded(plan, engine::EngineConfig{}, opts);
  Array2D<float> bad_rows(plan.dms() + 1, plan.out_samples());
  EXPECT_THROW(sharded.dedisperse(input.cview(), bad_rows.view()),
               invalid_argument);
  Array2D<float> short_in(plan.channels(), plan.in_samples() - 1);
  EXPECT_THROW(sharded.dedisperse(short_in.cview()), invalid_argument);
  EXPECT_THROW(sharded.dedisperse_batch({}), invalid_argument);
}

TEST(ShardedDedisperser, TunesEachShardThroughTheCache) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Array2D<float> input = random_input(plan);
  const Array2D<float> expected =
      single_engine(plan, KernelConfig{1, 1, 1, 1}, input);

  tuner::TuningCache cache;
  tuner::GuidedTuningOptions tuning;
  tuning.host.repetitions = 1;
  tuning.host.warmup_runs = 0;
  tuning.strategy = tuner::StrategyKind::kRandom;
  tuning.random_samples = 2;
  ShardedOptions opts;
  opts.workers = 3;

  const ShardedDedisperser cold(plan, cache, opts, tuning);
  ASSERT_EQ(cold.tuning_outcomes().size(), cold.shard_count());
  // Cold cache: the first shard always searches; later shards either
  // transfer from a neighbor (distinct PlanSignature, zero measurements)
  // or search when no neighbor's config divides their trial count.
  EXPECT_EQ(cold.tuning_outcomes().front().source,
            tuner::GuidedTuningOutcome::Source::kSearch);
  for (const auto& outcome : cold.tuning_outcomes()) {
    if (outcome.source == tuner::GuidedTuningOutcome::Source::kTransfer) {
      EXPECT_EQ(outcome.configs_evaluated, 0u);
      EXPECT_TRUE(outcome.transfer_distance.has_value());
    }
  }
  EXPECT_EQ(cache.size(),
            static_cast<std::size_t>(std::count_if(
                cold.tuning_outcomes().begin(), cold.tuning_outcomes().end(),
                [](const auto& o) {
                  return o.source ==
                         tuner::GuidedTuningOutcome::Source::kSearch;
                })));
  expect_same_matrix(expected, cold.dedisperse(input.cview()));

  // Same plan, same engine, warm cache: no shard measures anything —
  // shards whose search was stored are exact hits, the rest transfer.
  const ShardedDedisperser warm(plan, cache, opts, tuning);
  EXPECT_EQ(warm.tuning_outcomes().front().source,
            tuner::GuidedTuningOutcome::Source::kCacheHit);
  for (const auto& outcome : warm.tuning_outcomes()) {
    EXPECT_NE(outcome.source, tuner::GuidedTuningOutcome::Source::kSearch);
    EXPECT_EQ(outcome.configs_evaluated, 0u);
  }
  expect_same_matrix(expected, warm.dedisperse(input.cview()));
}

TEST(ShardedDedisperser, BatchedBeamsMatchThePerBeamPath) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const KernelConfig config{5, 2, 4, 2};
  std::vector<Array2D<float>> inputs;
  std::vector<ConstView2D<float>> views;
  for (std::size_t b = 0; b < 3; ++b) {
    inputs.push_back(random_input(plan, 100 + b));
    views.push_back(inputs.back().cview());
  }
  ShardedOptions opts;
  opts.workers = 4;
  const ShardedDedisperser sharded(plan, tiled_config(config), opts);
  const std::vector<Array2D<float>> got = sharded.dedisperse_batch(views);
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    SCOPED_TRACE("beam " + std::to_string(b));
    expect_same_matrix(single_engine(plan, config, inputs[b]), got[b]);
  }
}

// ---------------------------------------------------------------- wiring --

TEST(Dedisperser, ShardedExecutionKnobIsBitwiseIdentical) {
  const sky::Observation obs = mini_obs();
  Dedisperser single =
      Dedisperser::with_output_samples(obs, 12, 60, "cpu_tiled");
  single.set_config(tiled_config(KernelConfig{5, 2, 4, 2}));
  const Array2D<float> input = random_input(single.plan());
  const Array2D<float> expected = single.dedisperse(input.cview());

  Dedisperser sharded =
      Dedisperser::with_output_samples(obs, 12, 60, "cpu_tiled");
  sharded.set_config(tiled_config(KernelConfig{5, 2, 4, 2}));
  sharded.set_execution(Execution::kDmSharded, 3);
  EXPECT_EQ(sharded.execution(), Execution::kDmSharded);
  expect_same_matrix(expected, sharded.dedisperse(input.cview()));

  // Back to single: the knob is reversible.
  sharded.set_execution(Execution::kSingle);
  expect_same_matrix(expected, sharded.dedisperse(input.cview()));
}

TEST(Dedisperser, ShardedExecutionRequiresTheShardingCapability) {
  // Regression for the old silent-ignore wiring: an engine whose
  // capabilities report !supports_sharding is rejected with an error that
  // names the missing capability, instead of quietly dropping the workers.
  for (const char* id : {"subband"}) {
    SCOPED_TRACE(id);
    Dedisperser dd = Dedisperser::with_output_samples(mini_obs(), 8, 64, id);
    try {
      dd.set_execution(Execution::kDmSharded, 2);
      FAIL() << "set_execution accepted an engine without supports_sharding";
    } catch (const invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("supports_sharding"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find(id), std::string::npos);
    }
    EXPECT_NO_THROW(dd.set_execution(Execution::kSingle));
  }
  // The capability, not the engine id, is what gates: every
  // sharding-capable engine takes the knob.
  for (const char* id : {"cpu_tiled", "cpu_baseline", "reference"}) {
    SCOPED_TRACE(id);
    Dedisperser dd = Dedisperser::with_output_samples(mini_obs(), 8, 64, id);
    EXPECT_NO_THROW(dd.set_execution(Execution::kDmSharded, 2));
  }
}

TEST(MultiBeamDedisperser, ShardedBatchMatchesTheBeamParallelPath) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  MultiBeamDedisperser mb(plan, tiled_config(KernelConfig{5, 2, 4, 2}),
                          engine::kDefaultEngineId, {}, /*threads=*/1,
                          /*shard_workers=*/4);
  std::vector<Array2D<float>> inputs;
  std::vector<ConstView2D<float>> views;
  for (std::size_t b = 0; b < 3; ++b) {
    inputs.push_back(random_input(plan, 500 + b));
    views.push_back(inputs.back().cview());
  }
  const std::vector<Array2D<float>> expected = mb.dedisperse(views);
  const std::vector<Array2D<float>> got = mb.dedisperse_sharded(views);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t b = 0; b < got.size(); ++b) {
    SCOPED_TRACE("beam " + std::to_string(b));
    expect_same_matrix(expected[b], got[b]);
  }
}

TEST(MultiBeamDedisperser, RepeatedShardedCallsReuseOneExecutor) {
  // The executor, its pool and its shard plan are built on the first call
  // only; a later call runs on the same one and gives the same bits.
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  MultiBeamDedisperser mb(plan, tiled_config(KernelConfig{5, 2, 4, 2}),
                          engine::kDefaultEngineId, {}, /*threads=*/1,
                          /*shard_workers=*/3);
  EXPECT_EQ(mb.sharded(), nullptr);
  std::vector<Array2D<float>> inputs;
  std::vector<ConstView2D<float>> views;
  for (std::size_t b = 0; b < 2; ++b) {
    inputs.push_back(random_input(plan, 600 + b));
    views.push_back(inputs.back().cview());
  }
  const std::vector<Array2D<float>> first = mb.dedisperse_sharded(views);
  const ShardedDedisperser* const executor = mb.sharded();
  ASSERT_NE(executor, nullptr);
  EXPECT_EQ(executor->workers(), 3u);
  for (int call = 0; call < 3; ++call) {
    const std::vector<Array2D<float>> again = mb.dedisperse_sharded(views);
    EXPECT_EQ(mb.sharded(), executor);
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t b = 0; b < again.size(); ++b) {
      SCOPED_TRACE("call " + std::to_string(call) + ", beam " +
                   std::to_string(b));
      expect_same_matrix(first[b], again[b]);
    }
  }
  EXPECT_EQ(executor->telemetry().runs, 4 * executor->shard_count() * 2);
  // New engine options drop the executor built with the old ones.
  mb.set_engine_options(mb.engine_options());
  EXPECT_EQ(mb.sharded(), nullptr);
  const std::vector<Array2D<float>> rebuilt = mb.dedisperse_sharded(views);
  for (std::size_t b = 0; b < rebuilt.size(); ++b) {
    expect_same_matrix(first[b], rebuilt[b]);
  }
}

// ------------------------------------------------------------- streaming --

/// Reassemble sink chunks into one dms × total matrix by first_sample.
struct Collector {
  Array2D<float> total;
  std::size_t emitted = 0;

  Collector(std::size_t dms, std::size_t out) : total(dms, out) {}

  void operator()(const stream::StreamChunk& chunk) {
    ASSERT_LE(chunk.first_sample + chunk.out_samples, total.cols());
    for (std::size_t dm = 0; dm < total.rows(); ++dm) {
      for (std::size_t t = 0; t < chunk.out_samples; ++t) {
        total(dm, chunk.first_sample + t) = chunk.output(dm, t);
      }
    }
    emitted += chunk.out_samples;
  }
};

TEST(StreamingDedisperser, ShardedChunksAreBitwiseEqualToBatch) {
  const std::size_t total_out = 145;  // 4 full chunks of 32 + partial 17
  const Plan batch = Plan::with_output_samples(mini_obs(), 12, total_out);
  const Array2D<float> input = random_input(batch);
  dedisp::CpuKernelOptions cpu;
  cpu.threads = 1;
  const Array2D<float> expected = dedisp::dedisperse_cpu(
      batch, KernelConfig{1, 1, 1, 1}, input.cview(), cpu);

  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    Collector collect(batch.dms(), total_out);
    stream::StreamingOptions opts;
    opts.async = async;
    opts.cpu.threads = 1;
    opts.shard_workers = 3;
    stream::StreamingDedisperser session(batch.with_chunk(32),
                                         tiled_config(KernelConfig{8, 2, 4, 2}),
                                         std::ref(collect), opts);
    session.push(input.cview());
    session.close();
    EXPECT_EQ(collect.emitted, total_out);
    expect_same_matrix(expected, collect.total);
  }
}

TEST(BeamStreaming, ShardedChunksMatchTheUnshardedSession) {
  const std::size_t total_out = 80;  // 2 full chunks of 32 + partial 16
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
  const std::size_t beams = 2;
  std::vector<Array2D<float>> inputs;
  for (std::size_t b = 0; b < beams; ++b) {
    inputs.push_back(random_input(batch, 900 + b));
  }
  const Array2D<float> stacked = testing::stack_beams(inputs);

  const auto run = [&](std::size_t shard_workers) {
    testing::BeamCollector collect(beams, batch.dms(), total_out);
    stream::StreamingOptions opts;
    opts.cpu.threads = 1;
    opts.shard_workers = shard_workers;
    opts.beams = beams;
    stream::StreamingDedisperser session(
        batch.with_chunk(32), tiled_config(KernelConfig{8, 2, 4, 2}),
        std::ref(collect), opts);
    session.push(stacked.cview());
    session.close();
    EXPECT_EQ(collect.calls, 3 * beams);
    return collect.totals;
  };

  const std::vector<Array2D<float>> plain = run(0);
  const std::vector<Array2D<float>> sharded = run(3);
  for (std::size_t b = 0; b < beams; ++b) {
    SCOPED_TRACE("beam " + std::to_string(b));
    expect_same_matrix(plain[b], sharded[b]);
  }
}

// --------------------------------------------------------------- traffic --

TEST(ShardedDedisperser, TrafficAggregatesEveryShardRun) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const KernelConfig config{5, 2, 4, 2};
  ShardedOptions opts;
  opts.workers = 3;
  const ShardedDedisperser sharded(plan, tiled_config(config), opts);
  EXPECT_EQ(sharded.telemetry().runs, 0u);

  const Array2D<float> input = random_input(plan);
  sharded.dedisperse(input.cview());
  const engine::SessionTraffic t1 = sharded.telemetry();
  EXPECT_EQ(t1.runs, sharded.shard_count());
  EXPECT_GT(t1.flop, 0.0);
  EXPECT_GT(t1.bytes, 0.0);
  EXPECT_GT(t1.engine_seconds, 0.0);
  EXPECT_GT(t1.gflops(), 0.0);

  sharded.dedisperse(input.cview());
  EXPECT_EQ(sharded.telemetry().runs, 2 * sharded.shard_count());
}

TEST(Dedisperser, TelemetrySurvivesReconfiguration) {
  Dedisperser dd = Dedisperser::with_output_samples(mini_obs(), 12, 60);
  dd.set_config(tiled_config(KernelConfig{5, 2, 4, 2}));
  dd.set_execution(Execution::kDmSharded, 3);
  const Array2D<float> input = random_input(dd.plan());
  dd.dedisperse(input.cview());
  const std::size_t sharded_runs = dd.telemetry().runs;
  EXPECT_GT(sharded_runs, 1u);  // one engine run per shard

  // Switching back to single invalidates the sharded executor; the traffic
  // it accumulated must be absorbed, not lost.
  dd.set_execution(Execution::kSingle);
  dd.dedisperse(input.cview());
  const engine::SessionTraffic total = dd.telemetry();
  EXPECT_EQ(total.runs, sharded_runs + 1);
  EXPECT_GT(total.gflops(), 0.0);
}

TEST(StreamingDedisperser, TelemetryCountsEveryChunkRun) {
  const std::size_t total_out = 145;  // 4 full chunks of 32 + partial 17
  const Plan batch = Plan::with_output_samples(mini_obs(), 12, total_out);
  const Array2D<float> input = random_input(batch);

  for (std::size_t shard_workers : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE("shard_workers " + std::to_string(shard_workers));
    Collector collect(batch.dms(), total_out);
    stream::StreamingOptions opts;
    opts.cpu.threads = 1;
    opts.shard_workers = shard_workers;
    stream::StreamingDedisperser session(batch.with_chunk(32),
                                         tiled_config(KernelConfig{8, 2, 4, 2}),
                                         std::ref(collect), opts);
    session.push(input.cview());
    session.close();
    const engine::SessionTraffic traffic = session.telemetry();
    const std::size_t chunks = 5;  // 145 / 32 rounded up
    if (shard_workers == 0) {
      EXPECT_EQ(traffic.runs, chunks);
    } else {
      EXPECT_GE(traffic.runs, chunks);  // >= one engine run per shard/chunk
    }
    EXPECT_GT(traffic.flop, 0.0);
    EXPECT_GT(traffic.gflops(), 0.0);
  }
}

// ------------------------------------------------------- randomized sweep --

TEST(ShardedRandomSlowTier, RandomInstancesStayBitwiseIdentical) {
  // Random plan shapes (uneven grids, prime trial counts, varied DM steps)
  // × random worker counts: the sharded path must never diverge from the
  // single-engine path by a single bit.
  Rng rng(20260730);
  for (int iter = 0; iter < 25; ++iter) {
    const std::size_t dms = 1 + static_cast<std::size_t>(rng.next_below(40));
    const std::size_t out = 16 + static_cast<std::size_t>(rng.next_below(80));
    const double dm_step = 0.25 * (1.0 + static_cast<double>(
                                             rng.next_below(12)));
    const std::size_t workers =
        1 + static_cast<std::size_t>(rng.next_below(9));
    SCOPED_TRACE("iter=" + std::to_string(iter) + " dms=" +
                 std::to_string(dms) + " out=" + std::to_string(out) +
                 " step=" + std::to_string(dm_step) + " workers=" +
                 std::to_string(workers));
    const Plan plan =
        Plan::with_output_samples(mini_obs(8, dm_step), dms, out);
    const Array2D<float> input = random_input(plan, 7000 + iter);
    const KernelConfig config{1, 1, 1, 1};
    const Array2D<float> expected = single_engine(plan, config, input);
    ShardedOptions opts;
    opts.workers = workers;
    const ShardedDedisperser sharded(plan, tiled_config(config), opts);
    expect_same_matrix(expected, sharded.dedisperse(input.cview()));
  }
}

}  // namespace
}  // namespace ddmc::pipeline
