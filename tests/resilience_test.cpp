// Tests for the fault-injection framework and supervised execution
// (src/resilience/): failpoint trigger semantics, the typed error taxonomy,
// the supervised sharded executor (retry, reacquisition, aggregated
// failure reporting, bitwise identity under any absorbed fault pattern),
// the streaming watchdog ladder (retry → skip-with-gap → degrade), the
// SampleRing poison path, and the tuning-cache quarantine/rename seams.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/expect.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "engine/registry.hpp"
#include "pipeline/sharding.hpp"
#include "resilience/error.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/supervisor.hpp"
#include "stream/ring_buffer.hpp"
#include "stream/streaming_dedisperser.hpp"
#include "probe_engine.hpp"
#include "test_util.hpp"
#include "tuner/tuning_cache.hpp"

namespace ddmc {
namespace {

using dedisp::KernelConfig;
using dedisp::Plan;
using resilience::ErrorClass;
using resilience::FaultInjector;
using resilience::FaultSpec;
using resilience::ScopedFault;
using testing::ProbeEngine;
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

// -------------------------------------------------------------- taxonomy --

TEST(ErrorTaxonomy, ClassifiesEveryKind) {
  const auto classify_thrown = [](auto&& thrower) {
    try {
      thrower();
    } catch (...) {
      return resilience::classify(std::current_exception());
    }
    return ErrorClass::kUnknown;
  };
  EXPECT_EQ(classify_thrown([] { throw resilience::TransientError("t"); }),
            ErrorClass::kTransient);
  EXPECT_EQ(classify_thrown([] { throw resilience::ConfigError("c"); }),
            ErrorClass::kConfig);
  EXPECT_EQ(classify_thrown([] { throw resilience::DataError("d"); }),
            ErrorClass::kData);
  // The library's pre-existing contract types fold into kConfig so legacy
  // throws get the right (fail-fast) policy without being rewritten.
  EXPECT_EQ(classify_thrown([] { throw ddmc::invalid_argument("i"); }),
            ErrorClass::kConfig);
  EXPECT_EQ(classify_thrown([] { throw ddmc::config_error("e"); }),
            ErrorClass::kConfig);
  EXPECT_EQ(classify_thrown([] { throw std::runtime_error("r"); }),
            ErrorClass::kUnknown);
  EXPECT_EQ(classify_thrown([] { throw 42; }), ErrorClass::kUnknown);
  EXPECT_EQ(resilience::classify(nullptr), ErrorClass::kUnknown);

  EXPECT_STREQ(resilience::to_string(ErrorClass::kTransient), "transient");
  EXPECT_STREQ(resilience::to_string(ErrorClass::kConfig), "config");
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  resilience::RetryPolicy policy;
  policy.backoff_seconds = 0.001;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.003;
  EXPECT_DOUBLE_EQ(policy.backoff_for(1), 0.001);
  EXPECT_DOUBLE_EQ(policy.backoff_for(2), 0.002);
  EXPECT_DOUBLE_EQ(policy.backoff_for(3), 0.003);  // capped
  EXPECT_DOUBLE_EQ(policy.backoff_for(9), 0.003);
  policy.backoff_seconds = 0.0;
  EXPECT_DOUBLE_EQ(policy.backoff_for(5), 0.0);
}

// --------------------------------------------------------- fault injector --

TEST(FaultInjector, CountdownFiresAfterSkipThenExhausts) {
  ScopedFault fault("test.countdown", [] {
    FaultSpec spec;
    spec.skip = 2;       // let two hits pass
    spec.max_fires = 1;  // then fire exactly once
    return spec;
  }());
  auto& inj = FaultInjector::instance();
  EXPECT_NO_THROW(inj.fire("test.countdown"));
  EXPECT_NO_THROW(inj.fire("test.countdown"));
  EXPECT_THROW(inj.fire("test.countdown"), resilience::TransientError);
  EXPECT_NO_THROW(inj.fire("test.countdown"));  // exhausted
  EXPECT_EQ(fault.stats().hits, 4u);
  EXPECT_EQ(fault.stats().fires, 1u);
}

TEST(FaultInjector, ContextFilterMatchesOnlyThatContext) {
  ScopedFault fault("test.context", [] {
    FaultSpec spec;
    spec.context = 3;
    spec.max_fires = 0;  // unlimited
    return spec;
  }());
  auto& inj = FaultInjector::instance();
  EXPECT_NO_THROW(inj.fire("test.context", 2));
  EXPECT_NO_THROW(inj.fire("test.context"));  // context-free hit: no match
  EXPECT_THROW(inj.fire("test.context", 3), resilience::TransientError);
  EXPECT_THROW(inj.fire("test.context", 3), resilience::TransientError);
  // Non-matching hits are not even counted: the stats describe the
  // filtered stream a test is reasoning about.
  EXPECT_EQ(fault.stats().hits, 2u);
  EXPECT_EQ(fault.stats().fires, 2u);
}

TEST(FaultInjector, ThrowsTheConfiguredTaxonomyError) {
  for (const auto kind : {ErrorClass::kConfig, ErrorClass::kData}) {
    FaultSpec spec;
    spec.error = kind;
    spec.message = "simulated";
    ScopedFault fault("test.kind", spec);
    try {
      FaultInjector::instance().fire("test.kind", 7);
      FAIL() << "armed failpoint did not fire";
    } catch (const resilience::Error& e) {
      EXPECT_EQ(resilience::classify(std::current_exception()), kind);
      const std::string what = e.what();
      EXPECT_NE(what.find("test.kind"), std::string::npos);
      EXPECT_NE(what.find("context 7"), std::string::npos);
      EXPECT_NE(what.find("simulated"), std::string::npos);
    }
  }
}

TEST(FaultInjector, ProbabilityIsDeterministicPerSeed) {
  const auto pattern = [] {
    FaultSpec spec;
    spec.trigger = FaultSpec::Trigger::kProbability;
    spec.probability = 0.5;
    spec.seed = 99;
    spec.max_fires = 0;
    ScopedFault fault("test.prob", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(FaultInjector::instance().triggered("test.prob"));
    }
    return fired;
  };
  const std::vector<bool> first = pattern();
  EXPECT_EQ(first, pattern());  // same seed, same faults — bit for bit
  const std::size_t fires =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 16u);  // p=0.5 over 64 draws: loose deterministic bounds
  EXPECT_LT(fires, 48u);

  FaultSpec never;
  never.trigger = FaultSpec::Trigger::kProbability;
  never.probability = 0.0;
  never.max_fires = 0;
  ScopedFault off("test.prob", never);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(FaultInjector::instance().triggered("test.prob"));
  }
}

TEST(FaultInjector, ScopedFaultDisarmsOnScopeExit) {
  {
    ScopedFault fault("test.scoped", FaultSpec{});
    EXPECT_TRUE(FaultInjector::instance().armed("test.scoped"));
  }
  EXPECT_FALSE(FaultInjector::instance().armed("test.scoped"));
  EXPECT_NO_THROW(FaultInjector::instance().fire("test.scoped"));
}

TEST(FaultInjector, EngineExecuteSeamCoversEveryBuiltin) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 4, 32);
  const Array2D<float> input = random_input(plan);
  Array2D<float> out(plan.dms(), plan.out_samples());
  for (const std::string& id : engine::EngineRegistry::instance().ids()) {
    SCOPED_TRACE(id);
    FaultSpec spec;
    spec.max_fires = 0;
    ScopedFault fault("engine.execute", spec);
    const auto engine = engine::make_engine(id);
    EXPECT_THROW(engine->execute(plan, engine::EngineConfig{},
                                 input.cview(), out.view()),
                 resilience::TransientError);
  }
}

// ---------------------------------------------------- sharded supervision --

TEST(SupervisedSharding, FaultAtEveryShardPositionIsAbsorbedBitwise) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Array2D<float> input = random_input(plan);
  const KernelConfig config{5, 2, 4, 2};
  const Array2D<float> expected = single_engine(plan, config, input);

  pipeline::ShardedOptions opts;
  opts.workers = 3;
  opts.supervision.retry.max_attempts = 2;
  opts.supervision.retry.backoff_seconds = 0.0;
  const pipeline::ShardedDedisperser sharded(plan, tiled_config(config), opts);

  for (std::size_t shard = 0; shard < sharded.shard_count(); ++shard) {
    SCOPED_TRACE("fault at shard " + std::to_string(shard));
    FaultSpec spec;
    spec.context = shard;  // kill exactly this shard's first attempt
    spec.max_fires = 1;
    ScopedFault fault("shard.task", spec);
    expect_same_matrix(expected, sharded.dedisperse(input.cview()));
    const resilience::ShardExecutionReport report = sharded.last_report();
    EXPECT_EQ(report.jobs, sharded.shard_count());
    EXPECT_EQ(report.retries, 1u);
    EXPECT_EQ(report.shards[shard].retries, 1u);
    EXPECT_EQ(report.shards[shard].attempts, 2u);
    for (const auto& s : report.shards) EXPECT_FALSE(s.failed);
  }
  // No fault armed: the clean run reports one attempt per shard.
  expect_same_matrix(expected, sharded.dedisperse(input.cview()));
  EXPECT_TRUE(sharded.last_report().clean());
}

TEST(SupervisedSharding, DeadWorkerShardIsReacquiredBitwise) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Array2D<float> input = random_input(plan);
  const KernelConfig config{5, 2, 4, 2};
  const Array2D<float> expected = single_engine(plan, config, input);

  pipeline::ShardedOptions opts;
  opts.workers = 3;
  opts.supervision.retry.max_attempts = 2;
  opts.supervision.retry.backoff_seconds = 0.0;
  opts.supervision.reacquire = true;
  opts.supervision.reacquire_splits = 2;
  const pipeline::ShardedDedisperser sharded(plan, tiled_config(config), opts);

  for (std::size_t shard = 0; shard < sharded.shard_count(); ++shard) {
    SCOPED_TRACE("dead worker at shard " + std::to_string(shard));
    FaultSpec spec;
    spec.context = shard;
    spec.max_fires = 0;  // permanently dead: every first-assignment attempt
    ScopedFault fault("shard.task", spec);
    expect_same_matrix(expected, sharded.dedisperse(input.cview()));
    const resilience::ShardExecutionReport report = sharded.last_report();
    EXPECT_EQ(report.reassignments, 1u);
    EXPECT_EQ(report.shards[shard].reassignments, 1u);
    EXPECT_EQ(report.shards[shard].retries, 1u);  // the exhausted retry
    for (const auto& s : report.shards) EXPECT_FALSE(s.failed);
    // The dead worker burned its full retry budget before reacquisition.
    EXPECT_EQ(fault.stats().fires, opts.supervision.retry.max_attempts);
  }
}

TEST(SupervisedSharding, ReacquisitionCutsOnTheDmTile) {
  // A dead shard's range is re-partitioned on the config's DM tile, so a
  // shard of two tiles yields at most two sub-shards, however many splits
  // the policy allows: one attempt each after the exhausted retries.
  const Plan plan = Plan::with_output_samples(mini_obs(), 16, 60);
  const Array2D<float> input = random_input(plan);
  const KernelConfig config{5, 2, 4, 2};  // DM tile 4
  const Array2D<float> expected = single_engine(plan, config, input);

  pipeline::ShardedOptions opts;
  opts.workers = 2;
  opts.supervision.retry.max_attempts = 2;
  opts.supervision.retry.backoff_seconds = 0.0;
  opts.supervision.reacquire = true;
  opts.supervision.reacquire_splits = 3;
  const pipeline::ShardedDedisperser sharded(plan, tiled_config(config), opts);

  for (std::size_t shard = 0; shard < sharded.shard_count(); ++shard) {
    SCOPED_TRACE("dead worker at shard " + std::to_string(shard));
    const std::size_t tiles = sharded.shard_plan(shard).dms() / 4;
    ASSERT_EQ(sharded.shard_plan(shard).dms(), 4 * tiles);
    FaultSpec spec;
    spec.context = shard;
    spec.max_fires = 0;
    ScopedFault fault("shard.task", spec);
    expect_same_matrix(expected, sharded.dedisperse(input.cview()));
    EXPECT_EQ(sharded.last_report().shards[shard].attempts,
              opts.supervision.retry.max_attempts +
                  std::min<std::size_t>(tiles, 3));
  }
}

TEST(SupervisedSharding, ExhaustionAggregatesEveryFailedShard) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Array2D<float> input = random_input(plan);
  pipeline::ShardedOptions opts;
  opts.workers = 3;
  opts.supervision.retry.max_attempts = 2;
  opts.supervision.retry.backoff_seconds = 0.0;
  const pipeline::ShardedDedisperser sharded(plan, engine::EngineConfig{},
                                             opts);

  FaultSpec spec;
  spec.max_fires = 0;  // context-free: every shard's every attempt fails
  ScopedFault fault("shard.task", spec);
  try {
    sharded.dedisperse(input.cview());
    FAIL() << "every shard failed but dedisperse returned";
  } catch (const resilience::ShardExecutionError& e) {
    // Satellite regression: the old executor rethrew only the *first*
    // worker failure; the aggregate must name every failed shard index.
    ASSERT_EQ(e.failures().size(), sharded.shard_count());
    const std::string what = e.what();
    for (std::size_t shard = 0; shard < sharded.shard_count(); ++shard) {
      EXPECT_EQ(e.failures()[shard].shard, shard);
      EXPECT_EQ(e.failures()[shard].attempts, 2u);
      EXPECT_EQ(e.failures()[shard].kind, ErrorClass::kTransient);
      EXPECT_NE(what.find("shard " + std::to_string(shard)),
                std::string::npos);
    }
  }
  const resilience::ShardExecutionReport report = sharded.last_report();
  for (const auto& s : report.shards) EXPECT_TRUE(s.failed);
}

TEST(SupervisedSharding, FatalErrorsAreNeitherRetriedNorReacquired) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 8, 60);
  const Array2D<float> input = random_input(plan);
  pipeline::ShardedOptions opts;
  opts.workers = 2;
  opts.supervision.retry.max_attempts = 3;
  opts.supervision.retry.backoff_seconds = 0.0;
  opts.supervision.reacquire = true;
  const pipeline::ShardedDedisperser sharded(plan, engine::EngineConfig{},
                                             opts);

  FaultSpec spec;
  spec.context = 0;
  spec.max_fires = 0;
  spec.error = ErrorClass::kConfig;  // a poisoned request, not a dead worker
  ScopedFault fault("shard.task", spec);
  try {
    sharded.dedisperse(input.cview());
    FAIL() << "config fault did not surface";
  } catch (const resilience::ShardExecutionError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].kind, ErrorClass::kConfig);
    EXPECT_EQ(e.failures()[0].attempts, 1u);  // never retried
  }
  EXPECT_EQ(sharded.last_report().reassignments, 0u);  // never reacquired
  EXPECT_EQ(fault.stats().fires, 1u);
}

// Satellite regression: last_report() must be safe (and coherent) while a
// dedisperse is in flight — the old executor swapped in a fresh report at
// the *end* of the run, so a concurrent reader raced the swap. The report
// is now mutated live under a mutex: a mid-flight reader sees a consistent
// partial report whose invariants already hold.
TEST(SupervisedSharding, LastReportIsSafeToReadMidFlight) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Array2D<float> input = random_input(plan);
  const KernelConfig config{5, 2, 4, 2};
  pipeline::ShardedOptions opts;
  opts.workers = 3;
  opts.supervision.retry.max_attempts = 3;
  opts.supervision.retry.backoff_seconds = 0.0;
  const pipeline::ShardedDedisperser sharded(plan, tiled_config(config), opts);

  FaultSpec spec;
  spec.trigger = FaultSpec::Trigger::kProbability;
  spec.probability = 0.5;  // plenty of retries to interleave with reads
  spec.seed = 99;
  spec.max_fires = 8;
  ScopedFault fault("shard.task", spec);

  // The runs overlap the reader by construction: they start only once the
  // reader is running, and they continue past the first 20 (up to a
  // generous cap) until at least one read has run entirely inside a run,
  // however late a loaded host schedules the reader. `phase` is odd while
  // a run is in flight and steps by one at each run's start and end.
  std::atomic<bool> reader_running{false};
  std::atomic<std::size_t> phase{0};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> mid_flight_reads{0};
  std::thread reader([&] {
    reader_running.store(true);
    while (!stop.load()) {
      const std::size_t phase_before = phase.load();
      const resilience::ShardExecutionReport report = sharded.last_report();
      const std::size_t phase_after = phase.load();
      // Coherence invariants that must hold at *any* instant of the run.
      EXPECT_LE(report.retries, report.attempts);
      std::size_t shard_attempts = 0;
      for (const auto& shard : report.shards) {
        shard_attempts += shard.attempts;
        EXPECT_LE(shard.retries, shard.attempts);
      }
      EXPECT_EQ(shard_attempts, report.attempts);
      reads.fetch_add(1);
      if (phase_before % 2 == 1 && phase_after == phase_before) {
        mid_flight_reads.fetch_add(1);
      }
    }
  });
  while (!reader_running.load()) std::this_thread::yield();

  const Array2D<float> expected = single_engine(plan, config, input);
  constexpr int kMinRuns = 20;
  constexpr int kMaxRuns = 20000;
  int runs = 0;
  while (runs < kMinRuns || (mid_flight_reads.load() == 0 && runs < kMaxRuns)) {
    phase.fetch_add(1);
    try {
      expect_same_matrix(expected, sharded.dedisperse(input.cview()));
    } catch (const resilience::ShardExecutionError&) {
      // Retry budget exhausted under the injected fault rate: fine — the
      // reader's invariants are what this test is about.
    }
    phase.fetch_add(1);
    ++runs;
  }
  stop.store(true);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(mid_flight_reads.load(), 0u) << "after " << runs << " runs";
}

TEST(SupervisedSharding, FailedReacquisitionKeepsTheShardFailed) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Array2D<float> input = random_input(plan);
  pipeline::ShardedOptions opts;
  opts.workers = 3;
  opts.supervision.retry.max_attempts = 1;
  opts.supervision.reacquire = true;
  opts.supervision.reacquire_splits = 2;
  const pipeline::ShardedDedisperser sharded(plan, engine::EngineConfig{},
                                             opts);

  FaultSpec dead;
  dead.context = 1;
  dead.max_fires = 0;
  ScopedFault worker("shard.task", dead);
  ScopedFault rescue("shard.reacquire.task", dead);  // the rescue dies too
  try {
    sharded.dedisperse(input.cview());
    FAIL() << "shard 1 had no surviving path but dedisperse returned";
  } catch (const resilience::ShardExecutionError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].shard, 1u);
    EXPECT_NE(std::string(e.what()).find("reacquisition failed"),
              std::string::npos);
  }
  const resilience::ShardExecutionReport report = sharded.last_report();
  EXPECT_EQ(report.reassignments, 1u);  // the rescue was attempted
  EXPECT_TRUE(report.shards[1].failed);
}

// ------------------------------------------------------------ ring poison --

TEST(SampleRingPoison, FailUnblocksAProducerStuckOnBackpressure) {
  // Satellite regression: a producer blocked against a full ring whose
  // consumer died used to wait forever — nothing ever popped and close()
  // belongs to the producer side. fail() must wake it with the reason.
  stream::SampleRing ring(2, 16);
  std::atomic<bool> threw{false};
  std::string message;
  std::thread producer([&] {
    Array2D<float> block(2, 64);  // 4× capacity: must block mid-push
    try {
      ring.push(block.cview());
    } catch (const resilience::TransientError& e) {
      threw = true;
      message = e.what();
    }
  });
  while (ring.size() < ring.capacity()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ring.fail("consumer died");
  producer.join();
  EXPECT_TRUE(threw);
  EXPECT_NE(message.find("consumer died"), std::string::npos);
  EXPECT_TRUE(ring.failed());
  // Poison is sticky on both sides and idempotent.
  Array2D<float> one(2, 1);
  EXPECT_THROW(ring.push(one.cview()), resilience::TransientError);
  EXPECT_THROW(ring.pop(one.view()), resilience::TransientError);
  ring.fail("second reason");  // first reason wins
  try {
    ring.pop(one.view());
  } catch (const resilience::TransientError& e) {
    EXPECT_NE(std::string(e.what()).find("consumer died"),
              std::string::npos);
  }
}

TEST(SampleRingPoison, ConsumeFailurePoisonsTheRingForTheProducer) {
  // End-to-end deadlock regression: the consumer (a streaming session
  // draining the ring) dies on a fatal chunk error while the producer
  // keeps pushing an endless stream. consume() must poison the ring so
  // the producer aborts instead of blocking forever on backpressure.
  const Plan chunk = Plan::with_output_samples(mini_obs(), 4, 32);
  stream::SampleRing ring(chunk.channels(), 64);
  std::atomic<bool> producer_threw{false};
  std::thread producer([&] {
    Array2D<float> block(chunk.channels(), 16);
    try {
      for (;;) ring.push(block.cview());  // endless stream, never closes
    } catch (const resilience::TransientError&) {
      producer_threw = true;
    }
  });

  FaultSpec spec;
  spec.error = ErrorClass::kConfig;  // fatal: no watchdog rung applies
  ScopedFault fault("stream.chunk", spec);
  stream::StreamingOptions opts;
  opts.async = false;
  opts.cpu.threads = 1;
  stream::StreamingDedisperser session(chunk, engine::EngineConfig{},
                                       nullptr, opts);
  EXPECT_THROW(session.consume(ring), resilience::ConfigError);
  producer.join();  // deadlock here = the bug this test pins down
  EXPECT_TRUE(producer_threw);
  EXPECT_TRUE(ring.failed());
}

// ------------------------------------------------------ streaming watchdog --

/// Reassemble sink chunks into one dms × total matrix by first_sample,
/// remembering which chunk indices arrived.
struct Collector {
  Array2D<float> total;
  std::vector<std::size_t> indices;
  std::size_t emitted = 0;

  Collector(std::size_t dms, std::size_t out) : total(dms, out) {}

  void operator()(const stream::StreamChunk& chunk) {
    ASSERT_LE(chunk.first_sample + chunk.out_samples, total.cols());
    for (std::size_t dm = 0; dm < total.rows(); ++dm) {
      for (std::size_t t = 0; t < chunk.out_samples; ++t) {
        total(dm, chunk.first_sample + t) = chunk.output(dm, t);
      }
    }
    indices.push_back(chunk.index);
    emitted += chunk.out_samples;
  }
};

TEST(StreamingWatchdog, TransientChunkFaultIsRetriedInvisibly) {
  const std::size_t total_out = 96;  // 3 full chunks of 32
  const Plan batch = Plan::with_output_samples(mini_obs(), 12, total_out);
  const Array2D<float> input = random_input(batch);
  const Array2D<float> expected =
      single_engine(batch, KernelConfig{1, 1, 1, 1}, input);

  FaultSpec spec;
  spec.context = 1;  // chunk 1's first attempt
  spec.max_fires = 1;
  ScopedFault fault("stream.chunk", spec);

  Collector collect(batch.dms(), total_out);
  stream::StreamingOptions opts;
  opts.async = false;
  opts.cpu.threads = 1;
  opts.supervision.enabled = true;
  opts.supervision.max_chunk_retries = 1;
  opts.supervision.degrade_after = 0;
  stream::StreamingDedisperser session(batch.with_chunk(32),
                                       tiled_config(KernelConfig{8, 2, 4, 2}),
                                       std::ref(collect), opts);
  session.push(input.cview());
  session.close();

  EXPECT_EQ(collect.emitted, total_out);
  expect_same_matrix(expected, collect.total);  // the retry left no trace
  const resilience::StreamHealth health = session.health();
  EXPECT_EQ(health.chunks_emitted, 3u);
  EXPECT_EQ(health.retries, 1u);
  EXPECT_EQ(health.chunks_retried, 1u);
  EXPECT_EQ(health.chunks_skipped, 0u);
  EXPECT_TRUE(health.gaps.empty());
  EXPECT_FALSE(health.degraded);
}

TEST(StreamingWatchdog, ExhaustedChunkIsSkippedWithGapAccounting) {
  const std::size_t total_out = 128;  // 4 full chunks of 32
  const Plan batch = Plan::with_output_samples(mini_obs(), 12, total_out);
  const Array2D<float> input = random_input(batch);
  const Array2D<float> expected =
      single_engine(batch, KernelConfig{1, 1, 1, 1}, input);

  FaultSpec spec;
  spec.context = 1;
  spec.max_fires = 0;  // chunk 1 fails on every attempt
  ScopedFault fault("stream.chunk", spec);

  Collector collect(batch.dms(), total_out);
  stream::StreamingOptions opts;
  opts.async = false;
  opts.cpu.threads = 1;
  opts.supervision.enabled = true;
  opts.supervision.max_chunk_retries = 1;
  opts.supervision.degrade_after = 0;
  stream::StreamingDedisperser session(batch.with_chunk(32),
                                       tiled_config(KernelConfig{8, 2, 4, 2}),
                                       std::ref(collect), opts);
  session.push(input.cview());
  session.close();  // must complete: the failure was absorbed as a gap

  EXPECT_EQ(collect.indices, (std::vector<std::size_t>{0, 2, 3}));
  const resilience::StreamHealth health = session.health();
  EXPECT_EQ(health.chunks_emitted, 3u);
  EXPECT_EQ(health.chunks_skipped, 1u);
  ASSERT_EQ(health.gaps.size(), 1u);
  EXPECT_EQ(health.gaps[0].index, 1u);
  EXPECT_EQ(health.gaps[0].first_sample, 32u);
  EXPECT_EQ(health.gaps[0].out_samples, 32u);
  EXPECT_FALSE(health.gaps[0].reason.empty());
  // The gap is in the latency report too: 32 samples at 100 samples/s.
  const stream::LatencyReport latency = session.latency();
  EXPECT_EQ(latency.gap_chunks, 1u);
  EXPECT_NEAR(latency.gap_data_seconds, 0.32, 1e-12);
  EXPECT_NEAR(health.gap_data_seconds, 0.32, 1e-12);
  // Delivered chunks are bitwise exact; the skipped range is simply absent.
  for (std::size_t dm = 0; dm < batch.dms(); ++dm) {
    for (std::size_t t = 0; t < total_out; ++t) {
      if (t >= 32 && t < 64) continue;  // the gap
      ASSERT_EQ(expected(dm, t), collect.total(dm, t))
          << "mismatch at (" << dm << ", " << t << ")";
    }
  }
}

TEST(StreamingWatchdog, RetryRungPrecedesSkipRung) {
  const std::size_t total_out = 96;
  const Plan batch = Plan::with_output_samples(mini_obs(), 12, total_out);
  const Array2D<float> input = random_input(batch);
  const Array2D<float> expected =
      single_engine(batch, KernelConfig{1, 1, 1, 1}, input);

  // Two fires against a budget of two retries: attempts 1 and 2 fail,
  // attempt 3 succeeds — the ladder must exhaust retries before it ever
  // considers dropping the chunk.
  FaultSpec spec;
  spec.context = 1;
  spec.max_fires = 2;
  ScopedFault fault("stream.chunk", spec);

  Collector collect(batch.dms(), total_out);
  stream::StreamingOptions opts;
  opts.async = false;
  opts.cpu.threads = 1;
  opts.supervision.enabled = true;
  opts.supervision.max_chunk_retries = 2;
  opts.supervision.degrade_after = 0;
  stream::StreamingDedisperser session(batch.with_chunk(32),
                                       tiled_config(KernelConfig{8, 2, 4, 2}),
                                       std::ref(collect), opts);
  session.push(input.cview());
  session.close();

  expect_same_matrix(expected, collect.total);
  const resilience::StreamHealth health = session.health();
  EXPECT_EQ(health.retries, 2u);
  EXPECT_EQ(health.chunks_retried, 1u);
  EXPECT_EQ(health.chunks_skipped, 0u);
}

TEST(StreamingWatchdog, ConsecutiveSkipsDegradeToTheCheaperEngine) {
  const std::size_t total_out = 128;  // 4 full chunks of 32
  const Plan batch = Plan::with_output_samples(mini_obs(), 12, total_out);
  const Array2D<float> input = random_input(batch);

  // Chunks 0 and 1 fail outright (no retry budget) and are skipped; two
  // consecutive pressure events reach degrade_after, so chunks 2 and 3 run
  // on the auto-selected cheaper engine.
  FaultSpec spec;
  spec.max_fires = 2;
  ScopedFault fault("stream.chunk", spec);

  Collector collect(batch.dms(), total_out);
  stream::StreamingOptions opts;
  opts.async = false;
  opts.cpu.threads = 1;
  opts.supervision.enabled = true;
  opts.supervision.max_chunk_retries = 0;
  opts.supervision.degrade_after = 2;
  stream::StreamingDedisperser session(batch.with_chunk(32),
                                       tiled_config(KernelConfig{8, 2, 4, 2}),
                                       std::ref(collect), opts);
  EXPECT_EQ(session.health().active_engine, "cpu_tiled");
  session.push(input.cview());
  session.close();

  const resilience::StreamHealth health = session.health();
  EXPECT_EQ(health.chunks_skipped, 2u);
  EXPECT_EQ(health.degradations, 1u);
  EXPECT_TRUE(health.degraded);
  // Capability query, not an id test: the one registered streaming engine
  // that is approximate (and therefore cheaper) is the subband two-stage.
  EXPECT_EQ(health.active_engine, "subband");
  EXPECT_EQ(health.chunks_emitted, 2u);
  EXPECT_EQ(collect.indices, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(session.latency().gap_chunks, 2u);
}

TEST(StreamingWatchdog, RungsActOnEveryBeamOfAChunk) {
  // A two-beam code-window session: chunks 0 and 1 fail and are skipped
  // for both beams, the session degrades to a float engine, and each
  // beam's delivered chunks equal a single-beam session's under the same
  // faults.
  const std::size_t total_out = 128;  // 4 full chunks of 32
  const Plan batch = Plan::with_output_samples(mini_obs(), 12, total_out);
  const std::vector<Array2D<float>> inputs = {random_input(batch, 3),
                                              random_input(batch, 4)};
  const auto run = [&](std::size_t beams, const Array2D<float>& input) {
    FaultSpec spec;
    spec.max_fires = 2;
    ScopedFault fault("stream.chunk", spec);
    testing::BeamCollector collect(beams, batch.dms(), total_out);
    std::vector<std::size_t> indices;
    stream::StreamingOptions opts;
    opts.engine = "cpu_tiled_u8";
    opts.async = false;  // the switch lands between the same two chunks
    opts.cpu.threads = 1;
    opts.beams = beams;
    opts.supervision.enabled = true;
    opts.supervision.max_chunk_retries = 0;
    opts.supervision.degrade_after = 2;
    stream::StreamingDedisperser session(
        batch.with_chunk(32), tiled_config(KernelConfig{8, 2, 4, 2}),
        [&](const stream::StreamChunk& chunk) {
          indices.push_back(chunk.index);
          collect(chunk);
        },
        opts);
    session.push(input.cview());
    session.close();
    const resilience::StreamHealth health = session.health();
    EXPECT_EQ(health.chunks_skipped, 2u);
    EXPECT_TRUE(health.degraded);
    EXPECT_EQ(health.chunks_emitted, 2u);
    std::vector<std::size_t> expected_indices;
    for (const std::size_t index : {2u, 3u}) {
      expected_indices.insert(expected_indices.end(), beams, index);
    }
    EXPECT_EQ(indices, expected_indices);
    return collect.totals;
  };
  const std::vector<Array2D<float>> both =
      run(2, testing::stack_beams(inputs));
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    SCOPED_TRACE("beam " + std::to_string(b));
    expect_same_matrix(run(1, inputs[b])[0], both[b]);
  }
}

TEST(StreamingWatchdog, DeadlineOverrunsApplyDegradationPressure) {
  const std::size_t total_out = 128;
  const Plan batch = Plan::with_output_samples(mini_obs(), 12, total_out);
  const Array2D<float> input = random_input(batch);

  Collector collect(batch.dms(), total_out);
  stream::StreamingOptions opts;
  opts.async = false;
  opts.cpu.threads = 1;
  opts.supervision.enabled = true;
  opts.supervision.deadline_factor = 1e-12;  // no chunk can make this
  opts.supervision.degrade_after = 3;
  stream::StreamingDedisperser session(batch.with_chunk(32),
                                       tiled_config(KernelConfig{8, 2, 4, 2}),
                                       std::ref(collect), opts);
  session.push(input.cview());
  session.close();

  // Overruns degrade but never drop: every chunk was still delivered.
  EXPECT_EQ(collect.emitted, total_out);
  const resilience::StreamHealth health = session.health();
  EXPECT_EQ(health.chunks_emitted, 4u);
  EXPECT_GE(health.deadline_overruns, 3u);
  EXPECT_EQ(health.degradations, 1u);
  EXPECT_EQ(health.active_engine, "subband");
  EXPECT_EQ(health.chunks_skipped, 0u);
}

TEST(StreamingWatchdog, PressureStreakFollowsChunkOrder) {
  // Chunk 0 is on time and chunk 1 is skipped, which leaves the pressure
  // streak at 1: the on-time chunk resets it before the skip counts, never
  // after. When chunk 2 then overruns its deadline the streak reaches
  // degrade_after = 2; when it is on time the session never degrades. An
  // async session applies the pressure on its delivery thread while later
  // chunks already dedisperse, so both modes run.
  const Plan batch = Plan::with_output_samples(mini_obs(), 12, 4 * 32);
  const Array2D<float> input = random_input(batch);
  for (const bool async : {false, true}) {
    for (const bool overrun : {true, false}) {
      SCOPED_TRACE(std::string(async ? "async" : "sync") +
                   (overrun ? ", chunk 2 overruns" : ", chunk 2 on time"));
      ProbeEngine::install();
      // Chunk 1 never reaches the engine, so chunk 2 is execution 2.
      if (overrun) ProbeEngine::slow_down(2, std::chrono::milliseconds(400));
      FaultSpec spec;
      spec.context = 1;
      spec.max_fires = 0;
      ScopedFault fault("stream.chunk", spec);

      Collector collect(batch.dms(), batch.out_samples());
      stream::StreamingOptions opts;
      opts.engine = ProbeEngine::kId;
      opts.async = async;
      opts.cpu.threads = 1;
      opts.supervision.enabled = true;
      opts.supervision.max_chunk_retries = 0;
      opts.supervision.degrade_after = 2;
      // 0.16 s of budget per 0.32 s chunk: the slowed chunk misses it, the
      // others take well under a millisecond.
      opts.supervision.deadline_factor = 0.5;
      // A slow sink on chunk 0 makes an async session skip chunk 1 while
      // chunk 0 is still being delivered.
      stream::StreamingDedisperser session(
          batch.with_chunk(32), engine::EngineConfig{},
          [&](const stream::StreamChunk& chunk) {
            if (chunk.index == 0) {
              std::this_thread::sleep_for(std::chrono::milliseconds(100));
            }
            collect(chunk);
          },
          opts);
      session.push(input.cview());
      session.close();

      const resilience::StreamHealth health = session.health();
      EXPECT_EQ(collect.indices, (std::vector<std::size_t>{0, 2, 3}));
      EXPECT_EQ(health.chunks_skipped, 1u);
      EXPECT_EQ(health.deadline_overruns, overrun ? 1u : 0u);
      EXPECT_EQ(health.degradations, overrun ? 1u : 0u);
      EXPECT_EQ(health.degraded, overrun);
    }
  }
}

TEST(StreamingWatchdog, UnsupervisedSessionStillFailsFast) {
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, 96);
  const Array2D<float> input = random_input(batch);
  FaultSpec spec;
  spec.context = 0;
  ScopedFault fault("stream.chunk", spec);
  stream::StreamingOptions opts;
  opts.async = false;
  opts.cpu.threads = 1;
  stream::StreamingDedisperser session(batch.with_chunk(32),
                                       engine::EngineConfig{}, nullptr,
                                       opts);
  EXPECT_THROW(session.push(input.cview()), resilience::TransientError);
}

TEST(StreamingWatchdog, SelectDegradeEngineQueriesCapabilities) {
  resilience::StreamPolicy policy;
  // Auto-selection walks the cost tiers (exact → quantized →
  // algorithmic) and takes the cheapest on offer, never the current one.
  // cpu_tiled_u8 streams and is approximate, but it does every addition
  // the drowning session already could not afford — the ladder must
  // still prefer subband's flop reduction, and never degrade "up" from
  // subband to the quantized engine.
  EXPECT_EQ(resilience::select_degrade_engine("cpu_tiled", policy),
            "subband");
  EXPECT_EQ(resilience::select_degrade_engine("cpu_tiled_u8", policy),
            "subband");
  EXPECT_EQ(resilience::select_degrade_engine("subband", policy), "");
  // Explicit target: validated for the streaming capability.
  policy.degrade_engine = "reference";
  EXPECT_EQ(resilience::select_degrade_engine("cpu_tiled", policy),
            "reference");
  policy.degrade_engine = "cpu_tiled";
  EXPECT_EQ(resilience::select_degrade_engine("cpu_tiled", policy), "");
  policy.degrade_engine = "no_such_engine";
  EXPECT_THROW(resilience::select_degrade_engine("cpu_tiled", policy),
               invalid_argument);
}

// ------------------------------------------------- tuning-cache quarantine --

std::string temp_cache_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

tuner::CacheEntry sample_entry(const Plan& plan) {
  tuner::CacheEntry entry;
  entry.host = tuner::HostSignature::of(dedisp::CpuKernelOptions{});
  entry.plan = tuner::PlanSignature::of(plan);
  entry.config = engine::encode_kernel_config(KernelConfig{1, 1, 1, 1});
  entry.gflops = 1.0;
  entry.seconds = 0.5;
  entry.evaluated = 1;
  return entry;
}

TEST(TuningCacheQuarantine, CorruptFileIsQuarantinedNotFatal) {
  const std::string path = temp_cache_path("corrupt_cache.csv");
  const std::string quarantined = path + ".quarantined";
  std::filesystem::remove(path);
  std::filesystem::remove(quarantined);
  {
    std::ofstream os(path);
    os << "this,is,not,a,tuning,cache\nat,all\n";
  }
  // Satellite regression: a damaged cache used to abort the run; it must
  // start empty instead — every entry is recomputable by measurement.
  tuner::TuningCache cache(path);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(std::filesystem::exists(path));  // moved aside, not deleted
  EXPECT_TRUE(std::filesystem::exists(quarantined));
  // The damaged bytes survive for diagnosis.
  std::ifstream is(quarantined);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "this,is,not,a,tuning,cache");
  // The quarantined path no longer blocks saving.
  cache.store(sample_entry(Plan::with_output_samples(mini_obs(), 8, 64)));
  EXPECT_EQ(tuner::TuningCache(path).size(), 1u);
  std::filesystem::remove(path);
  std::filesystem::remove(quarantined);
}

TEST(TuningCacheQuarantine, LoadFailpointQuarantinesAValidFile) {
  const std::string path = temp_cache_path("load_fault_cache.csv");
  const std::string quarantined = path + ".quarantined";
  std::filesystem::remove(path);
  std::filesystem::remove(quarantined);
  {
    tuner::TuningCache writer(path);
    writer.store(sample_entry(Plan::with_output_samples(mini_obs(), 8, 64)));
  }
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    ScopedFault fault("tuning_cache.load", FaultSpec{});
    tuner::TuningCache cache(path);  // parse "fails" deterministically
    EXPECT_EQ(cache.size(), 0u);
  }
  EXPECT_TRUE(std::filesystem::exists(quarantined));
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove(quarantined);
}

TEST(TuningCacheQuarantine, RenameFailureIsTransientAndKeepsTheOldFile) {
  const std::string path = temp_cache_path("rename_fault_cache.csv");
  std::filesystem::remove(path);
  const Plan plan_a = Plan::with_output_samples(mini_obs(), 8, 64);
  const Plan plan_b = Plan::with_output_samples(mini_obs(), 16, 64);
  tuner::TuningCache cache(path);
  cache.store(sample_entry(plan_a));
  ASSERT_EQ(tuner::TuningCache(path).size(), 1u);

  {
    // Satellite regression: std::rename's failure branch (short device,
    // crossed filesystems) was previously unchecked. It must clean the
    // temp file, keep the old cache intact, and throw retryable.
    ScopedFault fault("tuning_cache.rename", FaultSpec{});
    EXPECT_THROW(cache.store(sample_entry(plan_b)),
                 resilience::TransientError);
  }
  EXPECT_EQ(tuner::TuningCache(path).size(), 1u);  // old file untouched
  // No temp litter left behind.
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(path).parent_path())) {
    EXPECT_EQ(entry.path().string().find(path + ".tmp."), std::string::npos)
        << "stale temp file: " << entry.path();
  }
  // The failure was transient: the very next save succeeds.
  cache.save();
  EXPECT_EQ(tuner::TuningCache(path).size(), 2u);
  std::filesystem::remove(path);
}

// ------------------------------------------------------- randomized soaks --

TEST(ResilienceSoakSlowTier, RandomShardFaultPatternsNeverCorruptOutput) {
  // Seeded probability faults on both the first-assignment tasks and the
  // reacquisition rescues, across many seeds: every run must either absorb
  // the pattern (bitwise-identical output) or fail loudly with a complete
  // aggregate — never return silently wrong data, never deadlock.
  const Plan plan = Plan::with_output_samples(mini_obs(), 16, 60);
  const Array2D<float> input = random_input(plan);
  const KernelConfig config{1, 1, 1, 1};
  const Array2D<float> expected = single_engine(plan, config, input);

  pipeline::ShardedOptions opts;
  opts.workers = 4;
  opts.supervision.retry.max_attempts = 3;
  opts.supervision.retry.backoff_seconds = 0.0;
  opts.supervision.reacquire = true;
  const pipeline::ShardedDedisperser sharded(plan, tiled_config(config), opts);

  std::size_t absorbed = 0, failed = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FaultSpec task;
    task.trigger = FaultSpec::Trigger::kProbability;
    // High enough that some seed defeats retry × reacquisition (terminal
    // shard failure needs 3 task faults then a sub-shard's 3 more), low
    // enough that other seeds are fully absorbed.
    task.probability = 0.6;
    task.seed = seed;
    task.max_fires = 0;
    ScopedFault worker("shard.task", task);
    FaultSpec rescue = task;
    rescue.seed = seed + 1000;
    ScopedFault sub("shard.reacquire.task", rescue);
    try {
      const Array2D<float> out = sharded.dedisperse(input.cview());
      expect_same_matrix(expected, out);
      ++absorbed;
    } catch (const resilience::ShardExecutionError& e) {
      EXPECT_FALSE(e.failures().empty());
      const resilience::ShardExecutionReport report = sharded.last_report();
      for (const auto& f : e.failures()) {
        EXPECT_TRUE(report.shards[f.shard].failed);
      }
      ++failed;
    }
  }
  // Both outcomes must occur across the seeds — otherwise the soak is not
  // exercising the recovery machinery at all.
  EXPECT_GT(absorbed, 0u);
  EXPECT_GT(failed, 0u);
}

TEST(ResilienceSoakSlowTier, RandomStreamFaultPatternsAlwaysFinish) {
  const std::size_t chunks = 10;
  const std::size_t chunk_out = 32;
  const Plan batch =
      Plan::with_output_samples(mini_obs(), 8, chunks * chunk_out);
  const Array2D<float> input = random_input(batch);
  const Array2D<float> expected =
      single_engine(batch, KernelConfig{1, 1, 1, 1}, input);

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FaultSpec spec;
    spec.trigger = FaultSpec::Trigger::kProbability;
    spec.probability = 0.4;
    spec.seed = seed;
    spec.max_fires = 0;
    ScopedFault fault("stream.chunk", spec);

    Collector collect(batch.dms(), batch.out_samples());
    stream::StreamingOptions opts;
    opts.async = seed % 2 == 0;  // both execution modes soak
    opts.cpu.threads = 1;
    opts.supervision.enabled = true;
    opts.supervision.max_chunk_retries = 2;
    opts.supervision.degrade_after = 0;  // keep chunks bitwise-comparable
    stream::StreamingDedisperser session(batch.with_chunk(chunk_out),
                                         tiled_config(KernelConfig{8, 2, 4, 2}),
                                         std::ref(collect), opts);
    session.push(input.cview());
    session.close();  // must always return: failures end as gaps

    const resilience::StreamHealth health = session.health();
    EXPECT_EQ(health.chunks_emitted + health.chunks_skipped, chunks);
    EXPECT_EQ(session.latency().gap_chunks, health.chunks_skipped);
    EXPECT_EQ(health.gaps.size(), health.chunks_skipped);
    EXPECT_NEAR(health.gap_data_seconds,
                static_cast<double>(health.chunks_skipped * chunk_out) /
                    100.0,
                1e-9);
    // Every chunk that was delivered is bitwise exact, skipped or not.
    std::vector<bool> delivered(chunks, false);
    for (const std::size_t index : collect.indices) delivered[index] = true;
    for (const auto& gap : health.gaps) {
      EXPECT_FALSE(delivered[gap.index]);
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      if (!delivered[c]) continue;
      for (std::size_t dm = 0; dm < batch.dms(); ++dm) {
        for (std::size_t t = c * chunk_out; t < (c + 1) * chunk_out; ++t) {
          ASSERT_EQ(expected(dm, t), collect.total(dm, t))
              << "seed " << seed << " chunk " << c << " (" << dm << ", "
              << t << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace ddmc
