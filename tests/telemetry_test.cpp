// Tests for the telemetry subsystem: metrics registry semantics, histogram
// percentile windows, the trace buffer, the exporters, and the
// LatencyReport round-trip that keeps gap accounting honest across
// export/import (the real-time margin must not silently absorb dropped
// chunks' observation time).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/array2d.hpp"
#include "common/expect.hpp"
#include "common/json.hpp"
#include "dedisp/plan.hpp"
#include "engine/registry.hpp"
#include "sky/detection.hpp"
#include "sky/observation.hpp"
#include "stream/latency.hpp"
#include "stream/streaming_dedisperser.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"
#include "tuner/tuning_cache.hpp"
#include "probe_engine.hpp"

namespace {

using ddmc::telemetry::Labels;
using ddmc::telemetry::MetricSnapshot;
using ddmc::telemetry::MetricsRegistry;
using ddmc::telemetry::TraceEvent;
using ddmc::telemetry::Tracer;
using ddmc::telemetry::TraceSpan;

// The registry is process-wide; each test that asserts on snapshot contents
// starts from a clean slate. Live handles from other components stay valid
// (they detach), so this is safe even though other suites ran first.
class TelemetryRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::instance().reset(); }
};

TEST_F(TelemetryRegistryTest, CounterAccumulatesAndSharesHandle) {
  auto& reg = MetricsRegistry::instance();
  auto c1 = reg.counter("ddmc.test.events_total");
  c1->increment();
  c1->add(2.5);
  auto c2 = reg.counter("ddmc.test.events_total");
  EXPECT_EQ(c1.get(), c2.get());
  EXPECT_DOUBLE_EQ(c2->value(), 3.5);
}

TEST_F(TelemetryRegistryTest, LabelOrderDoesNotSplitIdentity) {
  auto& reg = MetricsRegistry::instance();
  auto a = reg.counter("ddmc.test.labeled_total",
                       {{"b", "2"}, {"a", "1"}});
  auto b = reg.counter("ddmc.test.labeled_total",
                       {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(reg.size(), 1u);
}

TEST_F(TelemetryRegistryTest, KindMismatchThrows) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("ddmc.test.value_total");
  EXPECT_THROW(reg.gauge("ddmc.test.value_total"), ddmc::invalid_argument);
  EXPECT_THROW(reg.histogram("ddmc.test.value_total"),
               ddmc::invalid_argument);
}

TEST_F(TelemetryRegistryTest, InvalidNameRejected) {
  auto& reg = MetricsRegistry::instance();
  EXPECT_THROW(reg.counter("Has-Capitals"), ddmc::invalid_argument);
  EXPECT_THROW(reg.counter(""), ddmc::invalid_argument);
}

TEST_F(TelemetryRegistryTest, SnapshotSortedByNameThenLabels) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("ddmc.test.b_total");
  reg.counter("ddmc.test.a_total", {{"x", "2"}});
  reg.counter("ddmc.test.a_total", {{"x", "1"}});
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "ddmc.test.a_total");
  EXPECT_EQ(snap[0].labels[0].second, "1");
  EXPECT_EQ(snap[1].labels[0].second, "2");
  EXPECT_EQ(snap[2].name, "ddmc.test.b_total");
}

TEST_F(TelemetryRegistryTest, ResetDetachesLiveHandles) {
  auto& reg = MetricsRegistry::instance();
  auto c = reg.counter("ddmc.test.detached_total");
  c->increment();
  reg.reset();
  EXPECT_EQ(reg.size(), 0u);
  c->increment();  // must not crash; simply no longer exported
  EXPECT_DOUBLE_EQ(c->value(), 2.0);
  auto fresh = reg.counter("ddmc.test.detached_total");
  EXPECT_DOUBLE_EQ(fresh->value(), 0.0);
}

TEST_F(TelemetryRegistryTest, CounterIsThreadSafe) {
  auto c = MetricsRegistry::instance().counter("ddmc.test.race_total");
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) c->increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(c->value(), double(kThreads) * kAdds);
}

TEST(TelemetryHistogramTest, ExactPercentilesBelowCapacity) {
  ddmc::telemetry::Histogram h(128);
  for (int i = 1; i <= 100; ++i) h.record(double(i));
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.window, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
}

TEST(TelemetryHistogramTest, TrailingWindowBeyondCapacityKeepsSeriesScalars) {
  ddmc::telemetry::Histogram h(10);
  for (int i = 1; i <= 100; ++i) h.record(double(i));
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);   // whole series
  EXPECT_EQ(s.window, 10u);   // percentiles cover the last 10 (91..100)
  EXPECT_GE(s.p50, 91.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);   // never windowed
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
}

TEST(TelemetryIdTest, EncodeAndSessionLabels) {
  EXPECT_EQ(ddmc::telemetry::encode_metric_id("m.x_total", {}), "m.x_total");
  EXPECT_EQ(ddmc::telemetry::encode_metric_id(
                "m.x_total", {{"a", "1"}, {"b", "2"}}),
            "m.x_total{a=\"1\",b=\"2\"}");
  const std::string s1 = ddmc::telemetry::next_session_label("t");
  const std::string s2 = ddmc::telemetry::next_session_label("t");
  EXPECT_NE(s1, s2);
  EXPECT_EQ(s1.rfind("t-", 0), 0u);
}

// ------------------------------------------------------------------ tracer --

// The tracer is a singleton too; these tests own it while they run.
class TelemetryTracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
};

TEST_F(TelemetryTracerTest, DisabledSpanRecordsNothing) {
  {
    TraceSpan span("engine.execute");
    span.arg("engine", "cpu_tiled").arg("dms", std::size_t{256});
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(Tracer::instance().events().empty());
}

TEST_F(TelemetryTracerTest, EnabledSpanRecordsNameArgsAndDuration) {
  Tracer::instance().set_enabled(true);
  {
    TraceSpan span("stream.chunk");
    span.arg("chunk", std::size_t{7}).arg("engine", "cpu_tiled");
    span.arg("gflops", 1.5);
  }
  Tracer::instance().record_instant("stream.gap", Tracer::now_ns(),
                                    "\"chunk\": 8");
  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "stream.chunk");
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kComplete);
  EXPECT_EQ(std::string(events[0].args),
            "\"chunk\": 7, \"engine\": \"cpu_tiled\", \"gflops\": 1.5");
  EXPECT_GT(events[0].tid, 0u);
  EXPECT_STREQ(events[1].name, "stream.gap");
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kInstant);
  EXPECT_EQ(events[1].dur_ns, 0u);
}

TEST_F(TelemetryTracerTest, OverlongArgsTruncateAtPairBoundary) {
  Tracer::instance().set_enabled(true);
  {
    TraceSpan span("shard.task");
    span.arg("first", std::size_t{1});
    span.arg("huge", std::string(200, 'x'));  // cannot fit: dropped whole
    span.arg("tail", std::size_t{2});
  }
  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 1u);
  const std::string args = events[0].args;
  EXPECT_NE(args.find("\"first\": 1"), std::string::npos);
  EXPECT_EQ(args.find('x'), std::string::npos);
  // Whatever fit is still a valid JSON object body.
  const auto v = ddmc::json::parse("{" + args + "}");
  EXPECT_DOUBLE_EQ(v.at("first").as_number(), 1.0);
}

TEST_F(TelemetryTracerTest, BufferFullDropsInsteadOfBlocking) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  const std::size_t cap = tracer.capacity();
  for (std::size_t i = 0; i < cap + 100; ++i) {
    tracer.record_instant("spam", 0);
  }
  EXPECT_EQ(tracer.events().size(), cap);
  EXPECT_EQ(tracer.dropped(), 100u);
  tracer.clear();
  EXPECT_EQ(tracer.events().size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST_F(TelemetryTracerTest, ConcurrentRecordingLosesNothingBelowCapacity) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kEvents = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kEvents; ++i) {
        TraceSpan span("engine.execute");
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(tracer.events().size(),
            static_cast<std::size_t>(kThreads) * kEvents);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST_F(TelemetryTracerTest, FdmtExecuteEmitsItsStageSpansInsideTheEngineSpan) {
  // The Fourier-domain engine's layer split — forward FFT, the two
  // rotation stages, inverse FFT — must be readable from a trace: one
  // span per stage, on the executing thread, nested in engine.execute.
  const auto plan = ddmc::dedisp::Plan::with_output_samples(
      ddmc::sky::apertif(), 8, 64);
  ddmc::Array2D<float> in(plan.channels(), plan.in_samples());
  ddmc::Array2D<float> out(plan.dms(), plan.out_samples());
  const auto engine = ddmc::engine::make_engine("fdmt");
  Tracer::instance().set_enabled(true);
  engine->execute(plan, ddmc::engine::EngineConfig{}, in.cview(), out.view());
  Tracer::instance().set_enabled(false);

  const auto events = Tracer::instance().events();
  const TraceEvent* outer = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "engine.execute") outer = &e;
  }
  ASSERT_NE(outer, nullptr);
  for (const char* stage :
       {"fdmt.forward_fft", "fdmt.rotate", "fdmt.inverse_fft"}) {
    SCOPED_TRACE(stage);
    int found = 0;
    for (const TraceEvent& e : events) {
      if (std::string(e.name) != stage) continue;
      ++found;
      EXPECT_EQ(e.kind, TraceEvent::Kind::kComplete);
      EXPECT_EQ(e.tid, outer->tid);
      EXPECT_GE(e.start_ns, outer->start_ns);
      EXPECT_LE(e.start_ns + e.dur_ns, outer->start_ns + outer->dur_ns);
    }
    EXPECT_EQ(found, 1);
  }
}

TEST_F(TelemetryTracerTest, SubbandExecuteEmitsOneSpanPerStage) {
  // The subband engine's two tiled-kernel stages are readable from a
  // trace: one span each per execute, on the executing thread, nested in
  // engine.execute.
  const auto plan = ddmc::dedisp::Plan::with_output_samples(
      ddmc::sky::apertif(), 8, 64);
  ddmc::Array2D<float> in(plan.channels(), plan.in_samples() + 2);
  ddmc::Array2D<float> out(plan.dms(), plan.out_samples());
  const auto engine = ddmc::engine::make_engine("subband");
  Tracer::instance().set_enabled(true);
  engine->execute(plan, ddmc::engine::EngineConfig{}, in.cview(), out.view());
  Tracer::instance().set_enabled(false);

  const auto events = Tracer::instance().events();
  const TraceEvent* outer = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "engine.execute") outer = &e;
  }
  ASSERT_NE(outer, nullptr);
  for (const char* stage : {"subband.stage1", "subband.stage2"}) {
    SCOPED_TRACE(stage);
    int found = 0;
    for (const TraceEvent& e : events) {
      if (std::string(e.name) != stage) continue;
      ++found;
      EXPECT_EQ(e.tid, outer->tid);
      EXPECT_GE(e.start_ns, outer->start_ns);
      EXPECT_LE(e.start_ns + e.dur_ns, outer->start_ns + outer->dur_ns);
    }
    EXPECT_EQ(found, 1);
  }
}

TEST_F(TelemetryTracerTest, U8ExecuteEmitsOneQuantizeSpan) {
  // A trace splits the u8 engine's call into quantizing the float input
  // and the kernel: one u8.quantize span per execute, on the executing
  // thread, nested in engine.execute.
  const auto plan = ddmc::dedisp::Plan::with_output_samples(
      ddmc::sky::apertif(), 8, 64);
  ddmc::Array2D<float> in(plan.channels(), plan.in_samples());
  ddmc::Array2D<float> out(plan.dms(), plan.out_samples());
  const auto engine = ddmc::engine::make_engine("cpu_tiled_u8");
  Tracer::instance().set_enabled(true);
  for (int call = 0; call < 2; ++call) {
    engine->execute(plan, ddmc::engine::EngineConfig{}, in.cview(),
                    out.view());
  }
  Tracer::instance().set_enabled(false);

  std::vector<const TraceEvent*> outer;
  std::vector<const TraceEvent*> quantize;
  const auto events = Tracer::instance().events();
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "engine.execute") outer.push_back(&e);
    if (std::string(e.name) == "u8.quantize") quantize.push_back(&e);
  }
  ASSERT_EQ(outer.size(), 2u);
  ASSERT_EQ(quantize.size(), 2u);
  for (const TraceEvent* q : quantize) {
    const auto inside = [q](const TraceEvent* o) {
      return q->tid == o->tid && q->start_ns >= o->start_ns &&
             q->start_ns + q->dur_ns <= o->start_ns + o->dur_ns;
    };
    EXPECT_EQ(std::count_if(outer.begin(), outer.end(), inside), 1);
  }
}

TEST_F(TelemetryTracerTest, U8SessionNeverQuantizesInItsEngine) {
  // A u8 streaming session quantizes each sample once, in its chunker,
  // and every chunk reaches the engine as codes, the flush chunk too: no
  // engine.execute holds a u8.quantize span.
  const auto batch = ddmc::dedisp::Plan::with_output_samples(
      ddmc::sky::apertif(), 8, 3 * 64 + 10);
  ddmc::Array2D<float> in(batch.channels(), batch.in_samples());
  ddmc::stream::StreamingOptions options;
  options.engine = "cpu_tiled_u8";
  options.cpu.threads = 1;
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    Tracer::instance().clear();
    options.async = async;
    ddmc::stream::StreamingDedisperser session(batch.with_chunk(64),
                                               ddmc::engine::EngineConfig{},
                                               nullptr, options);
    Tracer::instance().set_enabled(true);
    for (std::size_t t = 0; t < in.cols(); t += 50) {
      session.push(ddmc::ConstView2D<float>(
          &in(0, t), in.rows(), std::min<std::size_t>(50, in.cols() - t),
          in.pitch()));
    }
    session.close();
    Tracer::instance().set_enabled(false);

    std::size_t chunks = 0, executes = 0, quantizes = 0, flushes = 0;
    for (const TraceEvent& e : Tracer::instance().events()) {
      const std::string name = e.name;
      if (name == "stream.chunk") {
        ++chunks;
        flushes += std::string(e.args).find("\"out_samples\": 10") !=
                   std::string::npos;
      }
      executes += name == "engine.execute";
      quantizes += name == "u8.quantize";
    }
    EXPECT_EQ(chunks, 4u);
    EXPECT_EQ(flushes, 1u);
    EXPECT_EQ(executes, 4u);
    EXPECT_EQ(quantizes, 0u);
  }
}

/// The recorded events named \p name.
std::vector<TraceEvent> events_named(const char* name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : Tracer::instance().events()) {
    if (std::string(e.name) == name) out.push_back(e);
  }
  return out;
}

TEST_F(TelemetryTracerTest, JobWaitSpansTheComputeThreadIdle) {
  // The compute thread records stream.job.wait only when it found the job
  // slot empty, at most once per chunk (plus its final wait for close()).
  // Window 1 is pushed 100 ms after chunk 0 was delivered, so the compute
  // thread, idle since it handed chunk 0 to delivery, waited about that
  // long for it.
  const auto batch = ddmc::dedisp::Plan::with_output_samples(
      ddmc::sky::apertif(), 8, 4 * 64);
  const auto chunk = batch.with_chunk(64);
  ddmc::Array2D<float> in(batch.channels(), batch.in_samples());
  ddmc::stream::StreamingOptions options;
  options.cpu.threads = 1;
  std::promise<void> delivered;
  Tracer::instance().set_enabled(true);
  {
    ddmc::stream::StreamingDedisperser session(
        chunk, ddmc::engine::EngineConfig{},
        [&](const ddmc::stream::StreamChunk& c) {
          if (c.index == 0) delivered.set_value();
        },
        options);
    const std::size_t first = chunk.in_samples();
    session.push(ddmc::ConstView2D<float>(&in(0, 0), in.rows(), first,
                                          in.pitch()));
    ASSERT_EQ(delivered.get_future().wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    session.push(ddmc::ConstView2D<float>(&in(0, first), in.rows(),
                                          in.cols() - first, in.pitch()));
    session.close();
  }
  Tracer::instance().set_enabled(false);
  const std::vector<TraceEvent> chunks = events_named("stream.chunk");
  const std::vector<TraceEvent> waits = events_named("stream.job.wait");
  ASSERT_EQ(chunks.size(), 4u);
  ASSERT_GE(waits.size(), 1u);
  EXPECT_LE(waits.size(), chunks.size() + 1);
  std::uint64_t longest = 0;
  for (const TraceEvent& w : waits) {
    EXPECT_EQ(w.tid, chunks[0].tid) << "not on the compute thread";
    longest = std::max(longest, w.dur_ns);
  }
  EXPECT_GE(longest, 50'000'000u);
}

TEST_F(TelemetryTracerTest, WindowWaitSpansThePushingThreadBlocked) {
  // The first engine call sleeps 100 ms. Window 1 is assembled meanwhile;
  // window 2's first sample must be written into the buffer the engine
  // still reads, so the pushing thread records stream.window.wait for
  // chunk 2, on its own thread.
  ddmc::testing::ProbeEngine::install();
  ddmc::testing::ProbeEngine::slow_down(1, std::chrono::milliseconds(100));
  const auto batch = ddmc::dedisp::Plan::with_output_samples(
      ddmc::sky::apertif(), 8, 3 * 64);
  const auto chunk = batch.with_chunk(64);
  ddmc::Array2D<float> in(batch.channels(), batch.in_samples());
  ddmc::stream::StreamingOptions options;
  options.engine = ddmc::testing::ProbeEngine::kId;
  options.cpu.threads = 1;
  Tracer::instance().set_enabled(true);
  {
    ddmc::stream::StreamingDedisperser session(chunk,
                                               ddmc::engine::EngineConfig{},
                                               nullptr, options);
    for (std::size_t t = 0; t < in.cols(); t += 16) {
      session.push(ddmc::ConstView2D<float>(
          &in(0, t), in.rows(), std::min<std::size_t>(16, in.cols() - t),
          in.pitch()));
    }
    session.close();
  }
  Tracer::instance().set_enabled(false);
  const std::vector<TraceEvent> chunks = events_named("stream.chunk");
  const std::vector<TraceEvent> waits = events_named("stream.window.wait");
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_LE(waits.size(), chunks.size());
  const auto chunk_2 = std::find_if(
      waits.begin(), waits.end(), [](const TraceEvent& w) {
        return std::string(w.args).find("\"chunk\": 2") != std::string::npos;
      });
  ASSERT_NE(chunk_2, waits.end());
  EXPECT_GE(chunk_2->dur_ns, 50'000'000u);
  for (const TraceEvent& w : waits) {
    EXPECT_NE(w.tid, chunks[0].tid) << "recorded on the compute thread";
  }
}

TEST_F(TelemetryTracerTest, DetectBestDmRecordsOneSpanWithItsShape) {
  // Detection's share of a stage comes from the library's own span, with
  // the matrix shape it scanned.
  ddmc::Array2D<float> m(3, 100);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) = static_cast<float>((r * 37 + c * 11) % 23);
    }
  }
  ddmc::sky::detect_best_dm(m.cview());  // disabled: records nothing
  EXPECT_TRUE(Tracer::instance().events().empty());
  Tracer::instance().set_enabled(true);
  ddmc::sky::detect_best_dm(m.cview());
  Tracer::instance().set_enabled(false);
  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "sky.detect");
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kComplete);
  const auto args = ddmc::json::parse("{" + std::string(events[0].args) + "}");
  EXPECT_DOUBLE_EQ(args.at("rows").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(args.at("cols").as_number(), 100.0);
  EXPECT_DOUBLE_EQ(args.at("parts").as_number(), 1.0);  // 300 samples: inline
}

TEST_F(TelemetryTracerTest, TunerTuneSpansCountEachEntrantsEngineCalls) {
  // A trace names the entrant that spent the race: every tuner.tune span
  // carries the engine calls its measurements made, warm-ups included. A
  // warm rerun answers from the cache and calls nothing.
  const ddmc::dedisp::Plan plan = ddmc::dedisp::Plan::with_output_samples(
      ddmc::sky::Observation("mini", 100.0, 8, 100.0, 10.0, 0.0, 0.5), 8, 64);
  ddmc::tuner::TuningCache cache;
  ddmc::tuner::GuidedTuningOptions options;
  options.engines = {"cpu_tiled", "subband"};
  options.host.repetitions = 2;
  options.host.warmup_runs = 1;
  options.host.threads = 1;
  options.strategy = ddmc::tuner::StrategyKind::kRandom;
  options.random_samples = 3;
  for (const bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    Tracer::instance().clear();
    Tracer::instance().set_enabled(true);
    ddmc::tuner::tune_guided(plan, cache, options);
    Tracer::instance().set_enabled(false);
    std::vector<std::string> engines;
    for (const TraceEvent& e : Tracer::instance().events()) {
      if (std::string(e.name) != "tuner.tune") continue;
      const auto args = ddmc::json::parse("{" + std::string(e.args) + "}");
      engines.push_back(args.at("engine").as_string());
      ASSERT_TRUE(args.contains("calls")) << e.args;
      const double evaluated = args.at("evaluated").as_number();
      // Random search times every sample in full: one warm-up and two
      // timed calls each.
      EXPECT_DOUBLE_EQ(args.at("calls").as_number(), 3.0 * evaluated);
      EXPECT_EQ(evaluated == 0.0, warm) << e.args;
    }
    std::sort(engines.begin(), engines.end());
    EXPECT_EQ(engines, (std::vector<std::string>{"cpu_tiled", "subband"}));
  }
  Tracer::instance().clear();
}

// --------------------------------------------------------------- exporters --

TEST_F(TelemetryRegistryTest, PrometheusExportFormat) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("ddmc.engine.executions_total", {{"engine", "cpu_tiled"}})
      ->add(3);
  reg.gauge("ddmc.engine.gflops", {{"engine", "cpu_tiled"}})->set(12.5);
  auto h = reg.histogram("ddmc.stream.chunk_latency_seconds",
                         {{"session", "s-1"}});
  h->record(0.25);
  h->record(0.75);
  const std::string text = ddmc::telemetry::export_prometheus();
  EXPECT_NE(text.find("# TYPE ddmc_engine_executions_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ddmc_engine_executions_total{engine=\"cpu_tiled\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ddmc_engine_gflops gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ddmc_stream_chunk_latency_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("ddmc_stream_chunk_latency_seconds{session=\"s-1\","
                      "quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ddmc_stream_chunk_latency_seconds_sum"),
            std::string::npos);
  EXPECT_NE(text.find("ddmc_stream_chunk_latency_seconds_count"),
            std::string::npos);
  EXPECT_EQ(text.find("ddmc."), std::string::npos);  // names have no dots
  EXPECT_EQ(text.back(), '\n');
}

TEST_F(TelemetryRegistryTest, PrometheusLabelValuesUseExpositionEscapes) {
  // The exposition format defines exactly three label-value escapes:
  // \\ , \" and \n. The exporter used to route values through
  // json::escape, which emits \uXXXX and \t sequences a Prometheus
  // scraper has no rule for and would ingest literally.
  auto& reg = MetricsRegistry::instance();
  reg.counter("ddmc.engine.executions_total",
              {{"engine", "we\"ird\\name\nline\ttab"}})
      ->add(1);
  const std::string text = ddmc::telemetry::export_prometheus();
  // Quote, backslash and newline use the exposition escapes...
  EXPECT_NE(
      text.find("engine=\"we\\\"ird\\\\name\\nline\ttab\""),
      std::string::npos)
      << text;
  // ...and no JSON-style escape ever appears: the tab stays literal and
  // nothing is \u-encoded.
  EXPECT_EQ(text.find("\\t"), std::string::npos) << text;
  EXPECT_EQ(text.find("\\u"), std::string::npos) << text;
}

TEST_F(TelemetryRegistryTest, SnapshotJsonParsesAndCarriesMetrics) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("ddmc.shard.retries_total")->add(4);
  auto h = reg.histogram("ddmc.test.h");
  h->record(1.0);
  const auto v =
      ddmc::json::parse(ddmc::telemetry::snapshot_json().dump());
  const auto& metrics = v.at("metrics");
  EXPECT_DOUBLE_EQ(metrics.at("ddmc.shard.retries_total").as_number(), 4.0);
  const auto& hist = metrics.at("ddmc.test.h");
  EXPECT_DOUBLE_EQ(hist.at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_number(), 1.0);
  const auto& trace = v.at("trace");
  EXPECT_TRUE(trace.contains("recorded"));
  EXPECT_TRUE(trace.contains("dropped"));
  EXPECT_TRUE(trace.contains("enabled"));
}

TEST_F(TelemetryTracerTest, ChromeTraceExportIsValidAndTyped) {
  Tracer::instance().set_enabled(true);
  {
    TraceSpan span("engine.execute");
    span.arg("engine", "cpu_tiled");
  }
  Tracer::instance().record_instant("shard.retry", Tracer::now_ns());
  const auto v =
      ddmc::json::parse(ddmc::telemetry::export_chrome_trace());
  const auto& events = v.at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  const auto& complete = events.at(0);
  EXPECT_EQ(complete.at("ph").as_string(), "X");
  EXPECT_EQ(complete.at("name").as_string(), "engine.execute");
  EXPECT_GE(complete.at("dur").as_number(), 0.0);
  EXPECT_EQ(complete.at("args").at("engine").as_string(), "cpu_tiled");
  const auto& instant = events.at(1);
  EXPECT_EQ(instant.at("ph").as_string(), "i");
  EXPECT_EQ(instant.at("name").as_string(), "shard.retry");
}

// Satellite: the gap accounting must round-trip through the exporters —
// a report reconstructed from JSON keeps gap seconds out of data_seconds
// so the real-time margin stays a measure of the work actually done.
TEST(TelemetryLatencyRoundTripTest, ReportRoundTripsExactlyIncludingGaps) {
  ddmc::stream::LatencyReport r;
  r.chunks = 17;
  r.latency_window = 17;
  r.data_seconds = 4.25;
  r.compute_seconds = 1.0625;
  r.p50_latency = 0.071;
  r.p95_latency = 0.113;
  r.p99_latency = 0.21700000000000003;  // exercises max_digits10
  r.max_latency = 0.5;
  r.mean_compute = 0.0625;
  r.real_time_margin = 4.0;
  r.seconds_per_data_second = 0.25;
  r.gap_chunks = 3;
  r.gap_data_seconds = 0.75;
  const auto v =
      ddmc::json::parse(ddmc::telemetry::latency_report_to_json(r).dump());
  const auto back = ddmc::telemetry::latency_report_from_json(v);
  EXPECT_EQ(back.chunks, r.chunks);
  EXPECT_EQ(back.latency_window, r.latency_window);
  EXPECT_DOUBLE_EQ(back.data_seconds, r.data_seconds);
  EXPECT_DOUBLE_EQ(back.compute_seconds, r.compute_seconds);
  EXPECT_DOUBLE_EQ(back.p50_latency, r.p50_latency);
  EXPECT_DOUBLE_EQ(back.p95_latency, r.p95_latency);
  EXPECT_DOUBLE_EQ(back.p99_latency, r.p99_latency);
  EXPECT_DOUBLE_EQ(back.max_latency, r.max_latency);
  EXPECT_DOUBLE_EQ(back.mean_compute, r.mean_compute);
  EXPECT_DOUBLE_EQ(back.real_time_margin, r.real_time_margin);
  EXPECT_DOUBLE_EQ(back.seconds_per_data_second, r.seconds_per_data_second);
  EXPECT_EQ(back.gap_chunks, r.gap_chunks);
  EXPECT_DOUBLE_EQ(back.gap_data_seconds, r.gap_data_seconds);
  // The invariant the round-trip protects: margin excludes gap time.
  EXPECT_DOUBLE_EQ(back.real_time_margin,
                   back.data_seconds / back.compute_seconds);
}

// A LatencyTracker is a registry view: its report and a scrape of its
// session-labeled metrics are the same numbers.
TEST(TelemetryLatencyViewTest, TrackerReportMatchesRegistryMetrics) {
  MetricsRegistry::instance().reset();
  ddmc::stream::LatencyTracker tracker(64);
  for (int i = 1; i <= 4; ++i) {
    ddmc::stream::ChunkTiming t;
    t.data_seconds = 1.0;
    t.compute_seconds = 0.25;
    t.latency_seconds = 0.1 * i;
    tracker.record(t);
  }
  tracker.record_gap(2.0);
  const auto report = tracker.report();
  EXPECT_EQ(report.chunks, 4u);
  EXPECT_DOUBLE_EQ(report.data_seconds, 4.0);
  EXPECT_DOUBLE_EQ(report.real_time_margin, 4.0);
  EXPECT_EQ(report.gap_chunks, 1u);
  EXPECT_DOUBLE_EQ(report.gap_data_seconds, 2.0);

  const ddmc::telemetry::Labels labels = {{"session", tracker.session()}};
  auto gap = MetricsRegistry::instance().counter(
      "ddmc.stream.gap_data_seconds_total", labels);
  EXPECT_DOUBLE_EQ(gap->value(), 2.0);
  const std::string text = ddmc::telemetry::export_prometheus();
  EXPECT_NE(text.find("ddmc_stream_gap_data_seconds_total{session=\"" +
                      tracker.session() + "\"} 2"),
            std::string::npos);
}

// Gap-only sessions (every chunk skipped) still report their losses.
TEST(TelemetryLatencyViewTest, GapOnlyReportKeepsGapFields) {
  MetricsRegistry::instance().reset();
  ddmc::stream::LatencyTracker tracker(8);
  tracker.record_gap(1.5);
  const auto report = tracker.report();
  EXPECT_EQ(report.chunks, 0u);
  EXPECT_EQ(report.gap_chunks, 1u);
  EXPECT_DOUBLE_EQ(report.gap_data_seconds, 1.5);
  const auto v =
      ddmc::json::parse(
          ddmc::telemetry::latency_report_to_json(report).dump());
  const auto back = ddmc::telemetry::latency_report_from_json(v);
  EXPECT_EQ(back.gap_chunks, 1u);
  EXPECT_DOUBLE_EQ(back.gap_data_seconds, 1.5);
}

}  // namespace
