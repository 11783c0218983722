/// Streaming workloads: warm start from a tuning-cache file, a verify pass,
/// then rounds of a paced open-loop session and an unpaced closed-loop one.
///
/// Threads: one producer, the consumer (this thread, in consume()) and the
/// session's compute thread, which runs the kernel (kKernelThreads) and the
/// sink's detection.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>
#include <unistd.h>

#include "common/timer.hpp"
#include "ddmc_bench.hpp"
#include "engine/registry.hpp"
#include "resilience/error.hpp"
#include "sky/detection.hpp"
#include "stream/ring_buffer.hpp"
#include "stream/streaming_dedisperser.hpp"
#include "telemetry/export.hpp"
#include "tuner/tuning_cache.hpp"

namespace ddmc::ddmc_bench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What the sink saw of one chunk. Times are seconds since the phase
/// origin (the due time of the first block).
struct ChunkRecord {
  std::size_t index = 0;
  std::size_t out_samples = 0;
  double entry_s = 0.0;  ///< sink entered
  double done_s = 0.0;   ///< detection finished: the candidate exists
  stream::ChunkTiming timing;
  sky::DetectionResult detection;
};

/// Sink state shared with the compute thread. The origin is written before
/// the first sample is pushed, and the session's handoff orders that write
/// before every sink call.
struct SinkState {
  Clock::time_point origin;
  std::vector<ChunkRecord> records;
  Array2D<float>* capture = nullptr;  ///< verify pass: keep the outputs

  stream::StreamingDedisperser::Sink sink() {
    return [this](const stream::StreamChunk& chunk) {
      const Clock::time_point entry = Clock::now();
      ChunkRecord rec;
      {
        telemetry::TraceSpan span("bench.detect");
        span.arg("chunk", chunk.index);
        rec.detection = sky::detect_best_dm(chunk.output);
      }
      const Clock::time_point done = Clock::now();
      if (capture) {
        for (std::size_t dm = 0; dm < chunk.output.rows(); ++dm) {
          std::copy_n(&chunk.output(dm, 0), chunk.out_samples,
                      &(*capture)(dm, chunk.first_sample));
        }
      }
      rec.index = chunk.index;
      rec.out_samples = chunk.out_samples;
      rec.entry_s = seconds_between(origin, entry);
      rec.done_s = seconds_between(origin, done);
      rec.timing = chunk.timing;
      records.push_back(rec);
    };
  }
};

/// Everything one workload's sessions share.
struct Context {
  Context(const StreamSpec& s, const RunOptions& options, WorkloadResult& r)
      : spec(s),
        plan(dedisp::Plan::with_output_samples(s.obs, s.dms, s.chunk_samples)),
        cache_path(options.scratch_dir + "/" + s.name + "." +
                   std::to_string(::getpid()) + ".cache.csv"),
        overlap(plan.max_delay() +
                engine::make_engine(s.engine)->capabilities().input_padding),
        block_cols(s.obs.samples_per_second() / 1000),
        rate(s.obs.sampling_rate()),
        sky(make_sky(plan, s.chunk_samples, s.amplitude, options.seed,
                     plan.out_samples() + overlap)),
        result(r) {
    session_options.engine = s.engine;
    session_options.cpu = kernel_options();
  }

  const StreamSpec& spec;
  dedisp::Plan plan;  ///< chunk plan
  std::string cache_path;
  std::size_t overlap;     ///< carried samples: max_delay + padding
  std::size_t block_cols;  ///< 1 ms of samples
  double rate;
  SkyInput sky;
  WorkloadResult& result;
  stream::StreamingOptions session_options;
  std::vector<double> setup_s;

  std::size_t window_cols() const { return plan.out_samples() + overlap; }

  /// Full chunks a session must deliver after being fed \p samples.
  std::size_t expected_chunks(std::size_t samples) const {
    return samples < overlap ? 0 : (samples - overlap) / plan.out_samples();
  }

  void fail(const std::string& what) {
    result.failures.push_back(spec.name + ": " + what);
  }

  /// Recall over the full chunks of \p records; every one bears a pulse.
  void score(const std::vector<ChunkRecord>& records) {
    for (const ChunkRecord& r : records) {
      if (r.out_samples != plan.out_samples()) continue;
      ++result.recall_total;
      if (recalled(r.detection, sky.true_trial)) ++result.recall_hits;
    }
  }

  /// Warm start the way a restarted backend does: load the cache file and
  /// construct the session from it. Anything but a cache hit with zero
  /// configs evaluated is a failed start.
  std::unique_ptr<stream::StreamingDedisperser> start(SinkState& state) {
    telemetry::TraceSpan span("bench.setup");
    const Stopwatch clock;
    tuner::TuningCache cache(cache_path);
    auto session = std::make_unique<stream::StreamingDedisperser>(
        plan, cache, state.sink(), session_options);
    setup_s.push_back(clock.seconds());
    const auto& outcome = session->tuning_outcome();
    if (!outcome ||
        outcome->source != tuner::GuidedTuningOutcome::Source::kCacheHit ||
        outcome->configs_evaluated != 0) {
      fail("warm start was not a cache hit");
    }
    return session;
  }

  /// Extra warm starts for the setup_s median, made at several points of
  /// the run so the median spans the host's slow and fast spells.
  void warm_starts() {
    for (int i = 0; i < 4; ++i) {
      SinkState idle;
      start(idle)->close();
    }
  }
};

/// A paced phase starts with this much untimed load. A freshly started
/// pipeline can share one CPU until the scheduler spreads it, which took up
/// to two seconds on a 4-vCPU KVM guest; pushes and chunks due in that time
/// would measure the start-up, not the steady state.
constexpr double kWarmupS = 2.0;

/// Paced and unpaced sessions alternate in this many rounds.
constexpr int kRounds = 3;

/// The untimed start of a paced session of \p budget_s: kWarmupS, or half
/// the session when --seconds is too short for that.
double warmup_s(double budget_s) { return std::min(kWarmupS, budget_s / 2); }

/// Wait for \p until without sleeping. The producer polls like a packet
/// receiver: a producer that sleeps between blocks lets its CPU idle, and a
/// virtualised host then wakes the consumer and the compute thread onto the
/// producer's CPU, so the whole pipeline can share one CPU for seconds.
void spin_until(Clock::time_point until) {
  while (Clock::now() < until) cpu_relax();
}

/// One session fed through the ring by a producer thread.
struct Phase {
  std::vector<ChunkRecord> chunks;
  std::vector<double> late_s;  ///< paced: how late each timed push started
  double push_s = 0.0;         ///< producer seconds waiting on the ring
  std::size_t pushed = 0;      ///< samples
  double data_s = 0.0;         ///< sky seconds delivered
  std::uint64_t timed_since_ns = 0;  ///< tracer clock at the warm-up's end
  engine::SessionTraffic traffic;
};

/// Paced: 1 ms blocks on the sky's own schedule, real time, for \p budget_s
/// of wall time, the first warmup_s() of it untimed; with \p trace the tracer
/// is switched on when the warm-up ends. Unpaced: blocks as fast as the ring
/// accepts them until \p budget_s has passed. Either way the
/// feed ends on a window boundary, so every chunk is a full one: a trailing
/// partial chunk would run the untuned flush config and skew a short
/// session.
Phase run_phase(Context& ctx, bool paced, double budget_s,
                bool trace = false) {
  SinkState state;
  auto session = ctx.start(state);
  Phase phase;
  const std::size_t b = ctx.block_cols;
  const std::size_t C = ctx.plan.out_samples();
  const double block_s = static_cast<double>(b) / ctx.rate;
  const auto boundary_after = [&](std::size_t samples) {
    const std::size_t chunks =
        samples <= ctx.overlap ? 1 : (samples - ctx.overlap + C - 1) / C;
    return ctx.overlap + chunks * C;
  };
  // Paced: the whole feed is known up front. Unpaced: set at the deadline.
  std::size_t limit =
      paced ? boundary_after(static_cast<std::size_t>(budget_s * ctx.rate) -
                             C + 1)
            : std::numeric_limits<std::size_t>::max();
  if (paced) phase.late_s.reserve(limit / b + 1);
  // Two windows of ring: room for the next window while one assembles, so
  // a producer on schedule never waits on a consumer that keeps up.
  stream::SampleRing ring(ctx.plan.channels(), 2 * ctx.window_cols());

  const std::chrono::duration<double> step(block_s);
  const Clock::time_point origin =
      Clock::now() + std::chrono::milliseconds(2);
  state.origin = origin;
  const Clock::time_point deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(budget_s));
  const std::size_t warmup_blocks =
      static_cast<std::size_t>(std::ceil(warmup_s(budget_s) / step.count()));
  std::exception_ptr producer_error;
  std::thread producer([&] {
    try {
      spin_until(origin);
      for (std::size_t j = 0; phase.pushed < limit; ++j) {
        if (paced) {
          const Clock::time_point due =
              origin + std::chrono::duration_cast<Clock::duration>(step * j);
          spin_until(due);
          if (j == warmup_blocks) {
            phase.timed_since_ns = telemetry::Tracer::now_ns();
            if (trace) telemetry::Tracer::instance().set_enabled(true);
          }
          if (j >= warmup_blocks) {
            phase.late_s.push_back(seconds_between(due, Clock::now()));
          }
        } else if (limit == std::numeric_limits<std::size_t>::max() &&
                   Clock::now() >= deadline) {
          limit = boundary_after(phase.pushed);
          if (phase.pushed >= limit) break;
        }
        const std::size_t n = std::min(b, limit - phase.pushed);
        const ConstView2D<float> block = ctx.sky.window(phase.pushed, n);
        const Clock::time_point t = Clock::now();
        // Polled, not SampleRing::push, which would sleep on backpressure;
        // try_push throws once the session has failed the ring.
        while (!ring.try_push(block)) {
          spin_until(Clock::now() + std::chrono::microseconds(5));
        }
        phase.push_s += seconds_between(t, Clock::now());
        phase.pushed += n;
      }
      ring.close();
    } catch (...) {
      producer_error = std::current_exception();
      ring.fail("producer failed");
    }
  });
  try {
    session->consume(ring);
    session->close();
  } catch (...) {
    ring.fail("session failed");
    ctx.fail(resilience::describe(std::current_exception()));
  }
  producer.join();
  if (producer_error) ctx.fail(resilience::describe(producer_error));

  phase.traffic = session->telemetry();
  session.reset();
  phase.chunks = std::move(state.records);
  std::size_t full = 0;
  for (const ChunkRecord& r : phase.chunks) {
    phase.data_s += static_cast<double>(r.out_samples) / ctx.rate;
    if (r.out_samples == ctx.plan.out_samples()) ++full;
  }
  const std::size_t expected = ctx.expected_chunks(phase.pushed);
  ctx.result.attempted += expected;
  for (std::size_t k = full; k < expected; ++k) {
    ctx.fail("chunk " + std::to_string(k) + " was not delivered");
  }
  ctx.score(phase.chunks);
  return phase;
}

/// First four chunks through the session, compared with the reference on
/// the same samples. Also the warm-up.
void verify_pass(Context& ctx) {
  constexpr std::size_t kChunks = 4;
  const std::size_t out = kChunks * ctx.plan.out_samples();
  Array2D<float> captured(ctx.plan.dms(), out);
  SinkState state;
  state.capture = &captured;
  auto session = ctx.start(state);
  state.origin = Clock::now();
  const std::size_t samples = out + ctx.overlap;
  try {
    for (std::size_t col = 0; col < samples; col += ctx.block_cols) {
      session->push(
          ctx.sky.window(col, std::min(ctx.block_cols, samples - col)));
    }
    session->close();
  } catch (...) {
    ctx.fail(resilience::describe(std::current_exception()));
  }
  session.reset();
  ctx.result.attempted += kChunks;
  if (state.records.size() != kChunks) {
    ctx.fail("verify pass delivered " + std::to_string(state.records.size()) +
             " chunks");
    return;
  }
  ctx.score(state.records);
  const auto engine = engine::make_engine(ctx.spec.engine, engine_options());
  const std::string mismatch =
      verify_output(*engine, ctx.plan.with_chunk(out),
                    ctx.sky.window(0, samples), captured.cview());
  if (!mismatch.empty()) ctx.fail(mismatch);
}

/// Store the workload's pinned config where a warm start will find it.
void pin_config(const Context& ctx) {
  const auto engine = engine::make_engine(ctx.spec.engine, engine_options());
  const auto config = engine::EngineConfig::decode(ctx.spec.config);
  DDMC_REQUIRE(config.has_value(), "bad pinned config " + ctx.spec.config);
  engine->validate_config(ctx.plan, *config);
  std::remove(ctx.cache_path.c_str());
  tuner::TuningCache cache(ctx.cache_path);
  tuner::CacheEntry entry;
  entry.host = tuner::HostSignature::of(*engine);
  entry.plan = tuner::PlanSignature::of(ctx.plan);
  entry.config = *config;
  cache.store(entry);
}

}  // namespace

std::string cold_tune(const StreamSpec& spec) {
  const dedisp::Plan plan =
      dedisp::Plan::with_output_samples(spec.obs, spec.dms, spec.chunk_samples);
  tuner::TuningCache cache;
  tuner::GuidedTuningOptions tuning;
  tuning.engines = {spec.engine};
  tuning.host.threads = kKernelThreads;
  const tuner::GuidedTuningOutcome outcome =
      tuner::tune_guided(plan, cache, tuning);
  return outcome.config.encode() + " (" + std::to_string(outcome.seconds * 1e3) +
         " ms per chunk, " + std::to_string(outcome.configs_evaluated) +
         " configs)";
}

WorkloadResult run_stream_workload(const StreamSpec& spec,
                                   const RunOptions& options) {
  WorkloadResult result;
  result.name = spec.name;
  reset_peak_rss();
  telemetry::Tracer& tracer = telemetry::Tracer::instance();
  tracer.set_enabled(false);

  Context ctx(spec, options, result);
  const dedisp::Plan& plan = ctx.plan;
  pin_config(ctx);
  result.notes.push_back({"plan", spec.obs.name() + ", " +
                                      std::to_string(plan.channels()) +
                                      " channels, " + std::to_string(spec.dms) +
                                      " DMs, max delay " +
                                      std::to_string(plan.max_delay()) +
                                      ", chunk " +
                                      std::to_string(spec.chunk_samples)});
  result.notes.push_back({"engine", spec.engine + " " + spec.config});

  if (options.traced()) {
    tracer.clear();
    tracer.set_enabled(true);
  }
  ctx.warm_starts();
  verify_pass(ctx);
  ctx.warm_starts();

  // Rounds of one paced session and the unpaced ones, so that every metric
  // samples the whole run: the shared host has spells of several seconds
  // in which memory-bound work runs up to twice as slow, and a phase that
  // ran in one block took such a spell whole or not at all.
  const double paced_s = 0.7 * options.seconds / kRounds;
  const double unpaced_s = 0.3 * options.seconds / kRounds;
  const double chunk_data_s =
      static_cast<double>(spec.chunk_samples) / ctx.rate;
  auto due_s = [&](std::size_t index) {
    // Window `index` completes with stream sample (index+1)·C + overlap − 1.
    const std::size_t last = (index + 1) * spec.chunk_samples + ctx.overlap - 1;
    const double block = static_cast<double>(last / ctx.block_cols);
    return block * static_cast<double>(ctx.block_cols) / ctx.rate;
  };
  std::vector<double> latency, ingest, queue, compute, detect, late_s;
  std::vector<double> unpaced, unpaced_traced;
  double detect_total = 0.0;  // every paced chunk's, warm-up included
  std::size_t paced_chunks = 0;
  double busy = 0.0;  // compute-thread time measured from outside
  double push_s = 0.0;
  double data_s = 0.0;
  engine::SessionTraffic traffic;
  double dropped = 0.0;
  std::vector<telemetry::TraceEvent> events, busy_events;
  for (int round = 0; round < kRounds; ++round) {
    // The trace keeps the set-up and verify spans and the timed part of
    // each paced session; a warm-up would only fill the buffer with ring
    // waits.
    tracer.set_enabled(false);
    const Phase paced = run_phase(ctx, true, paced_s, options.traced());
    tracer.set_enabled(false);
    if (options.traced()) {
      for (const telemetry::TraceEvent& e : tracer.events()) {
        events.push_back(e);
        if (e.start_ns >= paced.timed_since_ns) busy_events.push_back(e);
      }
      dropped += static_cast<double>(tracer.dropped());
      tracer.clear();
    }
    // Timed chunks are those due after the warm-up; their windows complete
    // after the tracer was switched on.
    paced_chunks += paced.chunks.size();
    for (const ChunkRecord& r : paced.chunks) {
      detect_total += r.done_s - r.entry_s;
      const double due = due_s(r.index);
      if (r.out_samples != spec.chunk_samples || due < warmup_s(paced_s)) {
        continue;
      }
      latency.push_back(r.done_s - due);
      ingest.push_back(r.entry_s - due - r.timing.latency_seconds);
      queue.push_back(r.timing.latency_seconds - r.timing.compute_seconds);
      compute.push_back(r.timing.compute_seconds);
      detect.push_back(r.done_s - r.entry_s);
      busy += r.timing.compute_seconds + (r.done_s - r.entry_s);
    }
    late_s.insert(late_s.end(), paced.late_s.begin(), paced.late_s.end());
    push_s += paced.push_s;
    data_s += paced.data_s;
    traffic.merge(paced.traffic);
    ctx.warm_starts();

    // Closed loop. A chunk's wall time runs from the previous candidate to
    // its own, so a session's start does not count. A traced run adds a
    // traced session per round to measure the tracer's own cost.
    const int sessions = options.traced() ? 2 : 1;
    for (int i = 0; i < sessions; ++i) {
      const bool trace_this = i == 1;
      if (trace_this) tracer.set_enabled(true);
      const Phase p = run_phase(ctx, false, unpaced_s / sessions);
      if (trace_this) {
        dropped += static_cast<double>(tracer.dropped());
        tracer.set_enabled(false);
        tracer.clear();
      }
      for (std::size_t k = 1; k < p.chunks.size(); ++k) {
        (trace_this ? unpaced_traced : unpaced)
            .push_back((p.chunks[k].done_s - p.chunks[k - 1].done_s) /
                       chunk_data_s);
      }
      ctx.warm_starts();
    }
  }
  std::remove(ctx.cache_path.c_str());
  if (options.traced()) {
    std::ofstream(options.trace_prefix + "." + spec.name + ".trace.json")
        << telemetry::export_chrome_trace(events);
  }

  const double late_p95_ms = 1e3 * percentile(late_s, 95.0);
  result.valid = late_p95_ms < 1.0;

  auto& e2e = result.end_to_end;
  result.add(e2e, "s_per_data_s", median(unpaced), "s/s", unpaced.size());
  result.add(e2e, "latency_p50_ms", 1e3 * percentile(latency, 50.0), "ms",
             latency.size());
  result.add(e2e, "latency_p95_ms", 1e3 * percentile(latency, 95.0), "ms",
             latency.size());
  result.add(e2e, "setup_s", median(ctx.setup_s), "s", ctx.setup_s.size());
  result.add(e2e, "peak_rss_mb", peak_rss_mb(), "MiB", 1);

  auto& layer = result.per_layer;
  const double C = static_cast<double>(spec.chunk_samples);
  const double chunks = static_cast<double>(compute.size());
  result.add(layer, "stream.ingest_ms_p50", 1e3 * percentile(ingest, 50.0), "ms",
             ingest.size());
  result.add(layer, "stream.queue_ms_p50", 1e3 * percentile(queue, 50.0), "ms",
             queue.size());
  result.add(layer, "stream.queue_ms_p95", 1e3 * percentile(queue, 95.0), "ms",
             queue.size());
  result.add(layer, "stream.push_block_s", push_s, "s", late_s.size());
  result.add(layer, "stream.chunks", chunks, "count", 1);
  result.add(layer, "stream.window_ratio",
             static_cast<double>(ctx.window_cols()) / C, "ratio", 1);
  result.add(layer, "engine.compute_ms_p50", 1e3 * percentile(compute, 50.0),
             "ms", compute.size());
  result.add(layer, "engine.compute_ms_p95", 1e3 * percentile(compute, 95.0),
             "ms", compute.size());
  result.add(layer, "engine.busy_s_per_data_s", traffic.engine_seconds / data_s,
             "s/s", traffic.runs);
  result.add(layer, "detect.ms_p50", 1e3 * percentile(detect, 50.0), "ms",
             detect.size());
  result.add(layer, "detect.busy_s_per_data_s", detect_total / data_s, "s/s",
             paced_chunks);
  result.add(layer, "pipeline.dedisperse_ms_p50", 0.0, "ms", 0);
  result.add(layer, "tuner.configs_evaluated", 0.0, "count", 0);
  result.add(layer, "tuner.winner_ms", 0.0, "ms", 0);
  result.add(layer, "bench.pacer_late_ms_p95", late_p95_ms, "ms",
             late_s.size());
  add_engine_layers(result, traffic, data_s);
  if (options.traced()) {
    result.add(layer, "trace.dropped", dropped, "count", 1);
    result.add(layer, "trace.overhead_pct",
               100.0 * (median(unpaced_traced) / median(unpaced) - 1.0), "%",
               unpaced_traced.size() + unpaced.size());
    add_trace_layers(
        result, busy_events,
        {"stream.chunk", "engine.execute", "stream.sink", "bench.detect"}, busy,
        {}, batch_workload().engines);
  }
  return result;
}

}  // namespace ddmc::ddmc_bench
