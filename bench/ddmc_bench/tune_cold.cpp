/// The cold-start workload: a batch pipeline::Dedisperser races the engines
/// through tune_cached on an empty cache, and each race is followed by
/// closed-loop dedisperse + detect calls on its winner.

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <thread>

#include "common/timer.hpp"
#include "ddmc_bench.hpp"
#include "engine/registry.hpp"
#include "pipeline/dedisperser.hpp"
#include "resilience/error.hpp"
#include "sky/detection.hpp"
#include "telemetry/export.hpp"
#include "tuner/tuning_cache.hpp"

namespace ddmc::ddmc_bench {

namespace {

/// The batch backend's receiver: a thread that stages call k's input,
/// columns [k·step, k·step + cols) of the replayed sky, while call k−1
/// runs. Two buffers, so it is never more than one call ahead. It polls
/// like the streaming producer, for the same reason.
class Receiver {
 public:
  Receiver(const SkyInput& sky, std::size_t step, std::size_t cols)
      : sky_(sky),
        step_(step),
        buffers_{Array2D<float>(sky.samples.rows(), cols),
                 Array2D<float>(sky.samples.rows(), cols)},
        thread_([this] { run(); }) {}
  ~Receiver() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  /// Call k's input (k ≥ 1), once staged.
  ConstView2D<float> input(std::size_t k) {
    while (staged_.load(std::memory_order_acquire) < k) {
      if (failed_.load(std::memory_order_acquire)) {
        std::rethrow_exception(error_);
      }
      cpu_relax();
    }
    return buffers_[k % 2].cview();
  }
  /// Call k has read its input; its buffer may take call k + 2's.
  void release(std::size_t k) {
    released_.store(k, std::memory_order_release);
  }

 private:
  void run() {
    try {
      for (std::size_t k = 1;; ++k) {
        while (released_.load(std::memory_order_acquire) + 2 <= k) {
          if (stop_.load(std::memory_order_relaxed)) return;
          cpu_relax();
        }
        const ConstView2D<float> src =
            sky_.window(k * step_, buffers_[k % 2].cols());
        View2D<float> dst = buffers_[k % 2].view();
        for (std::size_t ch = 0; ch < src.rows(); ++ch) {
          std::copy_n(&src(ch, 0), src.cols(), &dst(ch, 0));
        }
        staged_.store(k, std::memory_order_release);
      }
    } catch (...) {
      error_ = std::current_exception();
      failed_.store(true, std::memory_order_release);
    }
  }

  const SkyInput& sky_;
  const std::size_t step_;
  Array2D<float> buffers_[2];
  std::atomic<std::size_t> staged_{0};
  std::atomic<std::size_t> released_{0};
  std::atomic<bool> stop_{false};
  std::exception_ptr error_;  // set before failed_
  std::atomic<bool> failed_{false};
  std::thread thread_;  // last: run() uses every member above
};

}  // namespace

WorkloadResult run_batch_workload(const BatchSpec& spec,
                                  const RunOptions& options) {
  WorkloadResult result;
  result.name = spec.name;
  reset_peak_rss();
  telemetry::Tracer& tracer = telemetry::Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();

  const dedisp::Plan plan = dedisp::Plan::with_output_samples(
      spec.obs, spec.dms, spec.out_samples);
  std::size_t padding = 0;  // widest read of any raced engine
  for (const std::string& id : spec.engines) {
    padding = std::max(padding,
                       engine::make_engine(id)->capabilities().input_padding);
  }
  const std::size_t in_cols = plan.in_samples() + padding;
  const SkyInput sky = make_sky(plan, spec.out_samples, spec.amplitude,
                                options.seed, in_cols);
  const double data_per_call =
      static_cast<double>(spec.out_samples) / spec.obs.sampling_rate();

  auto fail = [&](const std::string& what) {
    result.failures.push_back(spec.name + ": " + what);
  };
  auto score = [&](const sky::DetectionResult& d) {
    ++result.recall_total;
    if (recalled(d, sky.true_trial)) ++result.recall_hits;
  };

  struct Call {
    double total_s, dedisperse_s, engine_s;
    bool traced;
  };
  /// The closed-loop calls on one race's winner.
  struct CallBlock {
    std::vector<Call> calls;
    std::vector<telemetry::TraceEvent> events;
  };
  // Each race is followed by its winner's calls, so that races and calls
  // both sample the whole run (streaming.cpp says why).
  std::vector<double> setup_s, winner_ms, evaluated;
  std::vector<pipeline::Dedisperser> winners;
  std::vector<std::string> picks;  // engine and config of each winner
  std::vector<CallBlock> blocks(spec.races);
  std::vector<telemetry::TraceEvent> race_events, all_events;
  double dropped = 0.0;
  auto collect_trace = [&](std::vector<telemetry::TraceEvent>& into) {
    tracer.set_enabled(false);
    if (!options.traced()) return;
    const std::vector<telemetry::TraceEvent> events = tracer.events();
    into.insert(into.end(), events.begin(), events.end());
    all_events.insert(all_events.end(), events.begin(), events.end());
    dropped += static_cast<double>(tracer.dropped());
    tracer.clear();
  };
  winners.reserve(spec.races);
  for (std::size_t r = 0; r < spec.races; ++r) {
    // Cold start: a fresh Dedisperser and an empty cache.
    tracer.set_enabled(options.traced());
    {
      telemetry::TraceSpan span("bench.setup");
      const Stopwatch clock;
      auto fresh = pipeline::Dedisperser::with_output_samples(
          spec.obs, spec.dms, spec.out_samples);
      fresh.set_cpu_options(kernel_options());
      tuner::TuningCache cache;
      tuner::GuidedTuningOptions tuning;
      tuning.engines = spec.engines;
      const tuner::GuidedTuningOutcome outcome =
          fresh.tune_cached(cache, tuning);
      setup_s.push_back(clock.seconds());
      winner_ms.push_back(outcome.seconds * 1e3);
      evaluated.push_back(static_cast<double>(outcome.configs_evaluated));
      winners.push_back(std::move(fresh));
      picks.push_back(outcome.engine_id + " " + outcome.config.encode());
      result.notes.push_back({"race " + std::to_string(r + 1), picks.back()});
    }
    pipeline::Dedisperser& dd = winners.back();

    // The winner's first call is checked against the reference and warms
    // up.
    ++result.attempted;
    try {
      const Array2D<float> out = dd.dedisperse(sky.window(0, in_cols));
      const std::string mismatch = verify_output(
          dd.engine(), plan, sky.window(0, in_cols), out.cview());
      if (!mismatch.empty()) fail(mismatch);
      score(sky::detect_best_dm(out.cview()));
    } catch (...) {
      fail(resilience::describe(std::current_exception()));
    }
    collect_trace(race_events);

    // Closed loop for a quarter of the measured time over the races; a
    // traced run traces every other run of 50 calls to measure the
    // tracer's own cost.
    CallBlock& block = blocks[r];
    Receiver receiver(sky, spec.out_samples, in_cols);
    const Stopwatch loop;
    for (std::size_t k = 1;
         loop.seconds() < 0.25 * options.seconds / spec.races; ++k) {
      const bool trace_this = options.traced() && (k / 50) % 2 == 1;
      tracer.set_enabled(trace_this);
      ++result.attempted;
      try {
        const ConstView2D<float> input = receiver.input(k);
        const double engine_before = dd.telemetry().engine_seconds;
        const Stopwatch call;
        Array2D<float> out;
        {
          telemetry::TraceSpan span("bench.dedisperse");
          out = dd.dedisperse(input);
        }
        receiver.release(k);
        const double dedisperse = call.seconds();
        sky::DetectionResult detection;
        {
          telemetry::TraceSpan span("bench.detect");
          detection = sky::detect_best_dm(out.cview());
        }
        score(detection);
        block.calls.push_back({call.seconds(), dedisperse,
                               dd.telemetry().engine_seconds - engine_before,
                               trace_this});
      } catch (...) {
        receiver.release(k);
        fail(resilience::describe(std::current_exception()));
      }
    }
    collect_trace(block.events);
  }

  // Only the calls on the pick most races agree on count. The tuner times
  // on a noisy host and now and then picks another config; running a third
  // of the calls on it moved p95 by 40%.
  std::size_t chosen = 0;
  for (std::size_t i = 1; i < picks.size(); ++i) {
    if (std::count(picks.begin(), picks.end(), picks[i]) >
        std::count(picks.begin(), picks.end(), picks[chosen])) {
      chosen = i;
    }
  }
  std::vector<double> call_s, call_traced_s, dedisperse_s, detect_s, engine_s;
  double busy_traced = 0.0;
  std::vector<telemetry::TraceEvent> call_events;
  engine::SessionTraffic traffic;
  for (std::size_t r = 0; r < spec.races; ++r) {
    if (picks[r] != picks[chosen]) continue;
    for (const Call& c : blocks[r].calls) {
      (c.traced ? call_traced_s : call_s).push_back(c.total_s);
      if (c.traced) busy_traced += c.total_s;
      dedisperse_s.push_back(c.dedisperse_s);
      detect_s.push_back(c.total_s - c.dedisperse_s);
      engine_s.push_back(c.engine_s);
    }
    call_events.insert(call_events.end(), blocks[r].events.begin(),
                       blocks[r].events.end());
    traffic.merge(winners[r].telemetry());
  }

  auto& e2e = result.end_to_end;
  result.add(e2e, "s_per_data_s", median(call_s) / data_per_call, "s/s",
             call_s.size());
  result.add(e2e, "latency_p50_ms", 1e3 * percentile(call_s, 50.0), "ms",
             call_s.size());
  result.add(e2e, "latency_p95_ms", 1e3 * percentile(call_s, 95.0), "ms",
             call_s.size());
  result.add(e2e, "setup_s", median(setup_s), "s", setup_s.size());
  result.add(e2e, "peak_rss_mb", peak_rss_mb(), "MiB", 1);

  const double data_s = static_cast<double>(traffic.runs) * data_per_call;
  double detect_total = 0.0;
  for (double s : detect_s) detect_total += s;
  double engine_total = 0.0;
  for (double s : engine_s) engine_total += s;
  const double calls = static_cast<double>(detect_s.size()) * data_per_call;

  auto& layer = result.per_layer;
  result.add(layer, "stream.ingest_ms_p50", 0.0, "ms", 0);
  result.add(layer, "stream.queue_ms_p50", 0.0, "ms", 0);
  result.add(layer, "stream.queue_ms_p95", 0.0, "ms", 0);
  result.add(layer, "stream.push_block_s", 0.0, "s", 0);
  result.add(layer, "stream.chunks", 0.0, "count", 0);
  result.add(layer, "stream.window_ratio",
             static_cast<double>(in_cols) /
                 static_cast<double>(spec.out_samples),
             "ratio", 1);
  result.add(layer, "engine.compute_ms_p50", 1e3 * percentile(engine_s, 50.0),
             "ms", engine_s.size());
  result.add(layer, "engine.compute_ms_p95", 1e3 * percentile(engine_s, 95.0),
             "ms", engine_s.size());
  result.add(layer, "engine.busy_s_per_data_s", engine_total / calls, "s/s",
             engine_s.size());
  result.add(layer, "detect.ms_p50", 1e3 * percentile(detect_s, 50.0), "ms",
             detect_s.size());
  result.add(layer, "detect.busy_s_per_data_s", detect_total / calls, "s/s",
             detect_s.size());
  result.add(layer, "pipeline.dedisperse_ms_p50",
             1e3 * percentile(dedisperse_s, 50.0), "ms", dedisperse_s.size());
  result.add(layer, "tuner.configs_evaluated", median(evaluated), "count",
             evaluated.size());
  result.add(layer, "tuner.winner_ms", median(winner_ms), "ms",
             winner_ms.size());
  result.add(layer, "bench.pacer_late_ms_p95", 0.0, "ms", 0);
  add_engine_layers(result, traffic, data_s);
  if (options.traced()) {
    std::ofstream(options.trace_prefix + "." + spec.name + ".trace.json")
        << telemetry::export_chrome_trace(all_events);
    result.add(layer, "trace.dropped", dropped, "count", 1);
    result.add(layer, "trace.overhead_pct",
               100.0 * (median(call_traced_s) / median(call_s) - 1.0), "%",
               call_traced_s.size() + call_s.size());
    add_trace_layers(result, call_events,
                     {"bench.dedisperse", "engine.execute", "bench.detect"},
                     busy_traced, race_events, spec.engines);
  }
  return result;
}

}  // namespace ddmc::ddmc_bench
