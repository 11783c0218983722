/// Cost of observing: the telemetry subsystem's overhead at every price
/// point that matters.
///
/// The metrics/tracing layer rides inside the hot seams (engine execute,
/// shard attempts, every streaming chunk), so it is only shippable if (a) a
/// *disabled* span costs nanoseconds — the same discipline as the disarmed
/// failpoint it sits next to, (b) an enabled span stays far below a chunk's
/// compute time, (c) exports are cheap enough to run from a scrape handler,
/// and (d) a real streaming session pays no measurable margin for running
/// with tracing on. This bench measures all four.
///
///   ./bench_telemetry [--span-iters 2000000] [--chunks 64] [--json out.json]

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "common/array2d.hpp"
#include "common/random.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "stream/streaming_dedisperser.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"

namespace {

using namespace ddmc;

/// One timed streaming session; returns wall seconds for the whole stream.
double run_stream(const dedisp::Plan& chunked, const Array2D<float>& input,
                  std::size_t total_out) {
  std::size_t emitted = 0;
  stream::StreamingOptions opts;
  opts.cpu.threads = 1;
  stream::StreamingDedisperser session(
      chunked, engine::EngineConfig{},
      [&](const stream::StreamChunk& chunk) { emitted += chunk.out_samples; },
      opts);
  Stopwatch clock;
  session.push(input.cview());
  session.close();
  const double seconds = clock.seconds();
  DDMC_REQUIRE(emitted == total_out, "stream emitted the wrong sample count");
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_telemetry",
          "overhead of the metrics registry, tracing spans and exporters");
  cli.add_option("span-iters", "span/counter micro-bench iterations",
                 "2000000");
  cli.add_option("chunks", "streaming chunks for the end-to-end overhead",
                 "64");
  cli.add_option("json", "write machine-readable results to this path", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto span_iters =
      static_cast<std::size_t>(cli.get_int("span-iters"));
  const auto chunks = static_cast<std::size_t>(cli.get_int("chunks"));
  DDMC_REQUIRE(span_iters > 0 && chunks > 0,
               "--span-iters and --chunks must be positive");

  auto& tracer = telemetry::Tracer::instance();
  auto& registry = telemetry::MetricsRegistry::instance();

  // ---- disabled span: the price every clean run pays -------------------
  tracer.set_enabled(false);
  double disabled_ns = 0.0;
  {
    for (std::size_t i = 0; i < 1000; ++i) {
      telemetry::TraceSpan span("bench.span");
    }
    Stopwatch clock;
    for (std::size_t i = 0; i < span_iters; ++i) {
      telemetry::TraceSpan span("bench.span");
    }
    disabled_ns = clock.seconds() * 1e9 / static_cast<double>(span_iters);
  }

  // ---- enabled span: record into the preallocated slot vector ----------
  tracer.set_enabled(true);
  tracer.clear();
  double enabled_ns = 0.0;
  {
    Stopwatch clock;
    for (std::size_t i = 0; i < span_iters; ++i) {
      telemetry::TraceSpan span("bench.span");
    }
    enabled_ns = clock.seconds() * 1e9 / static_cast<double>(span_iters);
  }
  const std::size_t recorded = tracer.events().size();
  const std::size_t dropped = tracer.dropped();
  tracer.set_enabled(false);

  // ---- counter add: the per-metric price of every instrumented seam ----
  double counter_ns = 0.0;
  {
    auto counter = registry.counter("ddmc.bench.spin_total");
    Stopwatch clock;
    for (std::size_t i = 0; i < span_iters; ++i) counter->increment();
    counter_ns = clock.seconds() * 1e9 / static_cast<double>(span_iters);
  }

  // ---- export cost: scrape-handler latency ------------------------------
  // A populated registry (one labeled family per instrumented seam order of
  // magnitude) plus the trace buffer as filled by the enabled-span loop.
  for (std::size_t i = 0; i < 64; ++i) {
    registry
        .counter("ddmc.bench.family_total", {{"k", std::to_string(i)}})
        ->add(static_cast<double>(i));
  }
  auto hist = registry.histogram("ddmc.bench.latency_seconds");
  for (std::size_t i = 0; i < 4096; ++i) {
    hist->record(1e-3 * static_cast<double>(i % 97));
  }
  double prometheus_us = 0.0;
  double json_us = 0.0;
  double chrome_us = 0.0;
  std::size_t prometheus_bytes = 0;
  std::size_t chrome_bytes = 0;
  {
    constexpr std::size_t kReps = 50;
    Stopwatch clock;
    for (std::size_t i = 0; i < kReps; ++i) {
      prometheus_bytes = telemetry::export_prometheus().size();
    }
    prometheus_us = clock.seconds() * 1e6 / kReps;
    clock.reset();
    for (std::size_t i = 0; i < kReps; ++i) {
      telemetry::snapshot_json().dump();
    }
    json_us = clock.seconds() * 1e6 / kReps;
    clock.reset();
    for (std::size_t i = 0; i < kReps; ++i) {
      chrome_bytes = telemetry::export_chrome_trace().size();
    }
    chrome_us = clock.seconds() * 1e6 / kReps;
  }
  tracer.clear();

  // ---- end-to-end: a streaming session, tracing off vs on ---------------
  const sky::Observation obs = sky::apertif();
  const std::size_t chunk_samples = 256;
  const std::size_t total_out = chunk_samples * chunks;
  const dedisp::Plan batch =
      dedisp::Plan::with_output_samples(obs, 32, total_out);
  const dedisp::Plan chunked = batch.with_chunk(chunk_samples);
  Array2D<float> input(batch.channels(), batch.in_samples());
  Rng rng(7);
  for (std::size_t ch = 0; ch < input.rows(); ++ch) {
    for (auto& v : input.row(ch)) v = rng.next_float(-1.0f, 1.0f);
  }

  // Alternate off/on runs and keep each mode's best time: the contrast is
  // nanoseconds per chunk, so thermal drift between two single runs would
  // otherwise dominate the signal.
  run_stream(chunked, input, total_out);  // warmup
  double stream_off = 0.0;
  double stream_on = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    tracer.set_enabled(false);
    const double off = run_stream(chunked, input, total_out);
    stream_off = rep == 0 ? off : std::min(stream_off, off);
    tracer.set_enabled(true);
    tracer.clear();
    const double on = run_stream(chunked, input, total_out);
    stream_on = rep == 0 ? on : std::min(stream_on, on);
  }
  tracer.set_enabled(false);
  const double stream_overhead = stream_on / stream_off - 1.0;

  std::cout << "== telemetry overhead, simd " << simd::backend_name()
            << " ==\n\n";
  TextTable table({"measurement", "cost"});
  table.add_row({"disabled span", TextTable::num(disabled_ns, 1) + " ns"});
  table.add_row({"enabled span", TextTable::num(enabled_ns, 1) + " ns"});
  table.add_row({"counter add", TextTable::num(counter_ns, 1) + " ns"});
  table.add_row(
      {"prometheus export", TextTable::num(prometheus_us, 1) + " us"});
  table.add_row({"json snapshot", TextTable::num(json_us, 1) + " us"});
  table.add_row({"chrome trace", TextTable::num(chrome_us, 1) + " us"});
  table.add_row({"stream, tracing off",
                 TextTable::num(stream_off * 1e3, 1) + " ms"});
  table.add_row({"stream, tracing on",
                 TextTable::num(stream_on * 1e3, 1) + " ms"});
  table.add_row({"stream overhead",
                 TextTable::num(stream_overhead * 100.0, 1) + " %"});
  table.print(std::cout);
  std::cout << "\n(enabled-span loop recorded " << recorded
            << " events, dropped " << dropped
            << " once the bounded buffer filled — dropping, not blocking,\n"
               " is the contract that keeps tracing safe inside the "
               "pipeline it observes)\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    bench::JsonObject root;
    root.set("bench", "bench_telemetry")
        .set("simd_backend", simd::backend_name())
        .set("span_iters", span_iters)
        .set("disabled_span_ns", disabled_ns)
        .set("enabled_span_ns", enabled_ns)
        .set("counter_add_ns", counter_ns)
        .set("trace_events_recorded", recorded)
        .set("trace_events_dropped", dropped)
        .set("prometheus_export_us", prometheus_us)
        .set("prometheus_export_bytes", prometheus_bytes)
        .set("json_snapshot_us", json_us)
        .set("chrome_trace_us", chrome_us)
        .set("chrome_trace_bytes", chrome_bytes)
        .set_raw("streaming",
                 bench::JsonObject()
                     .set("chunks", chunks)
                     .set("chunk_samples", chunk_samples)
                     .set("seconds_tracing_off", stream_off)
                     .set("seconds_tracing_on", stream_on)
                     .set("overhead", stream_overhead)
                     .dump());
    bench::write_json_file(json_path, root);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
