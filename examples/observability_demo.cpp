/// Observability demo: one supervised streaming session and one supervised
/// DM-sharded batch call under injected faults, watched end-to-end through
/// the telemetry subsystem.
///
/// The session runs its engine on the engine's own pool, and its chunk
/// watchdog retries the chunks whose `stream.chunk` faults were injected.
/// The batch call then dedisperses two windows of the same data as DM
/// shards (pipeline::ShardedDedisperser::dedisperse_batch), and its
/// per-shard supervision retries the injected `shard.task` faults without
/// repeating the other shards. Everything lands in the process-wide
/// registry and trace buffer: engine executions (per-engine GFLOP/s),
/// chunk retries and latencies, shard attempts and retries. Afterwards
/// the same numbers are exported three ways —
///
///   <prefix>.prom        Prometheus text exposition (scrape-endpoint body)
///   <prefix>.json        JSON snapshot of every metric + trace status
///   <prefix>.trace.json  Chrome trace_event timeline: open it in
///                        chrome://tracing or https://ui.perfetto.dev to see
///                        stream.chunk > engine.execute spans, then
///                        shard.task > engine.execute spans nested per
///                        worker thread, with shard.retry markers at the
///                        injected shard faults
///
/// and the session's own report() views are printed next to them: they are
/// assembled from the same registry objects, so they cannot disagree.
///
///   ./observability_demo [--dms 64] [--seconds 2] [--chunk-seconds 0.25]
///                        [--shard-workers 3] [--out-prefix telemetry]

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dedisp/plan.hpp"
#include "pipeline/sharding.hpp"
#include "resilience/fault_injection.hpp"
#include "sky/signal.hpp"
#include "stream/streaming_dedisperser.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"

namespace {

void write_text(const std::string& path, const std::string& body) {
  std::ofstream os(path);
  DDMC_REQUIRE(os.good(), "cannot write " + path);
  os << body;
  DDMC_REQUIRE(os.good(), "short write to " + path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ddmc;
  Cli cli("observability_demo",
          "supervised streaming and sharded execution under faults, "
          "exported as Prometheus text, JSON and a Chrome trace");
  cli.add_option("dms", "number of trial DMs", "64");
  cli.add_option("seconds", "seconds of data to stream", "2");
  cli.add_option("chunk-seconds", "output chunk length in seconds", "0.25");
  cli.add_option("shard-workers",
                 "worker threads of the streaming engine's pool and of the "
                 "DM-sharded batch call",
                 "3");
  cli.add_option("out-prefix", "prefix for the exported files", "telemetry");
  if (!cli.parse(argc, argv)) return 0;

  const sky::Observation obs = sky::apertif();
  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const auto seconds = static_cast<std::size_t>(cli.get_int("seconds"));
  const auto workers =
      static_cast<std::size_t>(cli.get_int("shard-workers"));
  const auto chunk_samples = static_cast<std::size_t>(
      cli.get_double("chunk-seconds") * obs.sampling_rate());
  const std::string prefix = cli.get("out-prefix");

  const std::size_t total_out = seconds * obs.samples_per_second();
  const dedisp::Plan batch_plan =
      dedisp::Plan::with_output_samples(obs, dms, total_out);
  const dedisp::Plan chunk_plan = batch_plan.with_chunk(chunk_samples);
  dedisp::KernelConfig config{1, 1, 1, 1, 32, 4};
  for (const dedisp::KernelConfig& candidate :
       {dedisp::KernelConfig{50, 2, 4, 2, 32, 4},
        dedisp::KernelConfig{10, 2, 10, 2, 32, 4}}) {
    if (candidate.divides(chunk_plan)) {
      config = candidate;
      break;
    }
  }

  sky::PulsarParams pulsar;
  pulsar.dm = 4.5;
  pulsar.period_s = 0.25;
  pulsar.width_s = 0.0002;
  pulsar.amplitude = 2.0;
  sky::NoiseParams noise;
  noise.sigma = 1.0;
  const Array2D<float> data =
      sky::make_observation_data(obs, batch_plan.in_samples(), pulsar, noise);

  // Everything below is recorded: flip the tracer on before the session
  // exists so even shard planning shows up on the timeline.
  telemetry::Tracer::instance().set_enabled(true);
  telemetry::Tracer::instance().clear();
  telemetry::MetricsRegistry::instance().reset();
  auto& faults = resilience::FaultInjector::instance();

  stream::StreamingOptions opts;
  opts.async = false;
  opts.cpu.threads = workers;
  opts.supervision.enabled = true;
  opts.supervision.max_chunk_retries = 2;  // absorb both faults by retry
  opts.supervision.skip_failed_chunks = true;

  std::size_t emitted = 0;
  stream::StreamingDedisperser session(
      chunk_plan, engine::encode_kernel_config(config),
      [&](const stream::StreamChunk& chunk) { emitted += chunk.out_samples; },
      opts);

  // Two transient chunk faults mid-stream: the watchdog absorbs them by
  // retry, and both the retries and their cost are on record.
  resilience::FaultSpec glitch;
  glitch.skip = 2;  // let a few attempts pass first
  glitch.max_fires = 2;
  faults.arm("stream.chunk", glitch);
  session.push(data.cview());
  session.close();
  faults.disarm_all();

  // The same two faults on the shards of one batch call over the first
  // and the last window: per-shard retry absorbs them.
  pipeline::ShardedOptions sharded_opts;
  sharded_opts.workers = workers;
  sharded_opts.supervision.retry.max_attempts = 3;
  sharded_opts.supervision.retry.backoff_seconds = 0.0;
  const pipeline::ShardedDedisperser sharded(
      chunk_plan, engine::encode_kernel_config(config), sharded_opts);
  std::vector<ConstView2D<float>> windows;
  for (const std::size_t first :
       {std::size_t{0}, total_out - chunk_plan.out_samples()}) {
    windows.emplace_back(&data.cview()(0, first), data.rows(),
                         chunk_plan.in_samples(), data.pitch());
  }
  faults.arm("shard.task", glitch);
  sharded.dedisperse_batch(windows);
  faults.disarm_all();

  // ---- the session's own views ------------------------------------------
  const stream::LatencyReport latency = session.latency();
  const resilience::StreamHealth health = session.health();
  const engine::SessionTraffic traffic = session.telemetry();
  std::cout << "== observability demo: " << seconds << " s of " << obs.name()
            << ", " << dms << " trial DMs, " << workers
            << " worker threads, 2 injected chunk faults, 2 injected shard "
               "faults ==\n\n"
            << "chunks emitted     " << health.chunks_emitted << " ("
            << emitted << " samples)\n"
            << "chunk retries      " << health.retries << " absorbed ("
            << health.chunks_skipped << " chunks skipped)\n"
            << "shard retries      " << sharded.last_report().retries
            << " absorbed in a batch of " << windows.size() << " windows x "
            << sharded.shard_count() << " shards\n"
            << "engine runs        " << traffic.runs << " ("
            << TextTable::num(traffic.gflops(), 2) << " GFLOP/s over "
            << TextTable::num(traffic.engine_seconds * 1e3, 1)
            << " ms busy)\n"
            << "real-time margin   " << TextTable::num(latency.real_time_margin, 1)
            << "x (p95 latency "
            << TextTable::num(latency.p95_latency * 1e3, 1) << " ms)\n\n";

  // ---- the exports -------------------------------------------------------
  const std::string prom = telemetry::export_prometheus();
  write_text(prefix + ".prom", prom);
  json::write_file(prefix + ".json", telemetry::snapshot_json());
  write_text(prefix + ".trace.json", telemetry::export_chrome_trace());
  telemetry::Tracer::instance().set_enabled(false);

  std::cout << "wrote " << prefix << ".prom, " << prefix << ".json, "
            << prefix << ".trace.json ("
            << telemetry::Tracer::instance().events().size()
            << " trace events)\n\nscrape excerpt:\n";
  // Print the engine and shard families — the lines a Prometheus scrape of
  // a production session would alert on.
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("ddmc_engine_", 0) == 0 ||
        line.rfind("ddmc_shard_", 0) == 0 ||
        line.find("TYPE ddmc_engine") != std::string::npos ||
        line.find("TYPE ddmc_shard") != std::string::npos) {
      std::cout << "  " << line << "\n";
    }
  }
  std::cout << "\nopen " << prefix
            << ".trace.json in chrome://tracing or ui.perfetto.dev: the "
               "stream.chunk spans\nnest the engine executions, the "
               "shard.task spans nest them per worker, and the\nshard.retry "
               "markers sit exactly where the shard faults were injected.\n";
  return 0;
}
