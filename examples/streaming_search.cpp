/// Streaming search demo: the real-time deployment shape of the paper's
/// scenario (§V-D), end to end — a producer thread synthesizes a dispersed
/// pulsar and pushes raw samples into a bounded ring at survey granularity;
/// the consumer drives a StreamingDedisperser that assembles overlap-carry
/// chunks, dedisperses them with the tiled SIMD kernel, scans each chunk
/// for candidates and prints the per-chunk verdict plus the session's
/// latency percentiles and real-time margin.
///
///   ./streaming_search [--dms 64] [--dm 4.5] [--seconds 2]
///                      [--chunk-seconds 0.25] [--threads 0]
///                      [--ring-seconds 0.5]

#include <cmath>
#include <iostream>
#include <thread>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dedisp/plan.hpp"
#include "engine/registry.hpp"
#include "sky/detection.hpp"
#include "sky/signal.hpp"
#include "stream/ring_buffer.hpp"
#include "stream/streaming_dedisperser.hpp"

int main(int argc, char** argv) {
  using namespace ddmc;
  Cli cli("streaming_search",
          "real-time chunked dedispersion search on a synthetic pulsar");
  cli.add_option("dms", "number of trial DMs", "64");
  cli.add_option("dm", "true pulsar dispersion measure [pc/cm^3]", "4.5");
  cli.add_option("seconds", "seconds of data to stream", "2");
  cli.add_option("chunk-seconds", "output chunk length in seconds", "0.25");
  cli.add_option("engine", "streaming-capable execution engine", "cpu_tiled");
  cli.add_option("threads", "kernel worker threads (0 = machine-sized)", "0");
  cli.add_option("ring-seconds", "ingest ring capacity in seconds", "0.5");
  if (!cli.parse(argc, argv)) return 0;

  const sky::Observation obs = sky::apertif();
  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const auto seconds = static_cast<std::size_t>(cli.get_int("seconds"));
  const auto chunk_samples = static_cast<std::size_t>(
      cli.get_double("chunk-seconds") * obs.sampling_rate());
  const auto ring_samples = static_cast<std::size_t>(
      cli.get_double("ring-seconds") * obs.sampling_rate());
  const double true_dm = cli.get_double("dm");

  // One plan describes the whole stream; its chunk variant drives the
  // session. A 1×1-safe tile shape is chosen small enough to divide any
  // chunk the CLI asks for.
  const std::size_t total_out = seconds * obs.samples_per_second();
  const dedisp::Plan batch_plan =
      dedisp::Plan::with_output_samples(obs, dms, total_out);
  const dedisp::Plan chunk_plan = batch_plan.with_chunk(chunk_samples);
  dedisp::KernelConfig config{1, 1, 1, 1, 32, 4};
  for (const dedisp::KernelConfig& candidate :
       {dedisp::KernelConfig{50, 2, 4, 2, 32, 4},
        dedisp::KernelConfig{10, 2, 10, 2, 32, 4},
        dedisp::KernelConfig{5, 1, 5, 1, 32, 4}}) {
    if (candidate.divides(chunk_plan)) {
      config = candidate;
      break;
    }
  }

  std::cout << "== streaming " << seconds << " s of " << obs.name() << ", "
            << dms << " trial DMs, " << cli.get("chunk-seconds")
            << " s chunks (overlap " << chunk_plan.max_delay()
            << " samples), config " << config.to_string() << " ==\n";

  // The full synthetic observation: noise plus a dispersed pulsar.
  sky::PulsarParams pulsar;
  pulsar.dm = true_dm;
  pulsar.period_s = 0.25;
  pulsar.width_s = 0.0002;
  pulsar.amplitude = 2.0;
  sky::NoiseParams noise;
  noise.sigma = 1.0;
  const Array2D<float> data =
      sky::make_observation_data(obs, batch_plan.in_samples(), pulsar, noise);

  // Sink: one line per chunk with its strongest candidate.
  TextTable chunks({"chunk", "window [s]", "best DM", "peak S/N",
                    "compute", "latency"});
  stream::StreamingOptions opts;
  opts.engine = cli.get("engine");
  opts.detect = true;
  opts.cpu.threads = static_cast<std::size_t>(cli.get_int("threads"));
  // The tile shape parameterizes the tiled engines; any other engine bends
  // it onto its own axes (or its defaults).
  const engine::EngineConfig engine_config =
      engine::make_engine(opts.engine)
          ->adapt_config(chunk_plan, engine::encode_kernel_config(config));
  stream::StreamingDedisperser session(
      chunk_plan, engine_config,
      [&](const stream::StreamChunk& chunk) {
        const double t0 =
            static_cast<double>(chunk.first_sample) / obs.sampling_rate();
        const double t1 = t0 + chunk.timing.data_seconds;
        chunks.add_row(
            {std::to_string(chunk.index),
             TextTable::num(t0, 2) + " - " + TextTable::num(t1, 2),
             TextTable::num(obs.dm_value(chunk.detection->best_trial), 2),
             TextTable::num(chunk.detection->best_snr, 1),
             TextTable::num(chunk.timing.compute_seconds * 1e3, 1) + " ms",
             TextTable::num(chunk.timing.latency_seconds * 1e3, 1) + " ms"});
      },
      opts);

  // Producer: a receiver thread pushing survey-granularity blocks (10 ms)
  // into the bounded ring; the ring's capacity bound is the backpressure
  // that surfaces a consumer that cannot keep up.
  stream::SampleRing ring(obs.channels(), ring_samples);
  std::thread producer([&] {
    const std::size_t block = obs.samples_per_second() / 100;
    std::size_t t = 0;
    while (t < data.cols()) {
      const std::size_t n = std::min(block, data.cols() - t);
      ring.push(ConstView2D<float>(&data.cview()(0, t), data.rows(), n,
                                   data.pitch()));
      t += n;
    }
    ring.close();
  });

  session.consume(ring);
  producer.join();
  session.close();
  chunks.print(std::cout);

  const stream::LatencyReport report = session.latency();
  std::cout << "\nsession: " << report.chunks << " chunks, "
            << TextTable::num(report.data_seconds, 2) << " s of sky in "
            << TextTable::num(report.compute_seconds, 3)
            << " s of compute\nlatency p50/p95/p99: "
            << TextTable::num(report.p50_latency * 1e3, 1) << " / "
            << TextTable::num(report.p95_latency * 1e3, 1) << " / "
            << TextTable::num(report.p99_latency * 1e3, 1)
            << " ms\nreal-time margin: "
            << TextTable::num(report.real_time_margin, 1)
            << "x (keeps up: " << (report.real_time_margin > 1.0 ? "yes" : "NO")
            << "); measured seconds per data second "
            << TextTable::num(report.seconds_per_data_second, 4) << "\n";
  return 0;
}
