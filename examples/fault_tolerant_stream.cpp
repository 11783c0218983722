/// Fault-tolerant streaming demo: the supervised session surviving the
/// failures an unsupervised one would die on.
///
/// The same synthetic-pulsar stream as streaming_search, but with the
/// watchdog ladder enabled (retry → skip-with-gap → degrade) and faults
/// injected at scripted points through the deterministic failpoint
/// framework (resilience/fault_injection.hpp), in three acts:
///
///   act 1  clean streaming on the tiled engine;
///   act 2  a single transient glitch — absorbed by rung 1 (retry), the
///          sink never notices;
///   act 3  a brownout (six consecutive chunk-compute failures) — retries
///          exhaust, chunks are skipped with their gaps accounted (rung 2),
///          and after two consecutive skips the session degrades to the
///          subband engine (rung 3) and finishes the stream there.
///
/// The session ends alive: the health snapshot names every gap and the
/// engine switch, and the latency report separates observation time lost
/// to gaps from the time actually processed.
///
///   ./fault_tolerant_stream [--dms 64] [--dm 4.5] [--seconds 3]
///                           [--chunk-seconds 0.25] [--threads 0]

#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dedisp/plan.hpp"
#include "resilience/fault_injection.hpp"
#include "sky/detection.hpp"
#include "sky/signal.hpp"
#include "stream/streaming_dedisperser.hpp"

int main(int argc, char** argv) {
  using namespace ddmc;
  Cli cli("fault_tolerant_stream",
          "supervised streaming under injected faults: retry, skip, degrade");
  cli.add_option("dms", "number of trial DMs", "64");
  cli.add_option("dm", "true pulsar dispersion measure [pc/cm^3]", "4.5");
  cli.add_option("seconds", "seconds of data to stream", "3");
  cli.add_option("chunk-seconds", "output chunk length in seconds", "0.25");
  cli.add_option("threads", "kernel worker threads (0 = machine-sized)", "0");
  if (!cli.parse(argc, argv)) return 0;

  const sky::Observation obs = sky::apertif();
  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const auto seconds = static_cast<std::size_t>(cli.get_int("seconds"));
  const auto chunk_samples = static_cast<std::size_t>(
      cli.get_double("chunk-seconds") * obs.sampling_rate());
  const double true_dm = cli.get_double("dm");

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
  const std::size_t chunks_expected = total_out / chunk_plan.out_samples();

  sky::PulsarParams pulsar;
  pulsar.dm = true_dm;
  pulsar.period_s = 0.25;
  pulsar.width_s = 0.0002;
  pulsar.amplitude = 2.0;
  sky::NoiseParams noise;
  noise.sigma = 1.0;
  const Array2D<float> data =
      sky::make_observation_data(obs, batch_plan.in_samples(), pulsar, noise);

  // Supervised session, synchronous: chunks run inline on the pushing
  // thread, so the acts below arm their faults at deterministic stream
  // positions. The watchdog ladder: 1 retry, then skip with gap
  // accounting, then degrade after 2 consecutive skipped chunks.
  stream::StreamingOptions opts;
  opts.engine = "cpu_tiled";
  opts.detect = true;
  opts.async = false;
  opts.cpu.threads = static_cast<std::size_t>(cli.get_int("threads"));
  opts.supervision.enabled = true;
  opts.supervision.max_chunk_retries = 1;
  opts.supervision.skip_failed_chunks = true;
  opts.supervision.degrade_after = 2;

  TextTable chunks({"chunk", "window [s]", "best DM", "peak S/N", "compute"});
  stream::StreamingDedisperser session(
      chunk_plan, engine::encode_kernel_config(config),
      [&](const stream::StreamChunk& chunk) {
        const double t0 =
            static_cast<double>(chunk.first_sample) / obs.sampling_rate();
        const double t1 = t0 + chunk.timing.data_seconds;
        chunks.add_row(
            {std::to_string(chunk.index),
             TextTable::num(t0, 2) + " - " + TextTable::num(t1, 2),
             TextTable::num(obs.dm_value(chunk.detection->best_trial), 2),
             TextTable::num(chunk.detection->best_snr, 1),
             TextTable::num(chunk.timing.compute_seconds * 1e3, 1) + " ms"});
      },
      opts);

  std::cout << "== supervised streaming of " << seconds << " s of "
            << obs.name() << ", " << dms << " trial DMs, ~" << chunks_expected
            << " chunks, engine " << opts.engine
            << " (fallback: auto-selected) ==\n";

  // The script: feed in receiver-sized blocks, advancing the acts by how
  // many chunks the session has processed (emitted + skipped) so far.
  auto& faults = resilience::FaultInjector::instance();
  const std::size_t block = obs.samples_per_second() / 100;
  std::size_t fed = 0;
  int act = 1;
  while (fed < data.cols()) {
    const resilience::StreamHealth h = session.health();
    const std::size_t processed = h.chunks_emitted + h.chunks_skipped;
    if (act == 1 && processed >= chunks_expected / 3) {
      std::cout << "\n-- act 2: injecting one transient chunk failure --\n";
      resilience::FaultSpec glitch;  // fires once; the retry lands
      glitch.max_fires = 1;
      faults.arm("stream.chunk", glitch);
      act = 2;
    } else if (act == 2 && processed >= 2 * chunks_expected / 3) {
      std::cout << "\n-- act 3: brownout, 6 consecutive compute failures --\n";
      resilience::FaultSpec brownout;  // outlasts every chunk's retry budget
      brownout.max_fires = 6;
      faults.arm("stream.chunk", brownout);
      act = 3;
    }
    const std::size_t n = std::min(block, data.cols() - fed);
    session.push(ConstView2D<float>(&data.cview()(0, fed), data.rows(), n,
                                    data.pitch()));
    fed += n;
  }
  faults.disarm_all();
  session.close();
  std::cout << "\n";
  chunks.print(std::cout);

  const resilience::StreamHealth health = session.health();
  const stream::LatencyReport report = session.latency();
  std::cout << "\nsession health: " << health.chunks_emitted
            << " chunks emitted, " << health.retries << " retr"
            << (health.retries == 1 ? "y" : "ies") << " absorbed, "
            << health.chunks_skipped << " skipped, " << health.degradations
            << " engine switch(es); active engine: " << health.active_engine
            << (health.degraded ? " (degraded)" : "") << "\n";
  for (const resilience::ChunkGap& gap : health.gaps) {
    std::cout << "  gap: chunk " << gap.index << " (samples "
              << gap.first_sample << " - "
              << gap.first_sample + gap.out_samples - 1 << ") lost\n";
  }
  std::cout << "data processed: " << TextTable::num(report.data_seconds, 2)
            << " s; lost to gaps: "
            << TextTable::num(report.gap_data_seconds, 2) << " s ("
            << report.gap_chunks << " chunks)\nreal-time margin over the "
            << "processed data: " << TextTable::num(report.real_time_margin, 1)
            << "x\n\nan unsupervised session would have died at the first "
            << "injected failure;\nthis one finished the observation on the "
            << "fallback engine with every gap accounted.\n";
  return 0;
}
