/// Streaming vs. batch dedispersion on this machine: what does chunked,
/// overlap-carry operation cost against the one-shot batch path, and what
/// per-chunk latency does a real-time session see?
///
/// For each chunk size the bench feeds the identical input through a
/// StreamingDedisperser (inline compute, so wall time is the work itself)
/// and reports throughput, the ratio against batch, per-chunk latency
/// percentiles, and the real-time margin — seconds of sky dedispersed per
/// wall second, the number that decides whether a survey backend keeps up.
/// Smaller chunks pay the overlap more often (each window re-stages
/// max_delay extra samples) and lose tile efficiency, which is the latency
/// ↔ throughput trade-off the chunk-size column quantifies.
///
///   ./bench_streaming [--dms 16] [--seconds 2] [--reps 3] [--threads 1]
///                     [--json BENCH_streaming.json]

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/array2d.hpp"
#include "common/random.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "sky/observation.hpp"
#include "stream/streaming_dedisperser.hpp"

namespace {

using namespace ddmc;

struct ChunkedResult {
  double chunk_seconds = 0.0;
  std::size_t chunk_samples = 0;
  std::size_t chunks = 0;
  double seconds = 0.0;  // wall time for the whole stream
  double gflops = 0.0;
  double ratio_vs_batch = 0.0;
  stream::LatencyReport latency;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_streaming",
          "chunked streaming vs batch dedispersion throughput and latency");
  cli.add_option("dms", "number of trial DMs", "16");
  cli.add_option("seconds", "seconds of data to stream", "2");
  cli.add_option("reps", "timed repetitions", "3");
  cli.add_option("threads", "worker threads (1 = inline)", "1");
  cli.add_option("json", "write machine-readable results to this path", "");
  cli.add_flag("async", "pipeline chunks over compute and delivery threads "
                        "instead of running them inline on the feeding "
                        "thread");
  if (!cli.parse(argc, argv)) return 0;

  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const auto seconds = static_cast<std::size_t>(cli.get_int("seconds"));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));

  const sky::Observation obs = sky::apertif();
  const std::size_t total_out = seconds * obs.samples_per_second();
  const dedisp::Plan batch_plan =
      dedisp::Plan::with_output_samples(obs, dms, total_out);

  // The PR-1 host-sweep optimum shape; tile_time = 200 divides every chunk
  // size below and tile_dm = 4 divides the default DM count.
  dedisp::KernelConfig config{50, 2, 4, 2, 32, 4};
  DDMC_REQUIRE(config.divides(batch_plan),
               "pick --dms/--seconds the 200x4 tile divides");

  Array2D<float> input(batch_plan.channels(), batch_plan.in_samples());
  Rng rng(1234);
  for (std::size_t ch = 0; ch < input.rows(); ++ch) {
    for (auto& v : input.row(ch)) v = rng.next_float(-1.0f, 1.0f);
  }
  const double flop = batch_plan.total_flop();

  dedisp::CpuKernelOptions cpu;
  cpu.threads = threads;
  const WorkerPool workers(threads);

  // Batch reference: the one-shot path the streaming session must match.
  Array2D<float> batch_out(batch_plan.dms(), batch_plan.out_samples());
  auto run_batch = [&] {
    dedisp::dedisperse_cpu(batch_plan, config, input.cview(),
                           batch_out.view(), cpu, workers.get());
  };
  run_batch();  // warmup
  double batch_seconds = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    Stopwatch clock;
    run_batch();
    batch_seconds += clock.seconds();
  }
  batch_seconds /= static_cast<double>(reps);
  const double batch_gflops = flop / batch_seconds * 1e-9;

  // Chunked runs across the survey-relevant chunk ladder.
  const std::vector<double> chunk_ladder = {0.05, 0.1, 0.25, 1.0};
  std::vector<ChunkedResult> results;
  for (double chunk_s : chunk_ladder) {
    const auto chunk_samples = static_cast<std::size_t>(
        chunk_s * static_cast<double>(obs.samples_per_second()));
    if (chunk_samples == 0 || chunk_samples > total_out) continue;

    ChunkedResult res;
    res.chunk_seconds = chunk_s;
    res.chunk_samples = chunk_samples;

    stream::StreamingOptions opts;
    opts.cpu = cpu;
    // Default inline: big feeds ride the zero-copy fast path, so this
    // measures the chunked kernel work itself. --async moves chunks to the
    // compute thread (the ragged-feed deployment shape), which copies each
    // window once into the chunker, contending with the memory-bound
    // kernel.
    opts.async = cli.get_flag("async");

    auto run_stream = [&](bool keep_latency) {
      stream::StreamingDedisperser session(
          batch_plan.with_chunk(chunk_samples),
          engine::encode_kernel_config(config), nullptr, opts);
      Stopwatch clock;
      session.push(input.cview());
      session.close();
      const double wall = clock.seconds();
      if (keep_latency) {
        res.latency = session.latency();
        res.chunks = session.chunks_emitted();
      }
      return wall;
    };
    run_stream(false);  // warmup
    double total = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      total += run_stream(r + 1 == reps);
    }
    res.seconds = total / static_cast<double>(reps);
    res.gflops = flop / res.seconds * 1e-9;
    res.ratio_vs_batch = res.gflops / batch_gflops;
    results.push_back(res);
  }
  DDMC_REQUIRE(!results.empty(), "no chunk size fits --seconds");

  std::cout << "== streaming vs batch, " << obs.name() << ", " << dms
            << " DMs x " << seconds << " s (" << total_out
            << " samples), overlap " << batch_plan.max_delay()
            << " samples, config " << config.to_string() << ", threads "
            << threads << ", simd " << simd::backend_name() << " ==\n\n"
            << "batch: " << TextTable::num(batch_gflops, 2) << " GFLOP/s ("
            << TextTable::num(batch_seconds * 1e3, 1) << " ms)\n\n";

  TextTable table({"chunk", "chunks", "GFLOP/s", "vs batch", "p50", "p95",
                   "p99", "margin"});
  for (const ChunkedResult& r : results) {
    table.add_row({TextTable::num(r.chunk_seconds, 2) + " s",
                   std::to_string(r.chunks), TextTable::num(r.gflops, 2),
                   TextTable::num(r.ratio_vs_batch * 100.0, 1) + "%",
                   TextTable::num(r.latency.p50_latency * 1e3, 2) + " ms",
                   TextTable::num(r.latency.p95_latency * 1e3, 2) + " ms",
                   TextTable::num(r.latency.p99_latency * 1e3, 2) + " ms",
                   TextTable::num(r.latency.real_time_margin, 1) + "x"});
  }
  table.print(std::cout);
  std::cout << "\n(margin = seconds of sky per wall second; > 1 keeps up "
               "in real time)\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    bench::JsonArray arr;
    for (const ChunkedResult& r : results) {
      arr.add(bench::JsonObject()
                  .set("chunk_seconds", r.chunk_seconds)
                  .set("chunk_samples", r.chunk_samples)
                  .set("chunks", r.chunks)
                  .set("seconds", r.seconds)
                  .set("gflops", r.gflops)
                  .set("ratio_vs_batch", r.ratio_vs_batch)
                  .set("p50_latency_s", r.latency.p50_latency)
                  .set("p95_latency_s", r.latency.p95_latency)
                  .set("p99_latency_s", r.latency.p99_latency)
                  .set("max_latency_s", r.latency.max_latency)
                  .set("real_time_margin", r.latency.real_time_margin)
                  .set("seconds_per_data_second",
                       r.latency.seconds_per_data_second));
    }
    bench::JsonObject root;
    root.set("bench", "bench_streaming")
        .set("simd_backend", simd::backend_name())
        .set("threads", threads)
        .set("config", config.to_string())
        .set_raw("plan", bench::JsonObject()
                             .set("observation", obs.name())
                             .set("dms", dms)
                             .set("seconds", seconds)
                             .set("out_samples", total_out)
                             .set("channels", batch_plan.channels())
                             .set("overlap_samples", batch_plan.max_delay())
                             .dump())
        .set_raw("batch", bench::JsonObject()
                              .set("seconds", batch_seconds)
                              .set("gflops", batch_gflops)
                              .dump())
        .set_raw("chunked", arr.dump());
    bench::write_json_file(json_path, root);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
