/// Real measured throughput of the host kernels on this machine: the
/// sequential reference, the §V-D-style CPU baseline, and the tiled kernel
/// in its scalar (seed) and SIMD engines across representative kernel
/// configurations plus a channel_block × unroll grid. This is the "actually
/// runs" half of the repository — wall-clock, not modeled.
///
/// The workload is a reduced Apertif instance (full channel count, reduced
/// output window) so a run completes in seconds on a laptop-class CPU.
///
///   ./bench_host_kernels [--dms 32] [--out-samples 2000] [--reps 3]
///                        [--threads 1] [--json BENCH_host_kernels.json]
///
/// The JSON output records GFLOP/s per entry, for tiled entries how many
/// of their (tile, channel block) pairs stage their input rows, and a
/// summary with the tuned-SIMD-over-seed-scalar speedup — the number the
/// perf trajectory tracks across PRs.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/array2d.hpp"
#include "common/expect.hpp"
#include "common/random.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "dedisp/cpu_baseline.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/quantize.hpp"
#include "dedisp/reference.hpp"
#include "sky/observation.hpp"

namespace {

using namespace ddmc;

struct Entry {
  std::string name;
  std::string engine;  // "reference", "baseline", "scalar", "simd", "simd_u8"
  dedisp::KernelConfig config;
  bool tiled = false;
  dedisp::StagingTally staging;  // tiled rows: (tile, channel block) pairs
  std::size_t elem_bytes = sizeof(float);  // stored input sample size
  double seconds = 0.0;
  double gflops = 0.0;
  double bytes = 0.0;  // analytic bytes moved: elem·c·in + 4·d·out
  double gbps = 0.0;
};

template <typename Fn>
double time_mean_seconds(Fn&& fn, std::size_t reps) {
  fn();  // warmup
  double total = 0.0;
  for (std::size_t i = 0; i < reps; ++i) {
    Stopwatch clock;
    fn();
    total += clock.seconds();
  }
  return total / static_cast<double>(reps);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_host_kernels",
          "measured throughput of the host dedispersion kernels");
  cli.add_option("dms", "number of trial DMs", "32");
  cli.add_option("out-samples", "output window in samples", "2000");
  cli.add_option("reps", "timed repetitions per kernel", "3");
  cli.add_option("threads", "worker threads (1 = inline)", "1");
  cli.add_option("json", "write machine-readable results to this path", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const auto out_samples =
      static_cast<std::size_t>(cli.get_int("out-samples"));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  // Resolved once, as an engine does: no timed call spawns a thread.
  const WorkerPool workers(threads);

  const dedisp::Plan plan =
      dedisp::Plan::with_output_samples(sky::apertif(), dms, out_samples);
  Array2D<float> input(plan.channels(), plan.in_samples());
  Rng rng(1234);
  for (std::size_t ch = 0; ch < input.rows(); ++ch) {
    for (auto& v : input.row(ch)) v = rng.next_float(-1.0f, 1.0f);
  }
  Array2D<float> output(plan.dms(), plan.out_samples());
  const double flop = plan.total_flop();

  // Analytic bytes-moved floor at a given stored input sample size: the
  // whole input plane read once plus the float output written once. The
  // u8 kernel's input term is a quarter of the float kernels' — the
  // number this bench exists to make visible next to GFLOP/s.
  auto bytes_moved = [&](std::size_t elem_bytes) {
    return static_cast<double>(elem_bytes) *
               static_cast<double>(plan.channels()) *
               static_cast<double>(plan.in_samples()) +
           4.0 * static_cast<double>(plan.dms()) *
               static_cast<double>(plan.out_samples());
  };

  std::vector<Entry> entries;
  auto record = [&](Entry e, double seconds) {
    e.seconds = seconds;
    e.gflops = flop / seconds * 1e-9;
    e.bytes = bytes_moved(e.elem_bytes);
    e.gbps = e.bytes / seconds * 1e-9;
    entries.push_back(std::move(e));
  };

  // Ground truth and the §V-D comparator.
  record({"reference", "reference"}, time_mean_seconds([&] {
           dedisp::dedisperse_reference(plan, input.cview(), output.view());
         }, reps));
  record({"cpu_baseline", "baseline"}, time_mean_seconds([&] {
           dedisp::dedisperse_cpu_baseline(plan, input.cview(), output.view(),
                                           {}, workers.get());
         }, reps));

  // The seed bench's representative tile shapes.
  const std::vector<dedisp::KernelConfig> shapes = {
      {100, 1, 1, 1},  // thin tiles, no reuse window (the seed default)
      {100, 1, 4, 4},  // 4x4 elements per item
      {25, 4, 4, 4},   // square-ish tile
      {10, 8, 10, 4},  // DM-deep tile, maximal reuse window
  };

  auto run_tiled = [&](const dedisp::KernelConfig& cfg, bool vectorize) {
    dedisp::CpuKernelOptions opt;
    opt.vectorize = vectorize;
    return time_mean_seconds([&] {
      dedisp::dedisperse_cpu(plan, cfg, input.cview(), output.view(), opt,
                             workers.get());
    }, reps);
  };
  auto tiled_entry = [&](std::string name, std::string engine,
                         const dedisp::KernelConfig& cfg) {
    Entry e;
    e.name = std::move(name) + " " + cfg.to_string();
    e.engine = std::move(engine);
    e.config = cfg;
    e.tiled = true;
    e.staging = dedisp::staging_tally(plan.delays().view(),
                                      plan.out_samples(), cfg);
    return e;
  };
  auto add_tiled = [&](const dedisp::KernelConfig& cfg, bool vectorize) {
    if (!cfg.divides(plan)) {
      std::cout << "skipping " << cfg.to_string()
                << " (tiles do not divide this plan)\n";
      return;
    }
    record(tiled_entry(vectorize ? "tiled_simd" : "tiled_scalar",
                       vectorize ? "simd" : "scalar", cfg),
           run_tiled(cfg, vectorize));
  };

  // Scalar engine (the seed's inner loop) over the seed shapes — the
  // pre-SIMD, pre-tuning baseline.
  for (const auto& cfg : shapes) add_tiled(cfg, false);

  // SIMD engine over the same shapes (like-for-like), then the widened
  // tuner axes: channel_block × unroll on every shape.
  for (const auto& cfg : shapes) add_tiled(cfg, true);
  for (const auto& base : shapes) {
    for (std::size_t cb : {std::size_t{64}, std::size_t{256}}) {
      for (std::size_t un : {std::size_t{1}, std::size_t{4}}) {
        dedisp::KernelConfig cfg = base;
        cfg.channel_block = cb;
        cfg.unroll = un;
        add_tiled(cfg, true);
      }
    }
  }

  // The quantized u8 kernel over the same shapes: same tiling, a quarter
  // of the input bytes streamed (samples stay one byte until the register
  // tile widens them).
  {
    const dedisp::QuantizationParams quant;
    const Array2D<std::uint8_t> qplane =
        dedisp::quantize_plane(plan, input.cview(), quant);
    for (const auto& cfg : shapes) {
      if (!cfg.divides(plan)) continue;
      Entry e = tiled_entry("tiled_u8", "simd_u8", cfg);
      e.elem_bytes = sizeof(std::uint8_t);
      record(std::move(e), time_mean_seconds([&] {
               dedisp::dedisperse_cpu_u8(plan, cfg, qplane.cview(), quant,
                                         output.view(), {}, workers.get());
             }, reps));
    }
  }

  // Tuned = best SIMD entry of the grid above; seed = the scalar engine on
  // the seed's default thin-tile shape.
  const Entry* seed_scalar = nullptr;
  const Entry* best_scalar = nullptr;
  const Entry* best_simd = nullptr;
  for (const Entry& e : entries) {
    if (e.engine == "scalar") {
      if (!seed_scalar) seed_scalar = &e;  // first scalar entry = seed shape
      if (!best_scalar || e.gflops > best_scalar->gflops) best_scalar = &e;
    }
    if (e.engine == "simd" &&
        (!best_simd || e.gflops > best_simd->gflops)) {
      best_simd = &e;
    }
  }

  DDMC_REQUIRE(seed_scalar != nullptr && best_simd != nullptr,
               "no tiled shape divides this plan; pick --dms/--out-samples "
               "with more divisors");

  std::cout << "== measured host kernels, Apertif-reduced, " << dms
            << " DMs x " << out_samples << " samples, "
            << plan.channels() << " channels, simd backend "
            << simd::backend_name() << " ==\n\n";
  // "staged" counts the (tile, channel block) pairs whose rows the kernel
  // copied before reading (dedisp::staging_pays); the rest read in place.
  TextTable table({"kernel", "staged", "GFLOP/s", "ms", "MB moved", "GB/s"});
  for (const Entry& e : entries) {
    table.add_row({e.name,
                   e.tiled ? std::to_string(e.staging.staged) + "/" +
                                 std::to_string(e.staging.blocks)
                           : "-",
                   TextTable::num(e.gflops, 2),
                   TextTable::num(e.seconds * 1e3, 1),
                   TextTable::num(e.bytes * 1e-6, 1),
                   TextTable::num(e.gbps, 2)});
  }
  table.print(std::cout);
  std::cout << "\nseed scalar (tiled " << seed_scalar->config.to_string()
            << "): " << TextTable::num(seed_scalar->gflops, 2)
            << " GFLOP/s\nbest scalar: "
            << TextTable::num(best_scalar->gflops, 2)
            << " GFLOP/s\ntuned SIMD (" << best_simd->config.to_string()
            << "): " << TextTable::num(best_simd->gflops, 2)
            << " GFLOP/s\nspeedup tuned SIMD vs seed scalar: "
            << TextTable::num(best_simd->gflops / seed_scalar->gflops, 2)
            << "x\nspeedup tuned SIMD vs best scalar: "
            << TextTable::num(best_simd->gflops / best_scalar->gflops, 2)
            << "x\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    bench::JsonArray arr;
    for (const Entry& e : entries) {
      bench::JsonObject o;
      o.set("name", e.name).set("engine", e.engine);
      if (e.tiled) {
        o.set("wi_time", e.config.wi_time)
            .set("wi_dm", e.config.wi_dm)
            .set("elem_time", e.config.elem_time)
            .set("elem_dm", e.config.elem_dm)
            .set("channel_block", e.config.channel_block)
            .set("unroll", e.config.unroll)
            .set("staged_blocks", e.staging.staged)
            .set("tile_blocks", e.staging.blocks);
      }
      o.set("seconds", e.seconds)
          .set("gflops", e.gflops)
          .set("input_element_bytes", e.elem_bytes)
          .set("bytes_moved", e.bytes)
          .set("gbps", e.gbps);
      arr.add(o);
    }
    bench::JsonObject root;
    root.set("bench", "bench_host_kernels")
        .set_raw("host", bench::host_description().dump())
        .set("simd_backend", simd::backend_name())
        .set("simd_lanes", simd::kFloatLanes)
        .set("threads", threads)
        .set_raw("plan", bench::JsonObject()
                             .set("observation", "Apertif")
                             .set("dms", dms)
                             .set("out_samples", out_samples)
                             .set("channels", plan.channels())
                             .dump())
        .set_raw("entries", arr.dump())
        .set_raw("summary",
                 bench::JsonObject()
                     .set("seed_scalar_gflops", seed_scalar->gflops)
                     .set("best_scalar_gflops", best_scalar->gflops)
                     .set("tuned_simd_gflops", best_simd->gflops)
                     .set("tuned_simd_config", best_simd->config.to_string())
                     .set("speedup_tuned_simd_vs_seed_scalar",
                          best_simd->gflops / seed_scalar->gflops)
                     .set("speedup_tuned_simd_vs_best_scalar",
                          best_simd->gflops / best_scalar->gflops)
                     .dump());
    bench::write_json_file(json_path, root);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
