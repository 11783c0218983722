/// Engine-matrix throughput: every registered engine under one harness.
///
/// The paper's point is that no single implementation wins everywhere; the
/// registry makes "which engine" a runtime choice, and this bench is the
/// number behind that choice on *this* machine. For each registered engine
/// it runs the identical Apertif-default scenario (same plan, same input),
/// reports measured GFLOP/s on the paper's metric (plan FLOPs / wall
/// seconds, so approximation engines that do less work score higher), and
/// records a perf-model estimate next to every measurement — this container
/// has one CPU, so modeled numbers are what transfer to real hardware.
///
/// Bitwise-exact engines are differentially checked against the reference
/// output before timing.
///
/// A second act sweeps the trial count and races every tunable engine at
/// each point (cpu_tiled, cpu_tiled_u8, subband, fdmt, each on its
/// bench-native config): the fdmt engine's asymptotic win only pays above
/// some number of DM trials, and whether it pays against the best engine
/// for the plan — not only against brute force — is a property of this
/// machine worth recording next to the single-scenario matrix. Each engine
/// runs at 1 and at 4 threads, one engine object per thread count (so its
/// pool is built once, outside the timing), and the sweep reports the
/// median and minimum of at least five calls for both, plus every point
/// where the 4-thread call is slower than the 1-thread one. The race
/// itself is decided at 1 thread.
///
///   ./bench_engine_matrix [--dms 64] [--out-samples 10000] [--reps 3]
///                         [--sweep-dms 16,64,256,1024] [--json out.json]

#include <algorithm>
#include <cmath>
#include <iostream>
#include <iterator>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/array2d.hpp"
#include "common/random.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "dedisp/fdmt.hpp"
#include "dedisp/quantize.hpp"
#include "dedisp/subband.hpp"
#include "engine/registry.hpp"
#include "ocl/device_presets.hpp"
#include "ocl/perf_model.hpp"
#include "sky/observation.hpp"

namespace {

using namespace ddmc;

struct EngineResult {
  std::string id;
  std::string variant;
  engine::EngineCapabilities caps;
  std::string config;  ///< the executed EngineConfig, engine-native axes
  double seconds = 0.0;
  double gflops = 0.0;
  double bytes = 0.0;  ///< per-run bytes moved as stamped by execute()
  double gbps = 0.0;   ///< bytes / wall seconds
  double modeled_gflops = 0.0;
  std::string modeled_note;
};

/// Thread counts every swept engine runs at: inline, and a pool of four.
constexpr std::size_t kSweepThreads[] = {1, 4};

/// Median and minimum wall seconds of repeated calls.
struct Timing {
  double median = 0.0;
  double min = 0.0;
};

/// One trial-count point of the sweep: per raced engine, in race order,
/// its timing at each of kSweepThreads.
struct SweepPoint {
  struct Entry {
    std::string id;
    bool threaded = false;  ///< false: every thread count runs inline
    Timing at[std::size(kSweepThreads)];
  };
  std::size_t dms = 0;
  std::vector<Entry> entries;

  /// Best 1-thread seconds of \p id: what the race compares.
  double of(const std::string& id) const {
    for (const Entry& e : entries) {
      if (e.id == id) return e.at[0].min;
    }
    return std::numeric_limits<double>::infinity();
  }
  const std::string& winner() const {
    return std::min_element(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.at[0].min < b.at[0].min;
                            })
        ->id;
  }
};

/// Smallest swept trial count at which \p pred holds; 0 when it never does.
template <typename Pred>
std::size_t first_dms(const std::vector<SweepPoint>& sweep, Pred pred) {
  for (const SweepPoint& p : sweep) {
    if (pred(p)) return p.dms;
  }
  return 0;
}

/// "16,64,256" -> {16, 64, 256}; empty string -> empty list (sweep off).
std::vector<std::size_t> parse_dm_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(static_cast<std::size_t>(std::stoul(item)));
  }
  return out;
}

/// The fdmt engine's native configuration for this bench: the default
/// split with the cache-blocking knob at its default, gcd-adapted so any
/// plan size runs.
engine::EngineConfig fdmt_native_config(const dedisp::Plan& plan,
                                        const engine::DedispEngine& eng) {
  engine::EngineConfig cfg;
  cfg.set("subbands", 32).set("coarse_step", 16).set("block", 2048);
  return eng.adapt_config(plan, cfg);
}

/// Median and minimum wall seconds of \p reps calls of \p eng on
/// \p config, after one untimed call: engines that keep workspaces size
/// them on their first call, like a session's first chunk. The minimum is
/// the noise-robust comparator on a shared host; the median shows the
/// spread next to it.
Timing time_calls(const engine::DedispEngine& eng, const dedisp::Plan& plan,
                  const engine::EngineConfig& config, ConstView2D<float> in,
                  View2D<float> out, std::size_t reps) {
  eng.execute(plan, config, in, out);
  std::vector<double> seconds;
  for (std::size_t r = 0; r < reps; ++r) {
    Stopwatch clock;
    eng.execute(plan, config, in, out);
    seconds.push_back(clock.seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  const std::size_t n = seconds.size();
  return {(seconds[(n - 1) / 2] + seconds[n / 2]) / 2.0, seconds.front()};
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_engine_matrix",
          "throughput of every registered engine on one scenario");
  cli.add_option("dms", "number of trial DMs", "64");
  cli.add_option("out-samples", "output samples per trial", "10000");
  cli.add_option("reps", "timed repetitions", "3");
  cli.add_option("sweep-dms",
                 "comma-separated trial counts for the engine race sweep "
                 "(empty: skip)",
                 "16,64,256,1024");
  cli.add_option("json", "write machine-readable results to this path", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const auto out_samples =
      static_cast<std::size_t>(cli.get_int("out-samples"));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));

  const sky::Observation obs = sky::apertif();
  const dedisp::Plan plan =
      dedisp::Plan::with_output_samples(obs, dms, out_samples);
  const double flop = plan.total_flop();

  // Tunable engines run their host-sweep optimum shape; the others ignore
  // the tile shape and take the always-valid 1×1 point. The optima differ
  // per engine — the u8 kernel packs 4× the samples per vector, which
  // shifts the register-tile and cache-block sweet spots (more DMs per
  // tile, a far larger channel block) — which is exactly why the engine id
  // is a tuning-cache signature axis.
  dedisp::KernelConfig tuned{50, 2, 4, 2, 32, 4};        // cpu_tiled (PR 1)
  dedisp::KernelConfig tuned_u8{125, 1, 8, 8, 128, 4};   // cpu_tiled_u8
  if (!tuned.divides(plan)) tuned = dedisp::KernelConfig{1, 1, 1, 1, 32, 4};
  if (!tuned_u8.divides(plan)) tuned_u8 = tuned;

  // One shared input, wide enough for the largest declared input_padding.
  std::size_t max_padding = 0;
  for (const std::string& id : engine::EngineRegistry::instance().ids()) {
    max_padding = std::max(
        max_padding, engine::make_engine(id)->capabilities().input_padding);
  }
  Array2D<float> input(plan.channels(), plan.in_samples() + max_padding);
  Rng rng(99);
  for (std::size_t ch = 0; ch < input.rows(); ++ch) {
    for (auto& v : input.row(ch)) v = rng.next_float(-1.0f, 1.0f);
  }

  // Perf-model anchor: the §V-D CPU model for the host engines.
  const ocl::DeviceModel cpu_model = ocl::intel_xeon_e5_2620();
  const double cpu_model_gflops =
      ocl::estimate_cpu_baseline(cpu_model, plan).gflops;

  Array2D<float> reference_out(plan.dms(), plan.out_samples());
  engine::make_engine("reference")
      ->execute(plan, engine::EngineConfig{}, input.cview(),
                reference_out.view());

  std::vector<EngineResult> results;
  for (const std::string& id : engine::EngineRegistry::instance().ids()) {
    const auto eng = engine::make_engine(id);
    EngineResult res;
    res.id = id;
    res.variant = eng->variant();
    res.caps = eng->capabilities();
    // The tiled engines run their tuned shape and fdmt its own native
    // split/block configuration; every other engine runs its defaults
    // (the empty config).
    engine::EngineConfig native;
    if (id == "fdmt") {
      native = fdmt_native_config(plan, *eng);
    } else if (id == "cpu_tiled") {
      native = engine::encode_kernel_config(tuned);
    } else if (id == "cpu_tiled_u8") {
      native = engine::encode_kernel_config(tuned_u8);
    }
    res.config = native.to_string();

    Array2D<float> out(plan.dms(), plan.out_samples());
    const engine::EngineRun warmup =
        eng->execute(plan, native, input.cview(), out.view());
    res.bytes = warmup.bytes;  // element-size-aware analytic bytes
    if (res.caps.bitwise_exact) {
      for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
        for (std::size_t t = 0; t < plan.out_samples(); ++t) {
          DDMC_REQUIRE(out(dm, t) == reference_out(dm, t),
                       "engine '" + id + "' diverged from the reference");
        }
      }
    } else if (id == "cpu_tiled_u8") {
      // Not bitwise, but the quantization error bound is documented —
      // enforce it differentially like the exact engines.
      const double bound =
          dedisp::quantization_error_bound(plan, eng->options().quant);
      for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
        for (std::size_t t = 0; t < plan.out_samples(); ++t) {
          DDMC_REQUIRE(std::abs(out(dm, t) - reference_out(dm, t)) <= bound,
                       "engine '" + id +
                           "' exceeded its quantization error bound");
        }
      }
    } else if (id == "fdmt") {
      // Not bitwise either, but the transform's error bound is documented
      // — enforce it differentially like the quantized engine's.
      const double bound =
          dedisp::fdmt_error_bound(plan, eng->options().subband,
                                   /*max_abs=*/1.0);
      for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
        for (std::size_t t = 0; t < plan.out_samples(); ++t) {
          DDMC_REQUIRE(std::abs(out(dm, t) - reference_out(dm, t)) <= bound,
                       "engine '" + id +
                           "' exceeded its documented error bound");
        }
      }
    }
    double total = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      Stopwatch clock;
      eng->execute(plan, native, input.cview(), out.view());
      total += clock.seconds();
    }
    res.seconds = total / static_cast<double>(reps);
    res.gflops = flop / res.seconds * 1e-9;
    res.gbps = res.bytes / res.seconds * 1e-9;

    if (id == "subband") {
      // The §V-D CPU model scaled by the two-stage flop reduction (the
      // paper metric credits the full brute-force FLOPs either way). Use
      // the same gcd-adapted split the engine actually ran — the default
      // {32, 16} need not divide small plans.
      const double ratio =
          flop / dedisp::subband_flop(
                     plan, eng->options().subband.adapted_to(plan));
      res.modeled_gflops = cpu_model_gflops * ratio;
      res.modeled_note = cpu_model.name + " model x two-stage flop ratio";
    } else if (id == "fdmt") {
      // Same idea for the transform: the CPU model scaled by how many
      // fewer operations the Fourier path performs than brute force on
      // this plan (a ratio < 1 at low trial counts — the transform's
      // fixed FFT cost — and > 1 once the rotation savings dominate).
      const dedisp::FdmtConfig cfg{eng->options().subband.adapted_to(plan),
                                   2048};
      const double ratio = flop / dedisp::fdmt_flop(plan, cfg);
      res.modeled_gflops = cpu_model_gflops * ratio;
      res.modeled_note = cpu_model.name + " model x transform flop ratio";
    } else {
      res.modeled_gflops = cpu_model_gflops;
      res.modeled_note = cpu_model.name + " cpu-baseline model";
    }
    results.push_back(res);
  }

  const std::size_t host_cpus =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::cout << "== engine matrix, " << obs.name() << ", " << dms << " DMs x "
            << out_samples << " samples, simd " << simd::backend_name()
            << ", host cpus " << host_cpus << " ==\n\n";

  TextTable table({"engine", "variant", "caps", "config", "ms", "GFLOP/s",
                   "MB moved", "GB/s", "modeled GFLOP/s"});
  for (const EngineResult& r : results) {
    std::string caps;
    caps += r.caps.supports_sharding ? 'S' : '-';
    caps += r.caps.supports_streaming ? 's' : '-';
    caps += r.caps.bitwise_exact ? 'B' : '-';
    caps += r.caps.tunable ? 'T' : '-';
    caps += r.caps.input_element_bytes == 1 ? 'q' : '-';
    table.add_row({r.id, r.variant, caps, r.config,
                   TextTable::num(r.seconds * 1e3, 1),
                   TextTable::num(r.gflops, 2),
                   TextTable::num(r.bytes * 1e-6, 1),
                   TextTable::num(r.gbps, 2),
                   TextTable::num(r.modeled_gflops, 2)});
  }
  table.print(std::cout);
  std::cout << "\n(caps: S=sharding s=streaming B=bitwise T=tunable "
               "q=quantized-u8-input;\n GFLOP/s credits the full "
               "brute-force FLOPs, so the approximate subband and\n "
               "quantized engines score their wall-time win; bytes moved "
               "follow each engine's\n declared input element size)\n";

  // ------------------------------------------------- DM-count crossover --
  // Race every tunable engine over a ladder of trial counts. fdmt pays a
  // fixed FFT cost but its per-trial rotation work is asymptotically
  // smaller, so it overtakes brute force somewhere along the ladder; the
  // race shows whether it also overtakes the two-stage subband engine,
  // which factors the shifts the same way without the transforms — the
  // crossover a deployment would use to pick the engine per survey size.
  const std::vector<std::size_t> sweep_dms =
      parse_dm_list(cli.get("sweep-dms"));
  std::vector<SweepPoint> sweep;
  std::vector<std::string> racers;
  for (const std::string& id : engine::EngineRegistry::instance().ids()) {
    if (engine::make_engine(id)->capabilities().tunable) racers.push_back(id);
  }
  // At least five timed calls per engine and thread count.
  const std::size_t sweep_reps = std::max<std::size_t>(reps, 5);
  if (!sweep_dms.empty()) {
    for (const std::size_t n : sweep_dms) {
      const dedisp::Plan sweep_plan =
          dedisp::Plan::with_output_samples(obs, n, out_samples);
      dedisp::KernelConfig shape = tuned;
      if (!shape.divides(sweep_plan)) {
        shape = dedisp::KernelConfig{1, 1, 1, 1, 32, 4};
      }
      dedisp::KernelConfig shape_u8 = tuned_u8;
      if (!shape_u8.divides(sweep_plan)) shape_u8 = shape;
      Array2D<float> in(sweep_plan.channels(),
                        sweep_plan.in_samples() + max_padding);
      Rng sweep_rng(7 + n);
      for (std::size_t ch = 0; ch < in.rows(); ++ch) {
        for (auto& v : in.row(ch)) v = sweep_rng.next_float(-1.0f, 1.0f);
      }
      Array2D<float> out(sweep_plan.dms(), sweep_plan.out_samples());
      SweepPoint point;
      point.dms = n;
      for (const std::string& id : racers) {
        SweepPoint::Entry entry;
        entry.id = id;
        for (std::size_t k = 0; k < std::size(kSweepThreads); ++k) {
          engine::EngineOptions options;
          options.cpu.threads = kSweepThreads[k];
          const auto eng = engine::make_engine(id, options);
          // The same native configs as the matrix above: the tuned tile
          // shapes, fdmt's native split, subband's configured default.
          engine::EngineConfig config;
          if (id == "cpu_tiled") config = engine::encode_kernel_config(shape);
          if (id == "cpu_tiled_u8") {
            config = engine::encode_kernel_config(shape_u8);
          }
          if (id == "fdmt") config = fdmt_native_config(sweep_plan, *eng);
          entry.threaded = eng->capabilities().threaded;
          entry.at[k] = time_calls(*eng, sweep_plan, config, in.cview(),
                                   out.view(), sweep_reps);
        }
        point.entries.push_back(std::move(entry));
      }
      sweep.push_back(std::move(point));
    }

    const std::size_t fdmt_wins = first_dms(
        sweep, [](const SweepPoint& p) { return p.winner() == "fdmt"; });
    const std::size_t fdmt_beats_tiled =
        first_dms(sweep, [](const SweepPoint& p) {
          return p.of("fdmt") < p.of("cpu_tiled");
        });

    std::cout << "\n== engine race per trial count, " << out_samples
              << " samples, median (min) ms of " << sweep_reps
              << " calls at 1 and 4 threads ==\n\n";
    TextTable sweep_table({"DMs", "engine", "1 thread", "4 threads",
                           "speedup (median)"});
    for (const SweepPoint& p : sweep) {
      for (const SweepPoint::Entry& e : p.entries) {
        const auto cell = [](const Timing& t) {
          return TextTable::num(t.median * 1e3, 2) + " (" +
                 TextTable::num(t.min * 1e3, 2) + ")";
        };
        sweep_table.add_row(
            {std::to_string(p.dms), e.threaded ? e.id : e.id + "*",
             cell(e.at[0]), cell(e.at[1]),
             TextTable::num(e.at[0].median / e.at[1].median, 2) + "x"});
      }
    }
    sweep_table.print(std::cout);
    const auto from = [](std::size_t dms) {
      return dms > 0 ? "from " + std::to_string(dms) + " trials"
                     : std::string("nowhere on this ladder");
    };
    std::cout << "\n(* not threaded: both columns run on one thread; at "
                 "1 thread: fdmt beats cpu_tiled "
              << from(fdmt_beats_tiled) << "; it wins the race "
              << from(fdmt_wins) << ")\n";
    std::cout << "4-thread calls slower than 1-thread (median):";
    bool any_slower = false;
    for (const SweepPoint& p : sweep) {
      for (const SweepPoint::Entry& e : p.entries) {
        if (e.at[1].median > e.at[0].median) {
          std::cout << " " << e.id << (e.threaded ? "" : "*") << "@"
                    << p.dms;
          any_slower = true;
        }
      }
    }
    std::cout << (any_slower ? "" : " none") << "\n";
  }

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    bench::JsonArray arr;
    for (const EngineResult& r : results) {
      arr.add(bench::JsonObject()
                  .set("engine", r.id)
                  .set("variant", r.variant)
                  .set("supports_sharding", r.caps.supports_sharding)
                  .set("supports_streaming", r.caps.supports_streaming)
                  .set("bitwise_exact", r.caps.bitwise_exact)
                  .set("tunable", r.caps.tunable)
                  .set("input_padding", r.caps.input_padding)
                  .set("input_element_bytes", r.caps.input_element_bytes)
                  .set("config", r.config)
                  .set("seconds", r.seconds)
                  .set("gflops", r.gflops)
                  .set("bytes_moved", r.bytes)
                  .set("gbps", r.gbps)
                  .set("modeled_gflops", r.modeled_gflops)
                  .set("modeled_note", r.modeled_note));
    }
    bench::JsonObject root;
    root.set("bench", "bench_engine_matrix")
        .set_raw("host", bench::host_description().dump())
        .set("simd_backend", simd::backend_name())
        .set("host_cpus", host_cpus)
        .set_raw("plan", bench::JsonObject()
                             .set("observation", obs.name())
                             .set("dms", dms)
                             .set("out_samples", out_samples)
                             .set("channels", plan.channels())
                             .set("max_delay", plan.max_delay())
                             .dump())
        .set_raw("engines", arr.dump());
    if (!sweep.empty()) {
      bench::JsonArray sweep_arr;
      bench::JsonArray slower;
      for (const SweepPoint& p : sweep) {
        bench::JsonObject point;
        point.set("dms", p.dms);
        for (const SweepPoint::Entry& e : p.entries) {
          for (std::size_t k = 0; k < std::size(kSweepThreads); ++k) {
            const std::string key =
                e.id + "_" + std::to_string(kSweepThreads[k]) + "t_";
            point.set(key + "median_s", e.at[k].median)
                .set(key + "min_s", e.at[k].min);
          }
          point.set(e.id + "_speedup_4t", e.at[0].median / e.at[1].median);
          if (e.at[1].median > e.at[0].median) {
            slower.add(bench::JsonObject()
                           .set("dms", p.dms)
                           .set("engine", e.id)
                           .set("threaded", e.threaded));
          }
        }
        sweep_arr.add(point.set("winner", p.winner()));
      }
      // crossover_dms: the smallest swept trial count at which fdmt wins
      // the race outright; fdmt_beats_cpu_tiled_dms: the brute-force
      // crossover alone. 0 = not on this ladder.
      root.set("dm_sweep_reps", sweep_reps)
          .set_raw("dm_sweep", sweep_arr.dump())
          .set_raw("slower_at_4_threads", slower.dump())
          .set("crossover_dms",
               first_dms(sweep,
                         [](const SweepPoint& p) {
                           return p.winner() == "fdmt";
                         }))
          .set("fdmt_beats_cpu_tiled_dms",
               first_dms(sweep, [](const SweepPoint& p) {
                 return p.of("fdmt") < p.of("cpu_tiled");
               }));
    }
    bench::write_json_file(json_path, root);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
