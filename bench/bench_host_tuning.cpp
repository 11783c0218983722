/// The paper's *method* on real hardware: auto-tune the tiled host kernel
/// by wall-clock measurement (§IV: every meaningful configuration, averaged
/// repetitions, keep the fastest) on a reduced Apertif instance, and report
/// the measured optimum, the population statistics and the measured
/// SNR-of-optimum — the live counterpart of Figs. 8–10. The sweep covers
/// the host engine's widened space (channel_block and unroll on top of the
/// paper's four parameters) and reports the untuned default configuration
/// next to the optimum, so the output shows the pre-vs-post-tuning gain.
/// The sweep is ExhaustiveSearch over the cpu_tiled engine's own
/// config_space(), the candidates every tuning path measures.
///
///   ./bench_host_tuning [--dms 16] [--out-samples 2000] [--reps 2]
///                       [--scalar] [--json BENCH_host_tuning.json]

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "dedisp/plan.hpp"
#include "engine/registry.hpp"
#include "sky/observation.hpp"
#include "tuner/strategy.hpp"

int main(int argc, char** argv) {
  using namespace ddmc;
  Cli cli("bench_host_tuning",
          "measured auto-tuning of the host kernel on this machine");
  cli.add_option("dms", "number of trial DMs", "16");
  cli.add_option("out-samples", "output window in samples", "2000");
  cli.add_option("reps", "timed repetitions per configuration", "2");
  cli.add_option("top", "print the N best configurations", "8");
  cli.add_option("json", "write machine-readable results to this path", "");
  cli.add_flag("scalar", "sweep the scalar engine instead of SIMD");
  if (!cli.parse(argc, argv)) return 0;

  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const auto out = static_cast<std::size_t>(cli.get_int("out-samples"));
  const dedisp::Plan plan =
      dedisp::Plan::with_output_samples(sky::apertif(), dms, out);

  tuner::HostTuningOptions opt;
  opt.repetitions = static_cast<std::size_t>(cli.get_int("reps"));
  opt.warmup_runs = 1;
  opt.vectorize = !cli.get_flag("scalar");

  engine::EngineOptions engine_options;
  engine_options.cpu.vectorize = opt.vectorize;
  engine_options.cpu.threads = opt.threads;
  const auto tiled = engine::make_engine("cpu_tiled", engine_options);
  const auto axes = tiled->config_axes(plan);

  tuner::HostKernelEvaluator evaluator(tiled, plan, opt);
  const tuner::StrategyResult result = tuner::ExhaustiveSearch().search(
      plan, axes, tiled->config_space(plan), evaluator);

  // Pre-tuning anchor: the neutral default configuration (the empty
  // config), measured with the same engine and repetition count.
  tuner::HostKernelEvaluator untuned_evaluator(tiled, plan, opt);
  const tuner::StrategyResult untuned = tuner::ExhaustiveSearch().search(
      plan, axes, {engine::EngineConfig{}}, untuned_evaluator);
  const double pre_gflops = untuned.best.gflops;

  std::cout << "== measured host tuning, Apertif-reduced, " << dms
            << " DMs x " << out << " samples, engine "
            << (opt.vectorize ? simd::backend_name() : "scalar") << " ==\n"
            << "configurations measured: " << result.timings.size() << "\n"
            << "pre-tuning (default config): "
            << TextTable::num(pre_gflops, 2) << " GFLOP/s\n"
            << "best: " << result.best.config.to_string() << " -> "
            << TextTable::num(result.best.gflops, 2) << " GFLOP/s ("
            << TextTable::num(result.best.seconds * 1e3, 1) << " ms), "
            << TextTable::num(result.best.gflops / pre_gflops, 2)
            << "x the untuned default\n"
            << "population: mean " << TextTable::num(result.stats.mean, 2)
            << ", sd " << TextTable::num(result.stats.stddev, 2)
            << ", measured SNR of optimum "
            << TextTable::num(result.stats.snr_of_max, 2) << "\n\n";

  std::vector<tuner::ConfigTiming> sorted = result.timings;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.gflops > b.gflops; });
  const auto top_n =
      std::min<std::size_t>(sorted.size(),
                            static_cast<std::size_t>(cli.get_int("top")));
  TextTable table({"rank", "config", "GFLOP/s", "ms"});
  for (std::size_t i = 0; i < top_n; ++i) {
    table.add_row({std::to_string(i + 1), sorted[i].config.to_string(),
                   TextTable::num(sorted[i].gflops, 2),
                   TextTable::num(sorted[i].seconds * 1e3, 1)});
  }
  table.print(std::cout);
  std::cout << "\nworst measured: "
            << TextTable::num(sorted.back().gflops, 2)
            << " GFLOP/s -> tuned is "
            << TextTable::num(result.best.gflops / sorted.back().gflops, 1)
            << "x the worst and "
            << TextTable::num(result.best.gflops / result.stats.mean, 2)
            << "x the average configuration\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    auto config_json = [](const engine::EngineConfig& config) {
      const dedisp::KernelConfig c = engine::decode_kernel_config(config);
      return bench::JsonObject()
          .set("wi_time", c.wi_time)
          .set("wi_dm", c.wi_dm)
          .set("elem_time", c.elem_time)
          .set("elem_dm", c.elem_dm)
          .set("channel_block", c.channel_block)
          .set("unroll", c.unroll)
          .dump();
    };
    bench::JsonArray arr;
    for (const auto& t : result.timings) {
      bench::JsonObject o;
      o.set_raw("config", config_json(t.config))
          .set("seconds", t.seconds)
          .set("gflops", t.gflops);
      arr.add(o);
    }
    bench::JsonObject root;
    root.set("bench", "bench_host_tuning")
        .set("engine",
             opt.vectorize ? simd::backend_name() : "scalar")
        .set_raw("plan", bench::JsonObject()
                             .set("observation", "Apertif")
                             .set("dms", dms)
                             .set("out_samples", out)
                             .set("channels", plan.channels())
                             .dump())
        .set("configurations_measured", result.timings.size())
        .set("pre_tuning_gflops", pre_gflops)
        .set("tuned_gflops", result.best.gflops)
        .set("tuning_speedup", result.best.gflops / pre_gflops)
        .set_raw("best_config", config_json(result.best.config))
        .set_raw("population",
                 bench::JsonObject()
                     .set("mean", result.stats.mean)
                     .set("stddev", result.stats.stddev)
                     .set("min", result.stats.min)
                     .set("max", result.stats.max)
                     .set("snr_of_max", result.stats.snr_of_max)
                     .dump())
        .set_raw("timings", arr.dump());
    bench::write_json_file(json_path, root);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
