/// Guided tuning vs. the paper's exhaustive sweep, measured on this
/// machine: ExhaustiveSearch times every deduplicated host configuration
/// (the §IV-A method), RandomSearch and CoordinateDescent time a fraction
/// of them, and the headline numbers are configs-evaluated vs. the fraction
/// of the exhaustive optimum each strategy recovers. The second half
/// demonstrates the TuningCache ladder: a cold guided search, a warm exact
/// hit (zero measurements) and a nearest-neighbor transfer onto a plan the
/// cache has never seen (also zero measurements).
///
/// The final leg races whole engines: tune_guided with several registry
/// ids searches each engine's *own* declared axes against the race's best
/// time so far and ranks the finalists by measured wall seconds — platform
/// choice as a tuning decision. The JSON keeps one row per entrant of the
/// cold and the warm race (engine, config, threads, seconds or pruning
/// bound, source, pruned).
///
///   ./bench_tuner_strategies [--dms 16] [--out-samples 2000] [--reps 2]
///                            [--random-samples 64] [--seed 42] [--scalar]
///                            [--json BENCH_tuner_strategies.json]

#include <iostream>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "dedisp/plan.hpp"
#include "engine/registry.hpp"
#include "sky/observation.hpp"
#include "tuner/strategy.hpp"
#include "tuner/tuning_cache.hpp"

namespace {

const char* source_name(ddmc::tuner::GuidedTuningOutcome::Source s) {
  using Source = ddmc::tuner::GuidedTuningOutcome::Source;
  switch (s) {
    case Source::kCacheHit: return "cache-hit";
    case Source::kTransfer: return "transfer";
    case Source::kSearch: return "search";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ddmc;
  Cli cli("bench_tuner_strategies",
          "guided search strategies vs. the exhaustive sweep, measured");
  cli.add_option("dms", "number of trial DMs", "16");
  cli.add_option("out-samples", "output window in samples", "2000");
  cli.add_option("reps", "timed repetitions per configuration", "2");
  cli.add_option("random-samples", "configs RandomSearch may time", "64");
  cli.add_option("seed", "search / input seed", "42");
  cli.add_option("json", "write machine-readable results to this path", "");
  cli.add_flag("scalar", "measure the scalar engine instead of SIMD");
  if (!cli.parse(argc, argv)) return 0;

  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const auto out = static_cast<std::size_t>(cli.get_int("out-samples"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const dedisp::Plan plan =
      dedisp::Plan::with_output_samples(sky::apertif(), dms, out);

  tuner::HostTuningOptions opt;
  opt.repetitions = static_cast<std::size_t>(cli.get_int("reps"));
  opt.warmup_runs = 1;
  opt.vectorize = !cli.get_flag("scalar");

  // The strategies search the tiled engine's own declared space: its
  // config_space() is already valid for the plan and deduplicated to one
  // candidate per distinct host kernel.
  engine::EngineOptions engine_options;
  engine_options.cpu.vectorize = opt.vectorize;
  engine_options.cpu.threads = opt.threads;
  const auto tiled = engine::make_engine("cpu_tiled", engine_options);
  const auto axes = tiled->config_axes(plan);
  const auto candidates = tiled->config_space(plan);
  std::cout << "== tuner strategies, Apertif-reduced, " << dms << " DMs x "
            << out << " samples, engine "
            << (opt.vectorize ? simd::backend_name() : "scalar") << " ==\n"
            << "candidate space: " << candidates.size()
            << " distinct host kernels\n\n";

  struct Row {
    std::string name;
    tuner::StrategyResult result;
  };
  std::vector<Row> rows;
  {
    tuner::HostKernelEvaluator evaluator(tiled, plan, opt, seed);
    rows.push_back(
        {"exhaustive",
         tuner::ExhaustiveSearch().search(plan, axes, candidates, evaluator)});
  }
  {
    tuner::HostKernelEvaluator evaluator(tiled, plan, opt, seed);
    const tuner::RandomSearch random(
        static_cast<std::size_t>(cli.get_int("random-samples")), seed);
    rows.push_back(
        {"random", random.search(plan, axes, candidates, evaluator)});
  }
  {
    tuner::HostKernelEvaluator evaluator(tiled, plan, opt, seed);
    const tuner::CoordinateDescent descent(seed);
    rows.push_back({"coordinate-descent",
                    descent.search(plan, axes, candidates, evaluator)});
  }

  const double exhaustive_gflops = rows.front().result.best.gflops;
  TextTable table({"strategy", "evaluated", "of space", "best GFLOP/s",
                   "of optimum", "aborted", "P[guess>=best]"});
  for (const Row& row : rows) {
    const auto& r = row.result;
    table.add_row(
        {row.name, std::to_string(r.evaluated),
         TextTable::num(100.0 * static_cast<double>(r.evaluated) /
                            static_cast<double>(r.candidates),
                        1) +
             "%",
         TextTable::num(r.best.gflops, 2),
         TextTable::num(100.0 * r.best.gflops / exhaustive_gflops, 1) + "%",
         std::to_string(r.aborted), TextTable::num(r.chebyshev_p, 3)});
  }
  table.print(std::cout);

  // --- the cache ladder: cold search, warm hit, neighbor transfer --------
  tuner::TuningCache cache;
  tuner::GuidedTuningOptions guided;
  guided.host = opt;
  guided.seed = seed;
  const tuner::GuidedTuningOutcome cold = tuner::tune_guided(plan, cache, guided);
  const tuner::GuidedTuningOutcome warm = tuner::tune_guided(plan, cache, guided);
  const dedisp::Plan neighbor =
      dedisp::Plan::with_output_samples(sky::apertif(), dms * 2, out);
  const tuner::GuidedTuningOutcome transfer =
      tuner::tune_guided(neighbor, cache, guided);

  std::cout << "\ncache ladder (coordinate-descent fallback):\n"
            << "  cold:     " << source_name(cold.source) << ", "
            << cold.configs_evaluated << " configs measured -> "
            << cold.config.to_string() << "\n"
            << "  warm:     " << source_name(warm.source) << ", "
            << warm.configs_evaluated << " configs measured\n"
            << "  " << dms * 2 << " DMs: " << source_name(transfer.source)
            << ", " << transfer.configs_evaluated
            << " configs measured (transfer from the " << dms
            << "-DM entry)\n";

  // --- the engine race: platform choice as a tuning axis -----------------
  // Each engine searches its *own* declared axes (the tiled kernel shape,
  // the subband split, the baseline's single empty config) and the
  // finalists are ranked by measured wall seconds. The warm rerun answers
  // every engine from the cache: zero measurements.
  tuner::TuningCache race_cache;
  tuner::GuidedTuningOptions race = guided;
  race.engines = {"cpu_tiled", "cpu_baseline", "subband"};
  const tuner::GuidedTuningOutcome race_cold =
      tuner::tune_guided(plan, race_cache, race);
  const tuner::GuidedTuningOutcome race_warm =
      tuner::tune_guided(plan, race_cache, race);
  std::cout << "\nengine race (cpu_tiled vs cpu_baseline vs subband, ranked"
               " by wall seconds):\n"
            << "  cold: " << race_cold.engine_id << " wins at "
            << TextTable::num(race_cold.seconds * 1e3, 3) << " ms/call ("
            << TextTable::num(race_cold.gflops, 2) << " GFLOP/s), "
            << race_cold.configs_evaluated
            << " configs measured across all engines -> "
            << race_cold.config.to_string() << "\n"
            << "  warm: " << source_name(race_warm.source) << ", "
            << race_warm.configs_evaluated << " configs measured, winner "
            << race_warm.engine_id << "\n";
  TextTable entrants({"entrant", "threads", "ms/call", "source", "pruned",
                      "evaluated", "config"});
  for (const auto& row : race_cold.race) {
    entrants.add_row({row.engine_id, std::to_string(row.threads),
                      (row.pruned ? ">" : "") +
                          TextTable::num(row.seconds * 1e3, 3),
                      source_name(row.source), row.pruned ? "yes" : "no",
                      std::to_string(row.configs_evaluated),
                      row.config.to_string()});
  }
  entrants.print(std::cout);

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    auto config_json = [](const engine::EngineConfig& c) {
      bench::JsonObject j;
      j.set("encoded", c.encode());
      for (const auto& [name, value] : c.axes) {
        j.set(name, static_cast<std::size_t>(value));
      }
      return j.dump();
    };
    bench::JsonArray strategies;
    for (const Row& row : rows) {
      const auto& r = row.result;
      strategies.add(
          bench::JsonObject()
              .set("strategy", row.name)
              .set("candidates", r.candidates)
              .set("evaluated", r.evaluated)
              .set("aborted", r.aborted)
              .set("fraction_of_space",
                   static_cast<double>(r.evaluated) /
                       static_cast<double>(r.candidates))
              .set("best_gflops", r.best.gflops)
              .set("fraction_of_exhaustive_optimum",
                   r.best.gflops / exhaustive_gflops)
              .set("chebyshev_p", r.chebyshev_p)
              .set_raw("best_config", config_json(r.best.config)));
    }
    auto outcome_json = [&](const tuner::GuidedTuningOutcome& o) {
      bench::JsonArray race;
      for (const auto& row : o.race) {
        race.add(bench::JsonObject()
                     .set("engine", row.engine_id)
                     .set("threads", row.threads)
                     .set("seconds", row.seconds)
                     .set("source", source_name(row.source))
                     .set("pruned", row.pruned)
                     .set("configs_evaluated", row.configs_evaluated)
                     .set_raw("config", config_json(row.config)));
      }
      bench::JsonObject j;
      j.set("source", source_name(o.source))
          .set("engine", o.engine_id)
          .set("seconds", o.seconds)
          .set("gflops", o.gflops)
          .set("configs_evaluated", o.configs_evaluated)
          .set_raw("config", config_json(o.config))
          .set_raw("entrants", race.dump());
      return j.dump();
    };
    bench::JsonObject root;
    root.set("bench", "bench_tuner_strategies")
        .set("engine", opt.vectorize ? simd::backend_name() : "scalar")
        .set_raw("plan", bench::JsonObject()
                             .set("observation", "Apertif")
                             .set("dms", dms)
                             .set("out_samples", out)
                             .set("channels", plan.channels())
                             .dump())
        .set("repetitions", opt.repetitions)
        .set("deduplicated_configs", candidates.size())
        .set("exhaustive_gflops", exhaustive_gflops)
        .set_raw("strategies", strategies.dump())
        .set_raw("cache", bench::JsonObject()
                              .set_raw("cold", outcome_json(cold))
                              .set_raw("warm", outcome_json(warm))
                              .set_raw("transfer", outcome_json(transfer))
                              .dump())
        .set_raw("engine_race",
                 bench::JsonObject()
                     .set("engines", "cpu_tiled,cpu_baseline,subband")
                     .set_raw("cold", outcome_json(race_cold))
                     .set_raw("warm", outcome_json(race_warm))
                     .dump());
    bench::write_json_file(json_path, root);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
