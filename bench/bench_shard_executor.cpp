/// DM-sharded executor against the engine's own pool, by worker count.
///
/// The sharded path exists to isolate faults per DM range and to scale one
/// plan across devices; on one host it competes with the engine's own
/// worker pool, which spreads the same plan over the same cores inside one
/// call. For each worker count the bench runs the ShardedDedisperser on
/// that many workers and the cpu_tiled engine on a pool of that many
/// threads over the identical input. It checks both outputs are bitwise
/// identical to a one-thread engine call, the *baseline*, and reports the
/// median and minimum of --reps calls of each. Every round times the
/// baseline once and then every row, so all rows divide by one baseline
/// that saw the same drift; the speedups sit next to the planner's
/// *modeled* speedup (the single shard's cost / the critical path's cost,
/// both in input elements read). Shards are cut on the config's DM tile,
/// so every shard runs the parent config.
///
///   ./bench_shard_executor [--dms 1024] [--out-samples 2000] [--reps 5]
///                          [--workers 1,2,3,4] [--json out.json]

#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/array2d.hpp"
#include "common/random.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "dedisp/kernel_config.hpp"
#include "engine/engine_config.hpp"
#include "engine/registry.hpp"
#include "pipeline/sharding.hpp"
#include "sky/observation.hpp"

namespace {

using namespace ddmc;

std::vector<std::size_t> parse_worker_list(const std::string& text) {
  std::vector<std::size_t> workers;
  std::istringstream ss(text);
  std::string part;
  while (std::getline(ss, part, ',')) {
    const long long v = std::stoll(part);
    DDMC_REQUIRE(v > 0, "--workers entries must be positive");
    workers.push_back(static_cast<std::size_t>(v));
  }
  DDMC_REQUIRE(!workers.empty(), "--workers needs at least one count");
  return workers;
}

/// Median and minimum wall seconds of repeated calls.
struct Timing {
  std::vector<double> seconds;

  void add(double s) { seconds.push_back(s); }
  double median() const {
    std::vector<double> v = seconds;
    std::sort(v.begin(), v.end());
    return (v[(v.size() - 1) / 2] + v[v.size() / 2]) / 2.0;
  }
  double min() const {
    return *std::min_element(seconds.begin(), seconds.end());
  }
  bench::JsonObject json(double flop) const {
    return bench::JsonObject()
        .set("median_s", median())
        .set("min_s", min())
        .set("gflops_median", flop / median() * 1e-9);
  }
};

struct WorkerResult {
  std::size_t workers = 0;
  std::vector<std::size_t> shard_dms;  ///< trials per shard, in DM order
  Timing sharded;
  Timing pool;
  double modeled_speedup = 0.0;  ///< modeled 1-shard cost / critical path
  double modeled_imbalance = 0.0;
};

std::string ms(const Timing& t) {
  return TextTable::num(t.median() * 1e3, 1) + " (" +
         TextTable::num(t.min() * 1e3, 1) + ")";
}

void require_same(const Array2D<float>& expected, const Array2D<float>& got,
                  const char* what) {
  for (std::size_t dm = 0; dm < expected.rows(); ++dm) {
    for (std::size_t t = 0; t < expected.cols(); ++t) {
      DDMC_REQUIRE(got(dm, t) == expected(dm, t),
                   std::string(what) +
                       " output diverged from the one-thread engine call");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_shard_executor",
          "DM-sharded executor against the engine's own pool, by worker "
          "count");
  cli.add_option("dms", "number of trial DMs", "1024");
  cli.add_option("out-samples", "output samples per trial", "2000");
  cli.add_option("reps", "timed calls per side and worker count", "5");
  cli.add_option("workers", "comma-separated worker counts", "1,2,3,4");
  cli.add_option("json", "write machine-readable results to this path", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const auto out_samples =
      static_cast<std::size_t>(cli.get_int("out-samples"));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  DDMC_REQUIRE(reps > 0, "--reps must be positive");
  const std::vector<std::size_t> worker_counts =
      parse_worker_list(cli.get("workers"));

  const sky::Observation obs = sky::apertif();
  const dedisp::Plan plan =
      dedisp::Plan::with_output_samples(obs, dms, out_samples);
  const double flop = plan.total_flop();

  // The PR-1 host-sweep optimum shape (DM tile 4).
  dedisp::KernelConfig kernel{50, 2, 4, 2, 32, 4};
  if (!kernel.divides(plan)) kernel = dedisp::KernelConfig{1, 1, 1, 1, 32, 4};
  const engine::EngineConfig config = engine::encode_kernel_config(kernel);

  Array2D<float> input(plan.channels(), plan.in_samples());
  Rng rng(99);
  for (std::size_t ch = 0; ch < input.rows(); ++ch) {
    for (auto& v : input.row(ch)) v = rng.next_float(-1.0f, 1.0f);
  }

  // One-thread engine call: the correctness anchor of both sides and the
  // baseline of both speedup columns.
  engine::EngineOptions one_thread;
  one_thread.cpu.threads = 1;
  const auto baseline_engine =
      engine::make_engine(engine::kDefaultEngineId, one_thread);
  Array2D<float> expected(plan.dms(), plan.out_samples());
  baseline_engine->execute(plan, config, input.cview(), expected.view());

  const auto modeled_one = static_cast<double>(
      pipeline::DmShardPlanner(plan).partition(1).max_cost);

  std::vector<WorkerResult> results;
  std::vector<std::unique_ptr<pipeline::ShardedDedisperser>> sharded;
  std::vector<std::shared_ptr<const engine::DedispEngine>> pools;
  Array2D<float> out(plan.dms(), plan.out_samples());
  for (std::size_t workers : worker_counts) {
    WorkerResult res;
    res.workers = workers;

    pipeline::ShardedOptions opts;
    opts.workers = workers;
    sharded.push_back(
        std::make_unique<pipeline::ShardedDedisperser>(plan, config, opts));
    for (const pipeline::DmShard& s : sharded.back()->layout().shards) {
      res.shard_dms.push_back(s.dms);
    }
    res.modeled_speedup =
        modeled_one / static_cast<double>(sharded.back()->layout().max_cost);
    res.modeled_imbalance = sharded.back()->layout().imbalance();

    engine::EngineOptions pool_options;
    pool_options.cpu.threads = workers;
    pools.push_back(
        engine::make_engine(engine::kDefaultEngineId, pool_options));

    // Untimed first calls (workspaces, pool threads), checked bitwise.
    sharded.back()->dedisperse(input.cview(), out.view());
    require_same(expected, out, "sharded");
    pools.back()->execute(plan, config, input.cview(), out.view());
    require_same(expected, out, "pool");
    results.push_back(std::move(res));
  }
  Timing baseline;
  for (std::size_t r = 0; r < reps; ++r) {
    Stopwatch baseline_clock;
    baseline_engine->execute(plan, config, input.cview(), out.view());
    baseline.add(baseline_clock.seconds());
    for (std::size_t i = 0; i < results.size(); ++i) {
      Stopwatch shard_clock;
      sharded[i]->dedisperse(input.cview(), out.view());
      results[i].sharded.add(shard_clock.seconds());
      Stopwatch pool_clock;
      pools[i]->execute(plan, config, input.cview(), out.view());
      results[i].pool.add(pool_clock.seconds());
    }
  }

  std::cout << "== DM-sharded executor vs the engine's pool, " << obs.name()
            << ", " << dms << " DMs x " << out_samples << " samples, config "
            << kernel.to_string() << ", simd " << simd::backend_name()
            << ", host threads " << hardware_workers() << " ==\n"
            << "median (min) ms of " << reps
            << " rounds, each timing the baseline and then every row\n"
            << "baseline (one engine call on one thread): " << ms(baseline)
            << " ms\n\n";

  TextTable table({"workers", "shard DMs", "sharded ms", "vs baseline",
                   "pool ms", "vs baseline", "sharded/pool",
                   "modeled speedup"});
  for (const WorkerResult& r : results) {
    std::string layout;
    for (std::size_t d : r.shard_dms) {
      layout += (layout.empty() ? "" : "/") + std::to_string(d);
    }
    table.add_row(
        {std::to_string(r.workers), layout, ms(r.sharded),
         TextTable::num(baseline.median() / r.sharded.median(), 2) + "x",
         ms(r.pool),
         TextTable::num(baseline.median() / r.pool.median(), 2) + "x",
         TextTable::num(r.sharded.median() / r.pool.median(), 2),
         TextTable::num(r.modeled_speedup, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\n(modeled speedup = planner critical-path ratio with every "
               "worker on real hardware;\n measured scaling saturates at "
               "the machine's core count)\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    bench::JsonArray arr;
    for (const WorkerResult& r : results) {
      bench::JsonArray layout;
      for (std::size_t d : r.shard_dms) layout.add_raw(std::to_string(d));
      arr.add(bench::JsonObject()
                  .set("workers", r.workers)
                  .set("shards", r.shard_dms.size())
                  .set_raw("shard_dms", layout.dump())
                  .set_raw("sharded", r.sharded.json(flop).dump())
                  .set_raw("pool", r.pool.json(flop).dump())
                  .set("sharded_speedup_vs_baseline",
                       baseline.median() / r.sharded.median())
                  .set("pool_speedup_vs_baseline",
                       baseline.median() / r.pool.median())
                  .set("modeled_speedup", r.modeled_speedup)
                  .set("modeled_imbalance", r.modeled_imbalance));
    }
    bench::JsonObject root;
    root.set("bench", "bench_shard_executor")
        .set_raw("host", bench::host_description().dump())
        .set("config", kernel.to_string())
        .set("reps", reps)
        .set_raw("baseline", baseline.json(flop).dump())
        .set_raw("plan", bench::JsonObject()
                             .set("observation", obs.name())
                             .set("dms", dms)
                             .set("out_samples", out_samples)
                             .set("channels", plan.channels())
                             .set("max_delay", plan.max_delay())
                             .dump())
        .set_raw("workers", arr.dump());
    bench::write_json_file(json_path, root);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
