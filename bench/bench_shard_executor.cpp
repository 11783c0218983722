/// DM-sharded executor throughput vs. worker count on this machine.
///
/// The sharded path exists to scale one plan across workers (and, later,
/// devices): the number that matters is how throughput moves as the worker
/// pool grows. For each worker count the bench runs the ShardedDedisperser
/// over the identical input, checks the output is bitwise identical to the
/// single-engine batch path, and reports measured GFLOP/s next to the
/// planner's *modeled* speedup (the single shard's cost / the critical
/// path's cost, both in input elements read) — on a machine with fewer cores than workers the measured
/// curve flattens at the core count while the modeled curve shows what the
/// balanced partition sustains when every worker owns real hardware, so
/// both are recorded.
///
///   ./bench_shard_executor [--dms 128] [--out-samples 10000] [--reps 3]
///                          [--workers 1,2,4,8] [--json out.json]

#include <algorithm>
#include <iostream>
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
#include "dedisp/cpu_kernel.hpp"
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

struct WorkerResult {
  std::size_t workers = 0;
  std::size_t shards = 0;
  double seconds = 0.0;
  double gflops = 0.0;
  double speedup_vs_one = 0.0;   ///< measured, vs the 1-worker sharded run
  double modeled_speedup = 0.0;  ///< modeled 1-shard cost / critical path
  double modeled_imbalance = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_shard_executor",
          "DM-sharded executor throughput vs worker count");
  cli.add_option("dms", "number of trial DMs", "128");
  cli.add_option("out-samples", "output samples per trial", "10000");
  cli.add_option("reps", "timed repetitions", "3");
  cli.add_option("workers", "comma-separated worker counts", "1,2,4,8");
  cli.add_option("json", "write machine-readable results to this path", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const auto out_samples =
      static_cast<std::size_t>(cli.get_int("out-samples"));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  std::vector<std::size_t> worker_counts =
      parse_worker_list(cli.get("workers"));
  // The scaling column normalizes against a real 1-worker run, so one is
  // always measured even when --workers omits it.
  if (std::find(worker_counts.begin(), worker_counts.end(), 1u) ==
      worker_counts.end()) {
    worker_counts.insert(worker_counts.begin(), 1);
  }

  const sky::Observation obs = sky::apertif();
  const dedisp::Plan plan =
      dedisp::Plan::with_output_samples(obs, dms, out_samples);
  const double flop = plan.total_flop();

  // The PR-1 host-sweep optimum shape, shrunk by each shard as needed.
  dedisp::KernelConfig config{50, 2, 4, 2, 32, 4};
  if (!config.divides(plan)) config = dedisp::KernelConfig{1, 1, 1, 1, 32, 4};

  Array2D<float> input(plan.channels(), plan.in_samples());
  Rng rng(99);
  for (std::size_t ch = 0; ch < input.rows(); ++ch) {
    for (auto& v : input.row(ch)) v = rng.next_float(-1.0f, 1.0f);
  }

  // Single-engine batch reference (one thread): correctness anchor and the
  // absolute baseline a sharded deployment replaces.
  dedisp::CpuKernelOptions single_cpu;
  single_cpu.threads = 1;
  Array2D<float> expected(plan.dms(), plan.out_samples());
  dedisp::dedisperse_cpu(plan, config, input.cview(), expected.view(),
                         single_cpu);
  double single_seconds = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    Stopwatch clock;
    dedisp::dedisperse_cpu(plan, config, input.cview(), expected.view(),
                           single_cpu);
    single_seconds += clock.seconds();
  }
  single_seconds /= static_cast<double>(reps);
  const double single_gflops = flop / single_seconds * 1e-9;

  const pipeline::DmShardPlanner planner(plan);
  const auto modeled_one =
      static_cast<double>(planner.partition(1).max_cost);

  std::vector<WorkerResult> results;
  for (std::size_t workers : worker_counts) {
    WorkerResult res;
    res.workers = workers;

    pipeline::ShardedOptions opts;
    opts.workers = workers;
    const pipeline::ShardedDedisperser sharded(
        plan, engine::encode_kernel_config(config), opts);
    res.shards = sharded.shard_count();
    res.modeled_speedup =
        modeled_one / static_cast<double>(sharded.layout().max_cost);
    res.modeled_imbalance = sharded.layout().imbalance();

    Array2D<float> out(plan.dms(), plan.out_samples());
    sharded.dedisperse(input.cview(), out.view());  // warmup
    for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
      for (std::size_t t = 0; t < plan.out_samples(); ++t) {
        DDMC_REQUIRE(out(dm, t) == expected(dm, t),
                     "sharded output diverged from the single-engine path");
      }
    }
    double total = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      Stopwatch clock;
      sharded.dedisperse(input.cview(), out.view());
      total += clock.seconds();
    }
    res.seconds = total / static_cast<double>(reps);
    res.gflops = flop / res.seconds * 1e-9;
    results.push_back(res);
  }
  double one_worker_seconds = 0.0;
  for (const WorkerResult& r : results) {
    if (r.workers == 1) one_worker_seconds = r.seconds;
  }
  for (WorkerResult& r : results) {
    r.speedup_vs_one = one_worker_seconds / r.seconds;
  }

  const std::size_t host_cpus =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::cout << "== DM-sharded executor, " << obs.name() << ", " << dms
            << " DMs x " << out_samples << " samples, config "
            << config.to_string() << ", simd " << simd::backend_name()
            << ", host cpus " << host_cpus << " ==\n\n"
            << "single engine (1 thread): " << TextTable::num(single_gflops, 2)
            << " GFLOP/s (" << TextTable::num(single_seconds * 1e3, 1)
            << " ms)\n\n";

  TextTable table({"workers", "shards", "GFLOP/s", "vs 1 worker",
                   "modeled speedup", "modeled imbalance"});
  for (const WorkerResult& r : results) {
    table.add_row({std::to_string(r.workers), std::to_string(r.shards),
                   TextTable::num(r.gflops, 2),
                   TextTable::num(r.speedup_vs_one, 2) + "x",
                   TextTable::num(r.modeled_speedup, 2) + "x",
                   TextTable::num(r.modeled_imbalance, 3)});
  }
  table.print(std::cout);
  std::cout << "\n(modeled speedup = planner critical-path ratio with every "
               "worker on real hardware;\n measured scaling saturates at "
               "the machine's core count)\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    bench::JsonArray arr;
    for (const WorkerResult& r : results) {
      arr.add(bench::JsonObject()
                  .set("workers", r.workers)
                  .set("shards", r.shards)
                  .set("seconds", r.seconds)
                  .set("gflops", r.gflops)
                  .set("speedup_vs_one_worker", r.speedup_vs_one)
                  .set("modeled_speedup", r.modeled_speedup)
                  .set("modeled_imbalance", r.modeled_imbalance));
    }
    bench::JsonObject root;
    root.set("bench", "bench_shard_executor")
        .set("simd_backend", simd::backend_name())
        .set("host_cpus", host_cpus)
        .set("config", config.to_string())
        .set_raw("plan", bench::JsonObject()
                             .set("observation", obs.name())
                             .set("dms", dms)
                             .set("out_samples", out_samples)
                             .set("channels", plan.channels())
                             .set("max_delay", plan.max_delay())
                             .dump())
        .set_raw("single_engine",
                 bench::JsonObject()
                     .set("seconds", single_seconds)
                     .set("gflops", single_gflops)
                     .dump())
        .set_raw("sharded", arr.dump());
    bench::write_json_file(json_path, root);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
