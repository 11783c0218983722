/// Cost of surviving faults: supervised sharded execution under injected
/// failures, next to the clean path and the disarmed-failpoint hot cost.
///
/// The supervision machinery (PR 6) is only free if (a) a disarmed
/// failpoint costs nanoseconds, (b) a supervised run with no faults costs
/// the same as the historical fail-fast path, and (c) recovery — retry or
/// full shard reacquisition — costs bounded throughput, never correctness.
/// This bench measures all three on the host: every scenario's output is
/// checked bitwise against the single-engine batch reference before it is
/// timed, so the numbers are recovery overhead for *identical* science.
///
///   ./bench_resilience [--dms 128] [--out-samples 10000] [--reps 3]
///                      [--workers 4] [--json out.json]

#include <cstddef>
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
#include "pipeline/sharding.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/supervisor.hpp"
#include "sky/observation.hpp"

namespace {

using namespace ddmc;

struct ScenarioResult {
  std::string name;
  std::string what;
  double seconds = 0.0;
  double gflops = 0.0;
  double overhead_vs_clean = 0.0;  ///< seconds / clean seconds − 1
  resilience::ShardExecutionReport report;  ///< last timed run's counters
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_resilience",
          "recovery overhead of supervised sharded execution under faults");
  cli.add_option("dms", "number of trial DMs", "128");
  cli.add_option("out-samples", "output samples per trial", "10000");
  cli.add_option("reps", "timed repetitions", "3");
  cli.add_option("workers", "sharded worker threads", "4");
  cli.add_option("json", "write machine-readable results to this path", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const auto out_samples =
      static_cast<std::size_t>(cli.get_int("out-samples"));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto workers = static_cast<std::size_t>(cli.get_int("workers"));
  DDMC_REQUIRE(workers > 0, "--workers must be positive");

  const sky::Observation obs = sky::apertif();
  const dedisp::Plan plan =
      dedisp::Plan::with_output_samples(obs, dms, out_samples);
  const double flop = plan.total_flop();

  dedisp::KernelConfig config{50, 2, 4, 2, 32, 4};
  if (!config.divides(plan)) config = dedisp::KernelConfig{1, 1, 1, 1, 32, 4};

  Array2D<float> input(plan.channels(), plan.in_samples());
  Rng rng(99);
  for (std::size_t ch = 0; ch < input.rows(); ++ch) {
    for (auto& v : input.row(ch)) v = rng.next_float(-1.0f, 1.0f);
  }

  // Single-engine batch reference: the bitwise anchor every scenario —
  // including the recovered ones — must reproduce exactly.
  dedisp::CpuKernelOptions single_cpu;
  single_cpu.threads = 1;
  Array2D<float> expected(plan.dms(), plan.out_samples());
  dedisp::dedisperse_cpu(plan, config, input.cview(), expected.view(),
                         single_cpu);

  // ---- Disarmed failpoint hot cost -------------------------------------
  // The hooks ship compiled into release seams; their disarmed price is
  // what every clean execute/push/pop pays.
  const std::size_t fire_iters = 2'000'000;
  resilience::FaultInjector::instance().disarm_all();
  double disarmed_ns = 0.0;
  {
    // One warmup pass so the name string and the atomic are hot.
    for (std::size_t i = 0; i < 1000; ++i) DDMC_FAILPOINT("bench.disarmed");
    Stopwatch clock;
    for (std::size_t i = 0; i < fire_iters; ++i) {
      DDMC_FAILPOINT("bench.disarmed");
    }
    disarmed_ns = clock.seconds() * 1e9 / static_cast<double>(fire_iters);
  }

  // ---- Supervised scenarios --------------------------------------------
  // Each scenario builds its own executor, arms (or not) a fault before
  // every run, proves the warmup output bitwise identical to the single
  // engine, then times `reps` runs. The fault is re-armed per run so a
  // countdown spec fires in every repetition, not just the first.
  const std::size_t fault_shard = workers / 2;  // a mid-range shard

  struct Scenario {
    std::string name;
    std::string what;
    resilience::SupervisionPolicy policy;
    bool armed = false;
    resilience::FaultSpec spec;
  };
  std::vector<Scenario> scenarios;
  {
    Scenario clean;
    clean.name = "clean";
    clean.what = "supervised, no fault armed";
    clean.policy.retry.max_attempts = 3;
    clean.policy.reacquire = true;
    scenarios.push_back(clean);

    Scenario retry;
    retry.name = "retry";
    retry.what = "one transient fault per run, absorbed by retry";
    retry.policy.retry.max_attempts = 3;
    retry.policy.retry.backoff_seconds = 0.0005;
    retry.policy.reacquire = true;
    retry.armed = true;
    retry.spec.trigger = resilience::FaultSpec::Trigger::kCountdown;
    retry.spec.context = fault_shard;
    retry.spec.max_fires = 1;  // first attempt fails, the retry lands
    scenarios.push_back(retry);

    Scenario reacquire;
    reacquire.name = "reacquire";
    reacquire.what = "one worker permanently dead, shard reacquired";
    reacquire.policy.retry.max_attempts = 2;
    reacquire.policy.retry.backoff_seconds = 0.0005;
    reacquire.policy.reacquire = true;
    reacquire.armed = true;
    reacquire.spec.trigger = resilience::FaultSpec::Trigger::kCountdown;
    reacquire.spec.context = fault_shard;
    reacquire.spec.max_fires = 0;  // never recovers: every attempt dies
    scenarios.push_back(reacquire);
  }

  std::vector<ScenarioResult> results;
  for (const Scenario& sc : scenarios) {
    pipeline::ShardedOptions opts;
    opts.workers = workers;
    opts.supervision = sc.policy;
    const pipeline::ShardedDedisperser sharded(
        plan, engine::encode_kernel_config(config), opts);

    Array2D<float> out(plan.dms(), plan.out_samples());
    const auto run = [&] {
      if (sc.armed) {
        resilience::FaultInjector::instance().arm("shard.task", sc.spec);
      }
      sharded.dedisperse(input.cview(), out.view());
      resilience::FaultInjector::instance().disarm_all();
    };

    run();  // warmup + recovery-correctness proof
    for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
      for (std::size_t t = 0; t < plan.out_samples(); ++t) {
        DDMC_REQUIRE(out(dm, t) == expected(dm, t),
                     "scenario '" + sc.name +
                         "' diverged from the single-engine path");
      }
    }

    ScenarioResult res;
    res.name = sc.name;
    res.what = sc.what;
    double total = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      Stopwatch clock;
      run();
      total += clock.seconds();
    }
    res.seconds = total / static_cast<double>(reps);
    res.gflops = flop / res.seconds * 1e-9;
    res.report = sharded.last_report();
    results.push_back(res);
  }
  const double clean_seconds = results.front().seconds;
  for (ScenarioResult& r : results) {
    r.overhead_vs_clean = r.seconds / clean_seconds - 1.0;
  }

  std::cout << "== supervised sharded execution under faults, " << obs.name()
            << ", " << dms << " DMs x " << out_samples << " samples, "
            << workers << " workers, config " << config.to_string()
            << ", simd " << simd::backend_name() << " ==\n\n"
            << "disarmed failpoint: " << TextTable::num(disarmed_ns, 1)
            << " ns per evaluation (" << fire_iters
            << " iterations)\n\n";

  TextTable table({"scenario", "GFLOP/s", "seconds", "overhead", "retries",
                   "reassignments"});
  for (const ScenarioResult& r : results) {
    table.add_row({r.name, TextTable::num(r.gflops, 2),
                   TextTable::num(r.seconds * 1e3, 1) + " ms",
                   TextTable::num(r.overhead_vs_clean * 100.0, 1) + " %",
                   std::to_string(r.report.retries),
                   std::to_string(r.report.reassignments)});
  }
  table.print(std::cout);
  std::cout << "\n(every scenario's output is verified bitwise identical to "
               "the single-engine path\n before timing — overhead buys "
               "recovery, never a different answer)\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    bench::JsonArray arr;
    for (const ScenarioResult& r : results) {
      arr.add(bench::JsonObject()
                  .set("scenario", r.name)
                  .set("description", r.what)
                  .set("seconds", r.seconds)
                  .set("gflops", r.gflops)
                  .set("overhead_vs_clean", r.overhead_vs_clean)
                  .set("attempts", r.report.attempts)
                  .set("retries", r.report.retries)
                  .set("reassignments", r.report.reassignments)
                  .set("bitwise_identical", true));
    }
    bench::JsonObject root;
    root.set("bench", "bench_resilience")
        .set("simd_backend", simd::backend_name())
        .set("workers", workers)
        .set("config", config.to_string())
        .set("disarmed_failpoint_ns", disarmed_ns)
        .set_raw("plan", bench::JsonObject()
                             .set("observation", obs.name())
                             .set("dms", dms)
                             .set("out_samples", out_samples)
                             .set("channels", plan.channels())
                             .set("max_delay", plan.max_delay())
                             .dump())
        .set_raw("scenarios", arr.dump());
    bench::write_json_file(json_path, root);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
