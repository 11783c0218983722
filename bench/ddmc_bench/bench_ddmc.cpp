/// bench_ddmc — the survey path measured end to end and layer by layer.
///
/// Four workloads (README.md says why each exists):
///   apertif_rt, lofar_rt, apertif_lowlat   streaming: ring → chunker →
///       engine → detection, warm-started from a tuning-cache file;
///       rounds of a paced open-loop session for latency and an unpaced
///       closed-loop one for throughput.
///   tune_cold   a batch Dedisperser racing four engines on an empty
///       cache, each race followed by closed-loop dedisperse + detect
///       calls on its winner.
///
/// Every metric prints with its unit and sample count. The command exits
/// non-zero when an output check fails: a chunk not delivered, an
/// exception, a mismatch against the reference, a warm start that was not
/// a cache hit, or a missed pulse.
///
///   bench_ddmc --seed 1 [--workload <name>] [--seconds 20]
///              [--trace <prefix>] [--json run.json] [--scratch <dir>]
///   bench_ddmc --repin      (cold-tune the streaming plans, see README.md)

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "ddmc_bench.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace {

using namespace ddmc;
using namespace ddmc::ddmc_bench;

std::string cell(double v) {
  std::ostringstream os;
  os.precision(5);
  os << v;
  return os.str();
}

void print_metrics(const std::string& title, const std::vector<Metric>& m) {
  if (m.empty()) return;
  std::cout << title << "\n";
  TextTable table({"metric", "value", "unit", "samples"});
  for (const Metric& x : m) {
    table.add_row({x.name, cell(x.value), x.unit, std::to_string(x.samples)});
  }
  table.print(std::cout);
}

void print_result(const WorkloadResult& r, bool traced) {
  std::cout << "\n== " << r.name << " ==\n";
  for (const auto& [key, value] : r.notes) {
    std::cout << key << ": " << value << "\n";
  }
  std::vector<Metric> e2e = r.end_to_end;
  e2e.push_back({"recall", r.recall(), "ratio", r.recall_total});
  e2e.push_back({"fail_ratio",
                 r.attempted == 0 ? 1.0
                                  : static_cast<double>(r.failures.size()) /
                                        static_cast<double>(r.attempted),
                 "ratio", r.attempted});
  print_metrics("end to end" + std::string(traced ? " (traced run)" : ""),
                e2e);
  print_metrics("per layer", r.per_layer);
  if (!r.layers.empty()) {
    std::cout << "self time per layer\n";
    TextTable table({"span", "count", "total_s", "self_s"});
    for (const LayerTime& l : r.layers) {
      table.add_row({l.name, std::to_string(l.count), cell(l.total_s),
                     cell(l.self_s)});
    }
    table.print(std::cout);
  }
  for (const std::string& f : r.failures) std::cout << "FAILED " << f << "\n";
  if (!r.valid) {
    std::cout << "INVALID: the pacer ran late (p95 >= 1 ms); open-loop "
                 "latencies include the generator's delay\n";
  }
}

json::Object metrics_json(const std::vector<Metric>& metrics) {
  json::Object o;
  for (const Metric& m : metrics) {
    o.set_raw(m.name, json::Object()
                          .set("value", m.value)
                          .set("unit", m.unit)
                          .set("samples", m.samples)
                          .dump());
  }
  return o;
}

json::Object result_json(const WorkloadResult& r) {
  json::Array failures;
  for (const std::string& f : r.failures) failures.add(f);
  json::Object notes;
  for (const auto& [key, value] : r.notes) notes.set(key, value);
  json::Array layers;
  for (const LayerTime& l : r.layers) {
    layers.add(json::Object()
                   .set("span", l.name)
                   .set("count", l.count)
                   .set("total_s", l.total_s)
                   .set("self_s", l.self_s));
  }
  return json::Object()
      .set("correct", r.correct())
      .set("valid", r.valid)
      .set("attempted", r.attempted)
      .set("failed", r.failures.size())
      .set("recall", r.recall())
      .set_raw("notes", notes.dump())
      .set_raw("failures", failures.dump())
      .set_raw("end_to_end", metrics_json(r.end_to_end).dump())
      .set_raw("per_layer", metrics_json(r.per_layer).dump())
      .set_raw("layers", layers.dump());
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // A fixed threshold turns off glibc's adaptive one, under which session
  // buffers came either from heap an earlier session freed or from fresh
  // pages, depending on thread timing: runs flipped between 2 and 10 ms of
  // set-up and 555 and 660 MiB of peak RSS. Fixed, every large buffer is
  // mapped fresh, as in a restarted backend, and unmapped when freed, so
  // the peak counts live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  Cli cli("bench_ddmc",
          "real-time dedispersion benchmark: four workloads, end-to-end and "
          "per-layer metrics");
  cli.add_option("seed", "workload seed: noise, true DM, pulse phase", "1");
  cli.add_option("workload", "run only this workload (default: all)", "");
  cli.add_option("seconds", "measured seconds per workload", "20");
  cli.add_option("trace", "traced run: write <prefix>.<workload>.trace.json "
                          "and report per-layer metrics", "");
  cli.add_option("json", "write every metric of the run to this path", "");
  cli.add_option("scratch", "directory for tuning-cache files", ".");
  cli.add_flag("repin", "cold-tune each streaming workload's chunk plan and "
                        "print the winner beside its pinned config");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.get_flag("repin")) {
    for (const StreamSpec& spec : stream_workloads()) {
      std::cout << spec.name << " " << spec.engine << "\n  pinned " << spec.config
                << "\n  cold   " << cold_tune(spec) << "\n";
    }
    return 0;
  }

  RunOptions options;
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.seconds = cli.get_double("seconds");
  options.trace_prefix = cli.get("trace");
  options.scratch_dir = cli.get("scratch");
  const std::string only = cli.get("workload");
  const std::vector<std::string> names = workload_names();
  DDMC_REQUIRE(only.empty() || std::find(names.begin(), names.end(), only) !=
                                   names.end(),
               "unknown workload '" + only + "'");
  DDMC_REQUIRE(options.seconds > 0.0, "--seconds must be positive");

  std::vector<WorkloadResult> results;
  for (const StreamSpec& spec : stream_workloads()) {
    if (!only.empty() && only != spec.name) continue;
    results.push_back(run_stream_workload(spec, options));
  }
  if (only.empty() || only == batch_workload().name) {
    results.push_back(run_batch_workload(batch_workload(), options));
  }

  json::Object host;
  host.set("simd", simd::backend_name())
      .set("kernel_threads", kKernelThreads);
  if (options.traced()) {
    // After the workloads, so the probe's arrays never count in their
    // peak RSS.
    const HostCeilings h = probe_host();
    std::cout << "host: copy " << cell(h.copy_gbps) << " GB/s over 2 x "
              << (h.copy_array_bytes >> 20) << " MiB arrays (LLC "
              << (h.llc_bytes >> 20) << " MiB), FMA " << cell(h.fma_gflops)
              << " GFLOP/s, " << kKernelThreads << " threads, median of "
              << h.samples << "\n";
    host.set("copy_gbps", h.copy_gbps)
        .set("fma_gflops", h.fma_gflops)
        .set("copy_array_bytes", h.copy_array_bytes)
        .set("llc_bytes", h.llc_bytes);
    for (WorkloadResult& r : results) add_roofline(r, h);
  }
  for (const WorkloadResult& r : results) print_result(r, options.traced());

  bool correct = true;
  json::Object workloads;
  for (const WorkloadResult& r : results) {
    correct = correct && r.correct();
    workloads.set_raw(r.name, result_json(r).dump());
  }
  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    json::write_file(json_path,
                     json::Object()
                         .set("bench", "bench_ddmc")
                         .set("seed", static_cast<std::size_t>(options.seed))
                         .set("seconds", options.seconds)
                         .set("traced", options.traced())
                         .set_raw("host", host.dump())
                         .set_raw("workloads", workloads.dump()));
  }
  return correct ? 0 : 1;
}
