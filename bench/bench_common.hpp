#pragma once
/// Shared machinery for the figure benches: run the paper's full sweep
/// (5 accelerators × 12 instances × 2 setups) on the performance model and
/// print gnuplot-ready series in both human and CSV form.
///
/// Every figure bench accepts --max-dms to shorten the instance ladder and
/// --csv to emit only machine-readable output. The wall-clock benches
/// (bench_host_kernels, bench_host_tuning) accept --json <path> and persist
/// their results through the minimal JSON emitters below, seeding the perf
/// trajectory across PRs.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/expect.hpp"
#include "common/json.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "common/table.hpp"
#include "dedisp/plan.hpp"
#include "ocl/device_presets.hpp"
#include "ocl/perf_model.hpp"
#include "sky/observation.hpp"
#include "tuner/tuner.hpp"

namespace ddmc::bench {

struct SweepCell {
  std::optional<tuner::TuningResult> result;  ///< empty: out of device memory
};

/// One observational setup's sweep: results[device][instance].
struct SetupSweep {
  sky::Observation obs;
  std::vector<std::size_t> instances;
  std::vector<ocl::DeviceModel> devices;
  std::vector<std::vector<SweepCell>> results;
  /// Plan analyses aligned with instances (shared across devices).
  std::vector<ocl::PlanAnalysis> analyses;

  SetupSweep(const sky::Observation& o, std::size_t max_dms,
             bool keep_population = false)
      : obs(o),
        instances(sky::paper_instances(max_dms)),
        devices(ocl::table1_devices()) {
    analyses.reserve(instances.size());
    for (std::size_t dms : instances) {
      analyses.emplace_back(dedisp::Plan(obs, dms));
    }
    tuner::TuningOptions opt;
    opt.keep_population = keep_population;
    results.resize(devices.size());
    for (std::size_t d = 0; d < devices.size(); ++d) {
      results[d].resize(instances.size());
      for (std::size_t i = 0; i < instances.size(); ++i) {
        if (!ocl::fits_in_memory(devices[d], analyses[i].plan())) {
          continue;  // §IV-A: instance exceeds device memory
        }
        results[d][i].result = tuner::tune(devices[d], analyses[i], opt);
      }
    }
  }
};

/// Standard CLI for figure benches. Returns false if --help was requested.
inline bool parse_bench_cli(Cli& cli, int argc, const char* const* argv) {
  cli.add_option("max-dms", "largest instance of the DM ladder", "4096");
  cli.add_flag("csv", "emit only CSV output");
  return cli.parse(argc, argv);
}

// ------------------------------------------------------------------- json --
// One JSON emission path for the whole repository: the builders live in
// common/json.hpp (the telemetry exporters share them); these aliases keep
// the benches' historical bench::JsonObject spelling.

using JsonObject = json::Object;
using JsonArray = json::Array;

inline std::string json_escape(const std::string& s) {
  return json::escape(s);
}

inline std::string json_number(double v) { return json::number(v); }

/// Write \p root to \p path (pretty enough: one object, trailing newline).
/// Throws ddmc::invalid_argument when the file cannot be opened.
inline void write_json_file(const std::string& path, const JsonObject& root) {
  json::write_file(path, root);
}

/// The machine a recorded file was measured on: the CPU model (from
/// /proc/cpuinfo, empty where that is unreadable), its hardware threads
/// and the compiled SIMD backend.
inline JsonObject host_description() {
  std::string model;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; model.empty() && std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != line.npos) {
      model = line.substr(line.find(':') + 1);
      model.erase(0, model.find_first_not_of(' '));
    }
  }
  return JsonObject()
      .set("cpu_model", model)
      .set("hardware_threads", hardware_workers())
      .set("simd_backend", simd::backend_name());
}

/// Print a per-device series table: one row per instance, one column per
/// device, cell text from `cell(device_index, instance_index)`.
template <typename CellFn>
void print_series(std::ostream& os, const SetupSweep& sweep,
                  const std::string& value_label, CellFn cell, bool csv) {
  std::vector<std::string> header = {"DMs"};
  for (const auto& dev : sweep.devices) header.push_back(dev.name);
  TextTable table(header);
  for (std::size_t i = 0; i < sweep.instances.size(); ++i) {
    std::vector<std::string> row = {std::to_string(sweep.instances[i])};
    for (std::size_t d = 0; d < sweep.devices.size(); ++d) {
      row.push_back(cell(d, i));
    }
    table.add_row(std::move(row));
  }
  if (csv) {
    os << "# " << value_label << "\n";
    table.print_csv(os);
  } else {
    os << value_label << "\n";
    table.print(os);
    os << "\n";
  }
}

}  // namespace ddmc::bench
