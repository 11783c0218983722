#pragma once
/// The figure benches' sweep: run the paper's full sweep (5 accelerators ×
/// 12 instances × 2 setups) on the performance model and print
/// gnuplot-ready series in both human and CSV form. Every figure bench
/// accepts --max-dms to shorten the instance ladder and --csv to emit only
/// machine-readable output. Links ddmc_paper.

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ocl/device_presets.hpp"
#include "ocl/perf_model.hpp"
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
