/// Reproduces **Fig. 13** (Apertif) and **Fig. 14** (LOFAR): the speedup of
/// the per-instance auto-tuned kernel over the best *fixed* configuration —
/// the single configuration that, valid on all instances, maximizes the
/// summed GFLOP/s (§V-D's stand-in for expert manual tuning).
///
/// Paper's qualitative claims this bench should reproduce:
///  - Apertif: tuned ≈3× the fixed configuration on the GPUs, a smaller
///    gain on the Xeon Phi;
///  - LOFAR: gains shrink (the optimum is more stable there): ≈1.5× for
///    NVIDIA, close to 1× for the HD7970 and Phi;
///  - speedup never drops below 1 (the tuned optimum dominates by
///    definition).

#include <iostream>

#include "paper_sweep.hpp"
#include "tuner/fixed_config.hpp"

namespace {

using namespace ddmc;

void run_setup(const sky::Observation& obs, std::size_t max_dms, bool csv,
               const char* figure) {
  const bench::SetupSweep sweep(obs, max_dms);
  std::cout << "== " << figure << ": speedup of tuned over best fixed "
            << "configuration, " << obs.name() << " ==\n";

  // Fixed config per device, over the instances that fit its memory.
  std::vector<std::vector<double>> fixed_gflops(sweep.devices.size());
  for (std::size_t d = 0; d < sweep.devices.size(); ++d) {
    std::vector<const ocl::PlanAnalysis*> instances;
    std::vector<std::size_t> index_map;
    for (std::size_t i = 0; i < sweep.instances.size(); ++i) {
      if (sweep.results[d][i].result) {
        instances.push_back(&sweep.analyses[i]);
        index_map.push_back(i);
      }
    }
    fixed_gflops[d].assign(sweep.instances.size(), 0.0);
    const tuner::FixedConfigResult fixed =
        tuner::best_fixed_config(sweep.devices[d], instances);
    if (!csv) {
      std::cout << sweep.devices[d].name
                << ": fixed = " << fixed.config.to_string() << "\n";
    }
    for (std::size_t k = 0; k < index_map.size(); ++k) {
      fixed_gflops[d][index_map[k]] = fixed.per_instance_gflops[k];
    }
  }
  if (!csv) std::cout << "\n";

  bench::print_series(
      std::cout, sweep, "tuned GFLOP/s / fixed GFLOP/s (higher is better)",
      [&](std::size_t d, std::size_t i) {
        const auto& cell = sweep.results[d][i];
        if (!cell.result || fixed_gflops[d][i] <= 0.0) return std::string("-");
        return TextTable::num(
            cell.result->best.perf.gflops / fixed_gflops[d][i], 2);
      },
      csv);
}

}  // namespace

int main(int argc, char** argv) {
  ddmc::Cli cli("bench_fig13_14_fixed_speedup",
                "Figs. 13-14: tuned vs best fixed configuration");
  if (!ddmc::bench::parse_bench_cli(cli, argc, argv)) return 0;
  const auto max_dms = static_cast<std::size_t>(cli.get_int("max-dms"));
  const bool csv = cli.get_flag("csv");
  run_setup(ddmc::sky::apertif(), max_dms, csv, "Fig. 13");
  run_setup(ddmc::sky::lofar(), max_dms, csv, "Fig. 14");
  return 0;
}
