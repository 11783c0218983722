/// Reproduces **Fig. 15** (Apertif) and **Fig. 16** (LOFAR): the speedup of
/// the tuned many-core kernel over the optimized CPU implementation of
/// §V-D (Intel Xeon E5-2620; threads over DMs and time blocks, 8-sample
/// AVX chunks) — both sides evaluated through the same performance model.
///
/// Paper's qualitative claims this bench should reproduce:
///  - Apertif: tens× for the GPUs (up to ~60× on the HD7970), ~10× for the
///    Phi;
///  - LOFAR: compressed to ≈2–13×;
///  - accelerators are an order of magnitude ahead of a server CPU on this
///    kernel, which is the paper's case for many-core dedispersion.

#include <iostream>

#include "paper_sweep.hpp"

namespace {

using namespace ddmc;

void run_setup(const sky::Observation& obs, std::size_t max_dms, bool csv,
               const char* figure) {
  const bench::SetupSweep sweep(obs, max_dms);
  const ocl::DeviceModel cpu = ocl::intel_xeon_e5_2620();

  std::vector<double> cpu_gflops;
  cpu_gflops.reserve(sweep.instances.size());
  for (const auto& analysis : sweep.analyses) {
    cpu_gflops.push_back(
        ocl::estimate_cpu_baseline(cpu, analysis.plan()).gflops);
  }

  std::cout << "== " << figure << ": speedup over the " << cpu.name
            << " CPU implementation, " << obs.name() << " ==\n";
  if (!csv) {
    std::cout << "CPU baseline at the largest instance: "
              << TextTable::num(cpu_gflops.back(), 2) << " GFLOP/s\n\n";
  }
  bench::print_series(
      std::cout, sweep, "tuned accelerator GFLOP/s / CPU GFLOP/s",
      [&](std::size_t d, std::size_t i) {
        const auto& cell = sweep.results[d][i];
        if (!cell.result || cpu_gflops[i] <= 0.0) return std::string("-");
        return TextTable::num(cell.result->best.perf.gflops / cpu_gflops[i],
                              1);
      },
      csv);
}

}  // namespace

int main(int argc, char** argv) {
  ddmc::Cli cli("bench_fig15_16_cpu_speedup",
                "Figs. 15-16: speedup over the CPU implementation");
  if (!ddmc::bench::parse_bench_cli(cli, argc, argv)) return 0;
  const auto max_dms = static_cast<std::size_t>(cli.get_int("max-dms"));
  const bool csv = cli.get_flag("csv");
  run_setup(ddmc::sky::apertif(), max_dms, csv, "Fig. 15");
  run_setup(ddmc::sky::lofar(), max_dms, csv, "Fig. 16");
  return 0;
}
