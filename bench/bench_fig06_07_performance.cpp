/// Reproduces **Fig. 6** (Apertif) and **Fig. 7** (LOFAR): performance of
/// the auto-tuned dedispersion kernel, in GFLOP/s, versus the number of
/// trial DMs, for the five Table I accelerators — plus the "real-time" line.
///
/// Paper's qualitative claims this bench should reproduce:
///  - better-than-linear ramp, then a plateau;
///  - Apertif: HD7970 on top (≈2× the NVIDIA cluster), Xeon Phi last (≈7.5×
///    below the HD7970);
///  - LOFAR: overall lower and compressed; bandwidth ranking (HD7970/Titan
///    top); GPUs ≈2.5× the Phi;
///  - every GPU above the real-time line, the Phi below it on Apertif.

#include <iostream>

#include "paper_sweep.hpp"

namespace {

using namespace ddmc;

void run_setup(const sky::Observation& obs, std::size_t max_dms, bool csv,
               const char* figure) {
  const bench::SetupSweep sweep(obs, max_dms);
  std::cout << "== " << figure << ": tuned dedispersion performance, "
            << obs.name() << " (GFLOP/s; higher is better) ==\n";
  bench::print_series(
      std::cout, sweep, "GFLOP/s per device (\"-\" = exceeds device memory)",
      [&](std::size_t d, std::size_t i) {
        const auto& cell = sweep.results[d][i];
        return cell.result ? TextTable::num(cell.result->best.perf.gflops, 1)
                           : std::string("-");
      },
      csv);

  // The real-time threshold: dedisperse one second in at most one second.
  TextTable rt({"DMs", "real-time GFLOP/s"});
  for (std::size_t dms : sweep.instances) {
    rt.add_row({std::to_string(dms),
                TextTable::num(ocl::real_time_gflops(obs, dms), 2)});
  }
  if (csv) {
    std::cout << "# real-time threshold\n";
    rt.print_csv(std::cout);
  } else {
    std::cout << "real-time threshold (must exceed to keep up)\n";
    rt.print(std::cout);
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  ddmc::Cli cli("bench_fig06_07_performance",
                "Figs. 6-7: tuned performance vs #DMs per accelerator");
  if (!ddmc::bench::parse_bench_cli(cli, argc, argv)) return 0;
  const auto max_dms = static_cast<std::size_t>(cli.get_int("max-dms"));
  const bool csv = cli.get_flag("csv");
  run_setup(ddmc::sky::apertif(), max_dms, csv, "Fig. 6");
  run_setup(ddmc::sky::lofar(), max_dms, csv, "Fig. 7");
  return 0;
}
