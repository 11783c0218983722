/// Reproduces **Fig. 4** (Apertif) and **Fig. 5** (LOFAR): the optimal
/// number of accumulator registers per work-item (elem_time × elem_dm)
/// found by auto-tuning, versus the number of trial DMs.
///
/// Paper's qualitative claims this bench should reproduce:
///  - K20 and GTX Titan top the chart (their GK110 allows 255 registers per
///    thread; the GTX 680's GK104 caps at 63), e.g. 25×4 = 100 on Apertif;
///  - under LOFAR fewer registers are chosen (25×2 = 50 on K20/Titan): less
///    reuse to exploit, so the tuner trades registers for parallelism;
///  - the HD7970 keeps its work-items light.

#include <iostream>

#include "paper_sweep.hpp"

namespace {

using namespace ddmc;

void run_setup(const sky::Observation& obs, std::size_t max_dms, bool csv,
               const char* figure) {
  const bench::SetupSweep sweep(obs, max_dms);
  std::cout << "== " << figure << ": tuned registers per work-item, "
            << obs.name() << " ==\n";
  bench::print_series(
      std::cout, sweep, "accumulators per work-item (elem_time x elem_dm)",
      [&](std::size_t d, std::size_t i) {
        const auto& cell = sweep.results[d][i];
        if (!cell.result) return std::string("-");
        const dedisp::KernelConfig& cfg = cell.result->best.config;
        return std::to_string(cfg.accumulators_per_item()) + " (" +
               std::to_string(cfg.elem_time) + "x" +
               std::to_string(cfg.elem_dm) + ")";
      },
      csv);
}

}  // namespace

int main(int argc, char** argv) {
  ddmc::Cli cli("bench_fig04_05_registers",
                "Figs. 4-5: tuned registers per work-item vs #DMs");
  if (!ddmc::bench::parse_bench_cli(cli, argc, argv)) return 0;
  const auto max_dms = static_cast<std::size_t>(cli.get_int("max-dms"));
  const bool csv = cli.get_flag("csv");
  run_setup(ddmc::sky::apertif(), max_dms, csv, "Fig. 4");
  run_setup(ddmc::sky::lofar(), max_dms, csv, "Fig. 5");
  return 0;
}
