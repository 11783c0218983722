/// Reproduces **Fig. 2** (Apertif) and **Fig. 3** (LOFAR): the optimal
/// number of work-items per work-group found by auto-tuning, versus the
/// number of trial DMs, for the five Table I accelerators.
///
/// Paper's qualitative claims this bench should reproduce:
///  - the GTX 680 needs the most work-items (~1000–1024), the Xeon Phi the
///    fewest (16), the HD7970 pins its 256 hardware limit;
///  - optima are noisier at small instances and stabilize for larger ones;
///  - the same work-item count hides different 2-D shapes per setup (e.g.
///    32×32 on Apertif vs 250×4 on LOFAR for the GTX 680), reflecting how
///    much data-reuse the setup exposes.
///
/// --details prints the full 4-parameter tuples (the §IV-A output).

#include <iostream>

#include "paper_sweep.hpp"

namespace {

using namespace ddmc;

void run_setup(const sky::Observation& obs, std::size_t max_dms, bool csv,
               bool details, const char* figure) {
  const bench::SetupSweep sweep(obs, max_dms);
  std::cout << "== " << figure << ": tuned work-items per work-group, "
            << obs.name() << " ==\n";
  bench::print_series(
      std::cout, sweep, "work-items per work-group (wi_time x wi_dm)",
      [&](std::size_t d, std::size_t i) {
        const auto& cell = sweep.results[d][i];
        if (!cell.result) return std::string("-");
        const dedisp::KernelConfig& cfg = cell.result->best.config;
        return std::to_string(cfg.work_group_size()) + " (" +
               std::to_string(cfg.wi_time) + "x" +
               std::to_string(cfg.wi_dm) + ")";
      },
      csv);
  if (details) {
    bench::print_series(
        std::cout, sweep, "full tuples {wi_time,wi_dm,elem_time,elem_dm}",
        [&](std::size_t d, std::size_t i) {
          const auto& cell = sweep.results[d][i];
          if (!cell.result) return std::string("-");
          const dedisp::KernelConfig& c = cell.result->best.config;
          return std::to_string(c.wi_time) + "/" + std::to_string(c.wi_dm) +
                 "/" + std::to_string(c.elem_time) + "/" +
                 std::to_string(c.elem_dm);
        },
        csv);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ddmc::Cli cli("bench_fig02_03_workitems",
                "Figs. 2-3: tuned work-items per work-group vs #DMs");
  cli.add_flag("details", "also print the full 4-parameter tuples");
  if (!ddmc::bench::parse_bench_cli(cli, argc, argv)) return 0;
  const auto max_dms = static_cast<std::size_t>(cli.get_int("max-dms"));
  const bool csv = cli.get_flag("csv");
  const bool details = cli.get_flag("details");
  run_setup(ddmc::sky::apertif(), max_dms, csv, details, "Fig. 2");
  run_setup(ddmc::sky::lofar(), max_dms, csv, details, "Fig. 3");
  return 0;
}
