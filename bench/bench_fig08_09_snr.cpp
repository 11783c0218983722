/// Reproduces **Fig. 8** (Apertif) and **Fig. 9** (LOFAR): the
/// signal-to-noise ratio of the tuned optimum — how many standard deviations
/// the best configuration sits above the mean of all meaningful
/// configurations — versus the number of trial DMs.
///
/// Paper's qualitative claims this bench should reproduce:
///  - SNRs of roughly 2–4 across platforms and instances;
///  - by Chebyshev's inequality, the probability of *guessing* a
///    configuration at least that good is below 1/SNR² (the paper quotes
///    <39% best case, <5% worst case).

#include <iostream>

#include "paper_sweep.hpp"
#include "common/statistics.hpp"

namespace {

using namespace ddmc;

void run_setup(const sky::Observation& obs, std::size_t max_dms, bool csv,
               const char* figure) {
  const bench::SetupSweep sweep(obs, max_dms);
  std::cout << "== " << figure << ": SNR of the tuned optimum, " << obs.name()
            << " ==\n";
  bench::print_series(
      std::cout, sweep, "(best - mean) / stddev over all configurations",
      [&](std::size_t d, std::size_t i) {
        const auto& cell = sweep.results[d][i];
        return cell.result
                   ? TextTable::num(cell.result->snr_of_optimum(), 2)
                   : std::string("-");
      },
      csv);
  bench::print_series(
      std::cout, sweep,
      "Chebyshev bound on the probability of guessing this well",
      [&](std::size_t d, std::size_t i) {
        const auto& cell = sweep.results[d][i];
        if (!cell.result) return std::string("-");
        return TextTable::num(
            chebyshev_bound(cell.result->snr_of_optimum()), 3);
      },
      csv);
}

}  // namespace

int main(int argc, char** argv) {
  ddmc::Cli cli("bench_fig08_09_snr",
                "Figs. 8-9: SNR of the tuned optimum vs #DMs");
  if (!ddmc::bench::parse_bench_cli(cli, argc, argv)) return 0;
  const auto max_dms = static_cast<std::size_t>(cli.get_int("max-dms"));
  const bool csv = cli.get_flag("csv");
  run_setup(ddmc::sky::apertif(), max_dms, csv, "Fig. 8");
  run_setup(ddmc::sky::lofar(), max_dms, csv, "Fig. 9");
  return 0;
}
