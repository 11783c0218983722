/// Reproduces **Fig. 11** (Apertif) and **Fig. 12** (LOFAR): performance in
/// the 0-DM scenario of §IV-C — every trial DM forced to zero, so every
/// dedispersed series is identical and data-reuse is theoretically perfect.
///
/// Paper's qualitative claims this bench should reproduce:
///  - Apertif barely changes versus Fig. 6 (its real reuse was already
///    saturating the hardware);
///  - LOFAR rises dramatically, to Apertif-like levels: the observational
///    setup, not the algorithm, was the limit;
///  - even "unbounded AI" does not reach the compute peak: hardware
///    (instruction issue, LDS throughput) caps it — dedispersion stays
///    memory-bound in every *real* scenario.

#include <iostream>

#include "paper_sweep.hpp"

namespace {

using namespace ddmc;

void run_setup(const sky::Observation& real_obs, std::size_t max_dms,
               bool csv, const char* figure) {
  const bench::SetupSweep zero(real_obs.zero_dm_variant(), max_dms);
  const bench::SetupSweep real(real_obs, max_dms);
  std::cout << "== " << figure << ": performance with perfect reuse "
            << "(all trial DMs = 0), " << real_obs.name() << " ==\n";
  bench::print_series(
      std::cout, zero, "GFLOP/s per device, 0-DM scenario",
      [&](std::size_t d, std::size_t i) {
        const auto& cell = zero.results[d][i];
        return cell.result ? TextTable::num(cell.result->best.perf.gflops, 1)
                           : std::string("-");
      },
      csv);
  bench::print_series(
      std::cout, zero, "speedup of 0-DM over the real delays (Fig. 6/7)",
      [&](std::size_t d, std::size_t i) {
        const auto& z = zero.results[d][i];
        const auto& r = real.results[d][i];
        if (!z.result || !r.result) return std::string("-");
        return TextTable::num(
            z.result->best.perf.gflops / r.result->best.perf.gflops, 2);
      },
      csv);
}

}  // namespace

int main(int argc, char** argv) {
  ddmc::Cli cli("bench_fig11_12_zerodm",
                "Figs. 11-12: the 0-DM perfect-reuse scenario");
  if (!ddmc::bench::parse_bench_cli(cli, argc, argv)) return 0;
  const auto max_dms = static_cast<std::size_t>(cli.get_int("max-dms"));
  const bool csv = cli.get_flag("csv");
  run_setup(ddmc::sky::apertif(), max_dms, csv, "Fig. 11");
  run_setup(ddmc::sky::lofar(), max_dms, csv, "Fig. 12");
  return 0;
}
