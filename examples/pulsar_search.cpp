/// Pulsar search demo: a full single-beam search over a DM ladder, showing
/// *why* the brute-force search of §II is necessary — the S/N collapses off
/// the true trial, so the DM grid cannot be pruned.
///
/// Prints the per-trial peak S/N profile around the injected DM, plus the
/// smearing behaviour that motivates fine DM steps.
///
///   ./pulsar_search [--dms 128] [--dm 9.25] [--engine cpu_tiled]
///                   [--threads 0] [--snr-table]

#include <algorithm>
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "pipeline/dedisperser.hpp"
#include "sky/delay.hpp"
#include "sky/detection.hpp"
#include "sky/signal.hpp"

int main(int argc, char** argv) {
  using namespace ddmc;
  Cli cli("pulsar_search", "brute-force DM search on a synthetic pulsar");
  cli.add_option("dms", "number of trial DMs", "128");
  cli.add_option("dm", "true pulsar dispersion measure [pc/cm^3]", "9.25");
  cli.add_option("amplitude", "pulse amplitude over a sigma=1 floor", "1.5");
  cli.add_option("engine", "execution engine (registry id)", "cpu_tiled");
  cli.add_option("threads", "kernel worker threads (0 = machine-sized)", "0");
  cli.add_flag("snr-table", "print the whole per-trial S/N profile");
  if (!cli.parse(argc, argv)) return 0;

  const sky::Observation obs = sky::apertif();
  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const double true_dm = cli.get_double("dm");

  pipeline::Dedisperser dd(obs, dms, cli.get("engine"));
  // A tiled-kernel shape; engines without those axes keep their defaults.
  const dedisp::KernelConfig tile{50, 2, 4, 2};
  dd.set_config(
      dd.engine().adapt_config(dd.plan(), engine::encode_kernel_config(tile)));
  dedisp::CpuKernelOptions cpu_options;
  cpu_options.threads = static_cast<std::size_t>(cli.get_int("threads"));
  dd.set_cpu_options(cpu_options);

  sky::PulsarParams pulsar;
  pulsar.dm = true_dm;
  pulsar.period_s = 0.2;
  pulsar.width_s = 0.0002;  // 4 samples: narrow enough to localize the DM
  pulsar.amplitude = cli.get_double("amplitude");
  sky::NoiseParams noise;
  noise.sigma = 1.0;
  noise.seed = 2024;
  const Array2D<float> data = sky::make_observation_data(
      obs, dd.plan().in_samples(), pulsar, noise);

  const Array2D<float> out = dd.dedisperse(data.cview());

  // Per-trial S/N profile.
  std::vector<double> snr(dms);
  for (std::size_t trial = 0; trial < dms; ++trial) {
    snr[trial] = sky::series_snr(out.row(trial));
  }
  const std::size_t best = static_cast<std::size_t>(
      std::max_element(snr.begin(), snr.end()) - snr.begin());

  // The physical DM resolution: a w-second boxcar cannot separate trials
  // whose band-edge delays differ by less than w.
  const double sweep_per_dm =
      sky::dispersion_delay_seconds(1.0, obs.f_min_mhz(), obs.f_max_mhz());
  const double dm_resolution = pulsar.width_s / sweep_per_dm;
  std::cout << "injected DM " << true_dm << " pc/cm^3; searching " << dms
            << " trials with step " << obs.dm_step()
            << " (pulse width limits localization to +-" << dm_resolution
            << ")\n"
            << "best trial: " << best << " (DM " << obs.dm_value(best)
            << ") with S/N " << snr[best] << " -> "
            << (std::abs(obs.dm_value(best) - true_dm) <=
                        std::max(dm_resolution, obs.dm_step())
                    ? "recovered"
                    : "MISSED")
            << "\n\n";

  // The smearing profile around the peak: §II's "slightly off" collapse.
  std::cout << "S/N around the detection (note the collapse off-peak):\n";
  TextTable profile({"trial", "DM", "peak S/N", "bar"});
  const std::size_t lo = best >= 6 ? best - 6 : 0;
  const std::size_t hi = std::min(dms, best + 7);
  for (std::size_t trial = lo; trial < hi; ++trial) {
    const std::size_t bar_len = static_cast<std::size_t>(
        std::max(0.0, snr[trial]) * 50.0 / std::max(1.0, snr[best]));
    profile.add_row({std::to_string(trial),
                     TextTable::num(obs.dm_value(trial), 2),
                     TextTable::num(snr[trial], 2),
                     std::string(bar_len, '#') +
                         (trial == best ? "  <- detection" : "")});
  }
  profile.print(std::cout);

  if (cli.get_flag("snr-table")) {
    std::cout << "\nfull profile:\n";
    TextTable full({"trial", "DM", "peak S/N"});
    for (std::size_t trial = 0; trial < dms; ++trial) {
      full.add_row({std::to_string(trial),
                    TextTable::num(obs.dm_value(trial), 2),
                    TextTable::num(snr[trial], 2)});
    }
    full.print(std::cout);
  }
  return 0;
}
