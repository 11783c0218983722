/// Subband (two-stage) dedispersion trade-off: the classic follow-up to the
/// paper's brute-force kernel. Compares FLOP counts, measured wall-clock
/// and detection quality of brute force vs. two-stage for several coarse
/// steps — showing the compute saving and the smearing cost.
///
///   ./subband_tradeoff [--dms 64] [--subbands 32] [--threads 0]

#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/reference.hpp"
#include "dedisp/subband.hpp"
#include "sky/detection.hpp"
#include "sky/signal.hpp"

int main(int argc, char** argv) {
  using namespace ddmc;
  Cli cli("subband_tradeoff", "brute force vs two-stage dedispersion");
  cli.add_option("dms", "number of trial DMs", "64");
  cli.add_option("subbands", "subbands for the two-stage method", "32");
  cli.add_option("out-samples", "output window in samples", "5000");
  cli.add_option("threads", "kernel worker threads (0 = machine-sized)", "0");
  if (!cli.parse(argc, argv)) return 0;

  const sky::Observation obs = sky::apertif();
  const auto dms = static_cast<std::size_t>(cli.get_int("dms"));
  const auto subbands = static_cast<std::size_t>(cli.get_int("subbands"));
  const auto out_samples =
      static_cast<std::size_t>(cli.get_int("out-samples"));
  const dedisp::Plan plan =
      dedisp::Plan::with_output_samples(obs, dms, out_samples);

  // A pulsar on a noisy floor; padded input for the split-delay reads.
  sky::PulsarParams pulsar;
  pulsar.dm = obs.dm_value(dms / 2);
  pulsar.period_s = 0.1;
  pulsar.width_s = 0.0005;
  pulsar.amplitude = 2.0;
  sky::NoiseParams noise;
  noise.sigma = 1.0;
  Array2D<float> data(obs.channels(), plan.in_samples() + 4);
  sky::generate_noise(obs, data.view(), noise);
  sky::inject_pulsar(obs, data.view(), pulsar);

  // Brute force (tiled host kernel).
  const WorkerPool workers(static_cast<std::size_t>(cli.get_int("threads")));
  Stopwatch clock;
  const Array2D<float> brute = dedisp::dedisperse_cpu(
      plan, dedisp::KernelConfig{50, 2, 4, 2}, data.cview(), {},
      workers.get());
  const double brute_ms = clock.milliseconds();
  const sky::DetectionResult brute_hit = sky::detect_best_dm(brute.cview());

  std::cout << "== brute force vs two-stage, " << obs.name() << ", " << dms
            << " DMs x " << out_samples << " samples ==\n"
            << "brute force: " << TextTable::num(plan.total_flop() * 1e-6, 0)
            << " MFLOP, " << TextTable::num(brute_ms, 1) << " ms, detected DM "
            << obs.dm_value(brute_hit.best_trial) << " at S/N "
            << TextTable::num(brute_hit.best_snr, 1) << "\n\n";

  TextTable table({"coarse step", "MFLOP", "vs brute", "time", "smear",
                   "detected DM", "S/N"});
  Array2D<float> two_stage(plan.dms(), plan.out_samples());
  dedisp::SubbandWorkspace workspace;
  for (std::size_t step : {1ul, 2ul, 4ul, 8ul, 16ul}) {
    if (dms % step != 0) continue;
    const dedisp::SubbandConfig cfg{subbands, step};
    clock.reset();
    dedisp::dedisperse_subband(plan, cfg, data.cview(), two_stage.view(),
                               workspace, {}, workers.get());
    const double ms = clock.milliseconds();
    const sky::DetectionResult hit = sky::detect_best_dm(two_stage.cview());
    const double flop = dedisp::subband_flop(plan, cfg);
    table.add_row(
        {std::to_string(step), TextTable::num(flop * 1e-6, 0),
         TextTable::num(plan.total_flop() / flop, 1) + "x less",
         TextTable::num(ms, 1) + " ms",
         std::to_string(dedisp::subband_max_delay_error(plan, cfg)) +
             " samples",
         TextTable::num(obs.dm_value(hit.best_trial), 2),
         TextTable::num(hit.best_snr, 1)});
  }
  table.print(std::cout);
  std::cout << "\n(the smear column bounds the intra-subband delay error; "
               "once it passes the pulse width, S/N degrades)\n";
  return 0;
}
