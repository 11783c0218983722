/// Workload table, synthetic sky, output check and small sample helpers.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/random.hpp"
#include "common/statistics.hpp"
#include "ddmc_bench.hpp"
#include "dedisp/quantize.hpp"
#include "dedisp/reference.hpp"
#include "sky/signal.hpp"

namespace ddmc::ddmc_bench {

dedisp::CpuKernelOptions kernel_options() {
  dedisp::CpuKernelOptions cpu;
  cpu.threads = kKernelThreads;
  return cpu;
}

engine::EngineOptions engine_options() {
  engine::EngineOptions options;
  options.cpu = kernel_options();
  return options;
}

// Why each workload exists is recorded in README.md. The pinned configs are
// what cold tune_guided races on one kernel thread of a four-vCPU Xeon
// picked for these plans, or ran within noise of; README.md says how to
// re-pin them.
std::vector<StreamSpec> stream_workloads() {
  return {
      {"apertif_rt", sky::apertif(), 256, 2000, "cpu_tiled",
       "channel_block=32;elem_dm=8;elem_time=50;unroll=4;wi_dm=16;wi_time=8",
       0.5},
      {"lofar_rt", sky::lofar(), 64, 20000, "cpu_tiled_u8",
       "elem_time=50;unroll=4;wi_dm=4;wi_time=50", 3.0},
      {"apertif_lowlat", sky::apertif(), 32, 400, "cpu_tiled",
       "channel_block=32;elem_dm=8;elem_time=50;unroll=4;wi_dm=4;wi_time=4",
       0.5},
  };
}

BatchSpec batch_workload() {
  return {"tune_cold", sky::apertif(), 32, 1000,
          {"cpu_tiled", "cpu_tiled_u8", "subband", "fdmt"}, 1.0, 3};
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const StreamSpec& s : stream_workloads()) names.push_back(s.name);
  names.push_back(batch_workload().name);
  return names;
}

ConstView2D<float> SkyInput::window(std::size_t offset,
                                    std::size_t cols) const {
  const std::size_t start = offset % period_cols;
  DDMC_REQUIRE(start + cols <= samples.cols(),
               "window reaches past the replay block");
  return ConstView2D<float>(&samples(0, start), samples.rows(), cols,
                            samples.pitch());
}

SkyInput make_sky(const dedisp::Plan& plan, std::size_t pulse_period,
                  double amplitude, std::uint64_t seed, std::size_t tail) {
  const sky::Observation& obs = plan.observation();
  const std::size_t rate = obs.samples_per_second();
  SkyInput sky;
  // A 2 s block replayed end to end; the pulse period divides it, so the
  // replay has no seam.
  sky.period_cols = 2 * rate;
  DDMC_REQUIRE(sky.period_cols % pulse_period == 0,
               "pulse period must divide the replay block");
  DDMC_REQUIRE(tail <= sky.period_cols, "tail longer than the block");

  Rng rng(seed);
  sky.true_trial = plan.dms() / 4 + rng.next_below(plan.dms() / 2);
  const std::size_t phase = rng.next_below(pulse_period);
  sky::NoiseParams noise;
  noise.seed = rng.next_u64();

  sky.samples = Array2D<float>(plan.channels(), sky.period_cols + tail);
  sky::generate_noise(
      obs,
      View2D<float>(sky.samples.view().data(), plan.channels(),
                    sky.period_cols, sky.samples.pitch()),
      noise);
  for (std::size_t ch = 0; ch < plan.channels(); ++ch) {
    std::memcpy(&sky.samples(ch, sky.period_cols), &sky.samples(ch, 0),
                tail * sizeof(float));
  }

  // Start the pulse train early enough that the dispersed tails of pulses
  // emitted before column 0 are in the block too: inject_pulsar clips
  // negative arrival times, so the result is the periodic signal itself.
  sky::PulsarParams pulsar;
  pulsar.dm = obs.dm_value(sky.true_trial);
  pulsar.period_s = static_cast<double>(pulse_period) / obs.sampling_rate();
  // One sample wide: a wider pulse flattens the S/N across neighbouring
  // trials on Apertif, where one trial step moves the lowest channel by
  // about three samples, and the ±1-trial recall test would fail by noise.
  pulsar.width_s = 1.0 / obs.sampling_rate();
  pulsar.amplitude = amplitude;
  const std::size_t lead = plan.max_delay() / pulse_period + 2;
  pulsar.first_pulse_s =
      (static_cast<double>(phase) -
       static_cast<double>(lead * pulse_period)) /
      obs.sampling_rate();
  sky::inject_pulsar(obs, sky.samples.view(), pulsar);
  return sky;
}

std::string verify_output(const engine::DedispEngine& engine,
                          const dedisp::Plan& plan, ConstView2D<float> input,
                          ConstView2D<float> output) {
  telemetry::TraceSpan span("bench.verify");
  const engine::EngineCapabilities& caps = engine.capabilities();
  double tolerance = 0.0;
  if (caps.bitwise_exact) {
    tolerance = 0.0;
  } else if (caps.input_element_bytes == 1) {
    tolerance = dedisp::quantization_error_bound(plan, engine.options().quant);
  } else {
    return "";  // approximate engine: judged by recall
  }
  const Array2D<float> ref = dedisp::dedisperse_reference(plan, input);
  for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
    for (std::size_t t = 0; t < plan.out_samples(); ++t) {
      const double got = output(dm, t);
      const double want = ref(dm, t);
      const bool ok = caps.bitwise_exact
                          ? std::memcmp(&output(dm, t), &ref(dm, t),
                                        sizeof(float)) == 0
                          : std::abs(got - want) <= tolerance;
      if (!ok) {
        std::ostringstream os;
        os << engine.id() << " output (" << dm << ", " << t << ") = " << got
           << ", reference " << want << " (tolerance " << tolerance << ")";
        return os.str();
      }
    }
  }
  return "";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  // "5" resets VmHWM to the current RSS (proc(5), clear_refs).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  return ddmc::percentile(values, p);
}

}  // namespace ddmc::ddmc_bench
