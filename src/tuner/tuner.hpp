#pragma once
/// \file tuner.hpp
/// \brief The auto-tuner: sweep every meaningful configuration, keep the best.
///
/// §IV-A: "The optimal configuration is chosen as the one that produces the
/// highest number of single precision floating point operations per second."
/// The sweep also retains the whole performance population, from which the
/// paper's impact statistics are derived: the SNR of the optimum (Figs. 8–9),
/// the configuration histogram (Fig. 10) and the Chebyshev guessing bound.
///
/// Part of ddmc_paper: the production library tunes by measurement
/// (tuner/strategy.hpp, tuner/tuning_cache.hpp) and never links this file.

#include <optional>
#include <string>
#include <vector>

#include "common/statistics.hpp"
#include "dedisp/kernel_config.hpp"
#include "ocl/perf_model.hpp"
#include "tuner/results_io.hpp"

namespace ddmc::pipeline {
class Dedisperser;
}

namespace ddmc::tuner {

struct ConfigPerf {
  dedisp::KernelConfig config;
  ocl::PerfEstimate perf;
};

struct TuningOptions {
  /// Retain every evaluated configuration (needed for histograms); the
  /// optimum and the summary statistics are always computed.
  bool keep_population = false;
};

struct TuningResult {
  std::string device_name;
  std::string observation_name;
  std::size_t dms = 0;
  ConfigPerf best;
  StatsSummary stats;              ///< over GFLOP/s of all valid configs
  std::size_t evaluated = 0;       ///< valid configurations measured
  std::size_t skipped = 0;         ///< configurations rejected as invalid
  std::vector<ConfigPerf> population;  ///< filled iff keep_population

  /// SNR of the optimum: (best − mean) / σ of the population.
  double snr_of_optimum() const {
    return snr(best.perf.gflops, stats.mean, stats.stddev);
  }
};

/// All candidate configurations of \p space that pass the cheap validity
/// checks for (device, plan): tile divisibility, the device work-group
/// limit and the per-thread register cap. Deeper constraints (local-memory
/// capacity, residency) are enforced by the performance model, which
/// throws ddmc::config_error — tune() counts those as skipped.
/// Deterministic order (lexicographic in the parameter ladders); the
/// host-only axes stay at their defaults, since the OpenCL model has no
/// notion of them.
std::vector<dedisp::KernelConfig> enumerate_configs(
    const ocl::DeviceModel& device, const dedisp::Plan& plan,
    const dedisp::SearchSpace& space = dedisp::default_search_space());

/// Sweep \p configs (or the default enumerated space when empty) on the
/// performance model and return the optimum plus population statistics.
/// Throws ddmc::config_error only if *no* configuration is valid.
TuningResult tune(const ocl::DeviceModel& device,
                  const ocl::PlanAnalysis& analysis,
                  const TuningOptions& options = {},
                  const std::vector<dedisp::KernelConfig>& configs = {});

/// The persisted tuple of a sweep: its optimum and headline statistics.
ResultRow to_row(const TuningResult& result);

/// Tune \p dd's plan for \p device on the performance model and set the
/// optimum as its config through the engine's adapt_config: the tiled
/// engines run the model's tile shape, other engines keep their defaults.
/// Returns the full tuning result for inspection.
TuningResult tune_for(pipeline::Dedisperser& dd,
                      const ocl::DeviceModel& device);

}  // namespace ddmc::tuner
