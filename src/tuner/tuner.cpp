#include "tuner/tuner.hpp"

#include "common/expect.hpp"
#include "engine/engine_config.hpp"
#include "pipeline/dedisperser.hpp"

namespace ddmc::tuner {

std::vector<dedisp::KernelConfig> enumerate_configs(
    const ocl::DeviceModel& device, const dedisp::Plan& plan,
    const dedisp::SearchSpace& space) {
  std::vector<dedisp::KernelConfig> out;
  for (std::size_t wt : space.wi_time) {
    for (std::size_t wd : space.wi_dm) {
      if (wt * wd > device.max_work_group_size) continue;
      for (std::size_t et : space.elem_time) {
        if (plan.out_samples() % (wt * et) != 0) continue;
        for (std::size_t ed : space.elem_dm) {
          if (plan.dms() % (wd * ed) != 0) continue;
          const dedisp::KernelConfig cfg{wt, wd, et, ed};
          if (cfg.accumulators_per_item() + device.reg_overhead_per_item >
              device.max_regs_per_item) {
            continue;
          }
          out.push_back(cfg);
        }
      }
    }
  }
  return out;
}

TuningResult tune(const ocl::DeviceModel& device,
                  const ocl::PlanAnalysis& analysis,
                  const TuningOptions& options,
                  const std::vector<dedisp::KernelConfig>& configs) {
  const dedisp::Plan& plan = analysis.plan();
  const std::vector<dedisp::KernelConfig> space =
      configs.empty() ? enumerate_configs(device, plan) : configs;

  TuningResult result;
  result.device_name = device.name;
  result.observation_name = plan.observation().name();
  result.dms = plan.dms();

  RunningStats stats;
  bool have_best = false;
  for (const dedisp::KernelConfig& cfg : space) {
    ocl::PerfEstimate perf;
    try {
      perf = ocl::estimate_performance(device, analysis, cfg);
    } catch (const config_error&) {
      ++result.skipped;
      continue;
    }
    ++result.evaluated;
    stats.add(perf.gflops);
    if (options.keep_population) {
      result.population.push_back({cfg, perf});
    }
    if (!have_best || perf.gflops > result.best.perf.gflops) {
      result.best = {cfg, perf};
      have_best = true;
    }
  }
  if (!have_best) {
    throw config_error("no meaningful configuration for device " +
                       device.name + " on " + plan.observation().name() +
                       " with " + std::to_string(plan.dms()) + " DMs");
  }
  result.stats.count = stats.count();
  result.stats.mean = stats.mean();
  result.stats.stddev = stats.stddev();
  result.stats.min = stats.min();
  result.stats.max = stats.max();
  result.stats.snr_of_max =
      snr(result.stats.max, result.stats.mean, result.stats.stddev);
  return result;
}

ResultRow to_row(const TuningResult& result) {
  ResultRow row;
  row.device = result.device_name;
  row.observation = result.observation_name;
  row.dms = result.dms;
  row.config = engine::encode_kernel_config(result.best.config);
  row.gflops = result.best.perf.gflops;
  row.seconds = result.best.perf.seconds;
  row.snr = result.snr_of_optimum();
  row.evaluated = result.evaluated;
  return row;
}

TuningResult tune_for(pipeline::Dedisperser& dd,
                      const ocl::DeviceModel& device) {
  TuningResult result = tune(device, ocl::PlanAnalysis(dd.plan()));
  // The model tuner parameterizes the tiled kernel; the engine bends the
  // optimum onto its own axes (an engine without them keeps its defaults).
  dd.set_config(dd.engine().adapt_config(
      dd.plan(), engine::encode_kernel_config(result.best.config)));
  return result;
}

}  // namespace ddmc::tuner
