#include "tuner/fixed_config.hpp"

#include "common/expect.hpp"
#include "tuner/tuner.hpp"

namespace ddmc::tuner {

FixedConfigResult best_fixed_config(
    const ocl::DeviceModel& device,
    const std::vector<const ocl::PlanAnalysis*>& instances) {
  DDMC_REQUIRE(!instances.empty(), "need at least one instance");

  // Candidates: configurations meaningful on the *smallest* instance are the
  // ones that can divide every instance of the power-of-two ladder.
  const ocl::PlanAnalysis* smallest = instances.front();
  for (const auto* a : instances) {
    if (a->plan().dms() < smallest->plan().dms()) smallest = a;
  }
  const std::vector<dedisp::KernelConfig> candidates =
      enumerate_configs(device, smallest->plan());

  FixedConfigResult best;
  bool have_best = false;
  for (const dedisp::KernelConfig& cfg : candidates) {
    double total = 0.0;
    std::vector<double> per_instance;
    per_instance.reserve(instances.size());
    bool valid_everywhere = true;
    for (const auto* analysis : instances) {
      try {
        const ocl::PerfEstimate perf =
            ocl::estimate_performance(device, *analysis, cfg);
        per_instance.push_back(perf.gflops);
        total += perf.gflops;
      } catch (const config_error&) {
        valid_everywhere = false;
        break;
      }
    }
    if (!valid_everywhere) continue;
    if (!have_best || total > best.total_gflops) {
      best.config = cfg;
      best.total_gflops = total;
      best.per_instance_gflops = std::move(per_instance);
      have_best = true;
    }
  }
  if (!have_best) {
    throw config_error("no configuration is valid on every instance for " +
                       device.name);
  }
  return best;
}

}  // namespace ddmc::tuner
