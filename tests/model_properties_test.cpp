// Broad property sweeps over the analytic model: for every device and every
// enumerated configuration on real observational setups, the performance
// estimates must satisfy the structural invariants the figure benches rely
// on. These tests pin the model against regressions while calibration
// constants evolve. The model tuner's own tests follow: device-space
// enumeration, optimum selection and statistics, fixed-configuration
// selection and the persisted row of a sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/opencl_codegen.hpp"
#include "common/expect.hpp"
#include "ocl/device_presets.hpp"
#include "ocl/perf_model.hpp"
#include "test_util.hpp"
#include "tuner/fixed_config.hpp"
#include "tuner/results_io.hpp"
#include "tuner/tuner.hpp"

namespace ddmc::ocl {
namespace {

using dedisp::KernelConfig;
using dedisp::Plan;

/// Small but *real* instances: full Apertif/LOFAR channelization, 16 trials.
class ModelInvariants : public ::testing::TestWithParam<std::string> {
 protected:
  DeviceModel device() const { return device_by_name(GetParam()); }
};

TEST_P(ModelInvariants, EveryValidConfigProducesConsistentEstimates) {
  const DeviceModel dev = device();
  const PlanAnalysis analysis(Plan(sky::apertif(), 16));
  const auto configs = tuner::enumerate_configs(dev, analysis.plan());
  ASSERT_FALSE(configs.empty());
  std::size_t valid = 0;
  for (const KernelConfig& cfg : configs) {
    PerfEstimate p;
    try {
      p = estimate_performance(dev, analysis, cfg);
    } catch (const config_error&) {
      continue;  // deeper constraints (local memory, residency)
    }
    ++valid;
    // Time decomposition.
    EXPECT_GT(p.seconds, 0.0) << cfg.to_string();
    EXPECT_GE(p.seconds + 1e-15,
              std::max({p.mem_seconds, p.instr_seconds, p.lds_seconds}))
        << cfg.to_string();
    EXPECT_EQ(p.memory_bound,
              p.mem_seconds >= std::max(p.instr_seconds, p.lds_seconds))
        << cfg.to_string();
    // Throughput consistency and physical ceilings (no FMA for this
    // kernel ⇒ < half the headline peak).
    EXPECT_NEAR(p.gflops, analysis.plan().total_flop() / p.seconds * 1e-9,
                1e-6 * p.gflops)
        << cfg.to_string();
    EXPECT_LT(p.gflops, dev.peak_gflops / 2.0) << cfg.to_string();
    // Occupancy and hiding stay in range.
    EXPECT_TRUE(p.occupancy.valid()) << cfg.to_string();
    EXPECT_LE(p.occupancy.fraction, 1.0) << cfg.to_string();
    EXPECT_GT(p.hiding_efficiency, 0.0) << cfg.to_string();
    EXPECT_LE(p.hiding_efficiency, 1.0) << cfg.to_string();
    EXPECT_LE(p.busy_fraction, 1.0) << cfg.to_string();
    // Traffic accounting.
    EXPECT_NEAR(p.traffic.total_bytes,
                p.traffic.input_bytes + p.traffic.output_bytes +
                    p.traffic.delay_bytes,
                1.0)
        << cfg.to_string();
    EXPECT_GT(p.traffic.reuse_factor, 0.0) << cfg.to_string();
    // Determinism.
    const PerfEstimate again = estimate_performance(dev, analysis, cfg);
    EXPECT_EQ(p.seconds, again.seconds) << cfg.to_string();
  }
  EXPECT_GT(valid, 0u) << dev.name;
}

TEST_P(ModelInvariants, ZeroDmNeverSlowerPerConfig) {
  const DeviceModel dev = device();
  const PlanAnalysis real(Plan(sky::lofar(), 16));
  const PlanAnalysis zero(Plan(sky::lofar().zero_dm_variant(), 16));
  const auto configs = tuner::enumerate_configs(dev, real.plan());
  std::size_t compared = 0;
  for (const KernelConfig& cfg : configs) {
    double g_real = 0.0;
    double g_zero = 0.0;
    try {
      g_real = estimate_performance(dev, real, cfg).gflops;
      g_zero = estimate_performance(dev, zero, cfg).gflops;
    } catch (const config_error&) {
      continue;  // e.g. the real spans overflow local memory
    }
    ++compared;
    EXPECT_GE(g_zero, g_real * 0.999) << cfg.to_string();
  }
  EXPECT_GT(compared, 0u) << dev.name;
}

TEST_P(ModelInvariants, TunedOptimumDominatesAndIsStable) {
  const DeviceModel dev = device();
  const PlanAnalysis analysis(Plan(sky::apertif(), 32));
  const tuner::TuningResult first = tuner::tune(dev, analysis);
  const tuner::TuningResult second = tuner::tune(dev, analysis);
  EXPECT_EQ(first.best.config, second.best.config);
  EXPECT_EQ(first.best.perf.seconds, second.best.perf.seconds);
  EXPECT_GE(first.best.perf.gflops, first.stats.mean);
  EXPECT_DOUBLE_EQ(first.stats.max, first.best.perf.gflops);
}

TEST_P(ModelInvariants, GeneratedKernelsForTheWholeSpaceAreWellFormed) {
  const DeviceModel dev = device();
  const Plan plan = ddmc::testing::mini_plan(8, 64);
  const auto configs = tuner::enumerate_configs(dev, plan);
  for (const KernelConfig& cfg : configs) {
    codegen::CodegenOptions opt;
    opt.staged = cfg.tile_dm() > 1;
    const std::string src = codegen::generate_opencl_kernel(plan, cfg, opt);
    long depth = 0;
    for (char ch : src) {
      if (ch == '{') ++depth;
      if (ch == '}') --depth;
      ASSERT_GE(depth, 0) << cfg.to_string();
    }
    EXPECT_EQ(depth, 0) << cfg.to_string();
    EXPECT_NE(src.find(codegen::kernel_name(cfg)), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDevices, ModelInvariants,
                         ::testing::Values("HD7970", "XeonPhi", "GTX680",
                                           "K20", "Titan"),
                         [](const ::testing::TestParamInfo<std::string>& pi) {
                           return pi.param;
                         });

// ------------------------------------------------ cross-device properties --

TEST(ModelCrossDevice, MemoryBoundOnLofarForEveryAccelerator) {
  // §V's discussion: with little reuse the discriminant is bandwidth.
  const PlanAnalysis analysis(Plan(sky::lofar(), 64));
  for (const DeviceModel& dev : table1_devices()) {
    const tuner::TuningResult r = tuner::tune(dev, analysis);
    EXPECT_TRUE(r.best.perf.memory_bound) << dev.name;
  }
}

TEST(ModelCrossDevice, LofarRanksByBandwidthAmongGpus) {
  const PlanAnalysis analysis(Plan(sky::lofar(), 256));
  const double titan =
      tuner::tune(nvidia_gtx_titan(), analysis).best.perf.gflops;
  const double k20 = tuner::tune(nvidia_k20(), analysis).best.perf.gflops;
  const double gtx680 =
      tuner::tune(nvidia_gtx680(), analysis).best.perf.gflops;
  EXPECT_GT(titan, k20);   // 288 vs 208 GB/s
  EXPECT_GT(k20, gtx680);  // 208 vs 192 GB/s
}

TEST(ModelCrossDevice, ApertifOrderingMatchesThePaper) {
  const PlanAnalysis analysis(Plan(sky::apertif(), 256));
  const double hd = tuner::tune(amd_hd7970(), analysis).best.perf.gflops;
  const double phi = tuner::tune(intel_xeon_phi(), analysis).best.perf.gflops;
  double nvidia_best = 0.0;
  for (const auto& dev :
       {nvidia_gtx680(), nvidia_k20(), nvidia_gtx_titan()}) {
    nvidia_best =
        std::max(nvidia_best, tuner::tune(dev, analysis).best.perf.gflops);
  }
  EXPECT_GT(hd, nvidia_best);      // HD7970 on top…
  EXPECT_GT(nvidia_best, phi);     // …Phi last,
  EXPECT_GT(hd, 5.0 * phi);        // by a wide margin (paper: ≈7.5×)
  EXPECT_GT(hd, 1.5 * nvidia_best);  // ≈2× the NVIDIA cluster
}

TEST(ModelCrossDevice, EveryGpuIsRealTimeOnApertifThePhiIsNotAt4096) {
  const std::size_t dms = 4096;
  const PlanAnalysis analysis(Plan(sky::apertif(), dms));
  const double threshold = real_time_gflops(sky::apertif(), dms);
  for (const DeviceModel& dev : table1_devices()) {
    if (!fits_in_memory(dev, analysis.plan())) continue;
    const double g = tuner::tune(dev, analysis).best.perf.gflops;
    if (dev.name == "XeonPhi") {
      EXPECT_LT(g, threshold) << "the paper's only real-time failure";
    } else {
      EXPECT_GT(g, threshold) << dev.name;
    }
  }
}

TEST(ModelCrossDevice, CpuBaselineScalesLinearlyInDms) {
  const DeviceModel cpu = intel_xeon_e5_2620();
  const double g64 = estimate_cpu_baseline(cpu, Plan(sky::apertif(), 64)).gflops;
  const double g512 =
      estimate_cpu_baseline(cpu, Plan(sky::apertif(), 512)).gflops;
  EXPECT_NEAR(g64, g512, 0.15 * g512);  // throughput ≈ flat ⇒ time ∝ d
}

TEST(ModelCrossDevice, LaneWastePenalizesPartialWavefronts) {
  // A 96-item group on a 64-lane wavefront device wastes a third of the
  // issue slots; the same shape on a 32-lane device wastes none.
  const PlanAnalysis analysis(Plan(sky::apertif(), 96));  // 6 divides 96
  const KernelConfig partial{16, 6, 5, 1};  // wg = 96
  ASSERT_EQ(partial.work_group_size(), 96u);
  const PerfEstimate amd =
      estimate_performance(amd_hd7970(), analysis, partial);
  const KernelConfig full{16, 4, 5, 1};  // wg = 64
  const PerfEstimate amd_full =
      estimate_performance(amd_hd7970(), analysis, full);
  // Identical per-flop work, but the partial wavefront issues ~1.33× the
  // instructions per accumulate.
  EXPECT_GT(amd.instr_seconds / analysis.plan().total_flop(),
            1.2 * amd_full.instr_seconds / analysis.plan().total_flop());
}

}  // namespace
}  // namespace ddmc::ocl

namespace ddmc::tuner {
namespace {

using dedisp::KernelConfig;
using dedisp::Plan;
using dedisp::SearchSpace;
using ocl::PlanAnalysis;
using testing::mini_obs;
using testing::mini_plan;

// ------------------------------------------------------------ search space --

TEST(SearchSpace, EveryEnumeratedConfigSatisfiesCheapConstraints) {
  const Plan plan = mini_plan(8, 64);
  for (const ocl::DeviceModel& dev : ocl::table1_devices()) {
    const auto configs = enumerate_configs(dev, plan);
    EXPECT_FALSE(configs.empty()) << dev.name;
    for (const KernelConfig& cfg : configs) {
      EXPECT_TRUE(cfg.divides(plan)) << dev.name << " " << cfg.to_string();
      EXPECT_LE(cfg.work_group_size(), dev.max_work_group_size) << dev.name;
      EXPECT_LE(cfg.accumulators_per_item() + dev.reg_overhead_per_item,
                dev.max_regs_per_item)
          << dev.name;
    }
  }
}

TEST(SearchSpace, EnumerationIsDeterministicAndDuplicateFree) {
  const Plan plan = mini_plan(8, 64);
  const auto a = enumerate_configs(ocl::amd_hd7970(), plan);
  const auto b = enumerate_configs(ocl::amd_hd7970(), plan);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  std::set<std::string> keys;
  for (const auto& cfg : a) keys.insert(cfg.to_string());
  EXPECT_EQ(keys.size(), a.size());
}

TEST(SearchSpace, RegisterCapShrinksGtx680Space) {
  // GK104's 63-register cap must prune configurations GK110 keeps.
  const Plan plan(sky::apertif(), 128);
  const auto gk104 = enumerate_configs(ocl::nvidia_gtx680(), plan);
  const auto gk110 = enumerate_configs(ocl::nvidia_k20(), plan);
  EXPECT_LT(gk104.size(), gk110.size());
}

TEST(SearchSpace, CustomLaddersRespected) {
  const Plan plan = mini_plan(8, 64);
  SearchSpace tiny;
  tiny.wi_time = {8};
  tiny.wi_dm = {1, 2};
  tiny.elem_time = {1};
  tiny.elem_dm = {1};
  const auto configs = enumerate_configs(ocl::amd_hd7970(), plan, tiny);
  ASSERT_EQ(configs.size(), 2u);
  EXPECT_EQ(configs[0], (KernelConfig{8, 1, 1, 1}));
  EXPECT_EQ(configs[1], (KernelConfig{8, 2, 1, 1}));
}

TEST(SearchSpace, DeviceEnumerationKeepsHostAxesAtDefaults) {
  const Plan plan = mini_plan(8, 64);
  for (const KernelConfig& cfg :
       enumerate_configs(ocl::amd_hd7970(), plan)) {
    EXPECT_EQ(cfg.channel_block, 0u);
    EXPECT_EQ(cfg.unroll, 1u);
  }
}

// ------------------------------------------------------------------ tuner --

TEST(Tuner, OptimumDominatesPopulation) {
  const PlanAnalysis analysis(mini_plan(8, 64));
  TuningOptions opt;
  opt.keep_population = true;
  const TuningResult r = tune(ocl::amd_hd7970(), analysis, opt);
  EXPECT_GT(r.evaluated, 0u);
  ASSERT_EQ(r.population.size(), r.evaluated);
  for (const ConfigPerf& cp : r.population) {
    EXPECT_LE(cp.perf.gflops, r.best.perf.gflops) << cp.config.to_string();
  }
  EXPECT_DOUBLE_EQ(r.stats.max, r.best.perf.gflops);
  EXPECT_EQ(r.stats.count, r.evaluated);
}

TEST(Tuner, PopulationNotKeptByDefault) {
  const PlanAnalysis analysis(mini_plan(8, 64));
  const TuningResult r = tune(ocl::amd_hd7970(), analysis);
  EXPECT_TRUE(r.population.empty());
  EXPECT_GT(r.evaluated, 0u);
}

TEST(Tuner, MetadataIdentifiesTheSweep) {
  const PlanAnalysis analysis(mini_plan(8, 64));
  const TuningResult r = tune(ocl::nvidia_k20(), analysis);
  EXPECT_EQ(r.device_name, "K20");
  EXPECT_EQ(r.observation_name, "mini");
  EXPECT_EQ(r.dms, 8u);
}

TEST(Tuner, SnrOfOptimumIsNonNegative) {
  const PlanAnalysis analysis(mini_plan(8, 64));
  const TuningResult r = tune(ocl::amd_hd7970(), analysis);
  EXPECT_GE(r.snr_of_optimum(), 0.0);
}

TEST(Tuner, ExplicitConfigListRestrictsTheSweep) {
  const PlanAnalysis analysis(mini_plan(8, 64));
  const std::vector<KernelConfig> only = {KernelConfig{8, 1, 1, 1},
                                          KernelConfig{8, 2, 1, 1}};
  const TuningResult r = tune(ocl::amd_hd7970(), analysis, {}, only);
  EXPECT_LE(r.evaluated + r.skipped, 2u);
  EXPECT_TRUE(r.best.config == only[0] || r.best.config == only[1]);
}

TEST(Tuner, InvalidConfigsAreSkippedNotFatal) {
  const PlanAnalysis analysis(mini_plan(8, 64));
  const std::vector<KernelConfig> mixed = {
      KernelConfig{5, 1, 1, 1},   // non-dividing: skipped
      KernelConfig{8, 1, 1, 1}};  // valid
  const TuningResult r = tune(ocl::amd_hd7970(), analysis, {}, mixed);
  EXPECT_EQ(r.skipped, 1u);
  EXPECT_EQ(r.evaluated, 1u);
  EXPECT_EQ(r.best.config, (KernelConfig{8, 1, 1, 1}));
}

TEST(Tuner, ThrowsWhenNothingIsMeaningful) {
  const PlanAnalysis analysis(mini_plan(8, 64));
  const std::vector<KernelConfig> bad = {KernelConfig{5, 1, 1, 1},
                                         KernelConfig{7, 3, 1, 1}};
  EXPECT_THROW(tune(ocl::amd_hd7970(), analysis, {}, bad), config_error);
}

TEST(Tuner, ZeroDmTuningFindsAtLeastRealPerformance) {
  // §V-C: the tuned optimum under perfect reuse is at least the real one.
  const PlanAnalysis real(Plan::with_output_samples(mini_obs(), 8, 64));
  const PlanAnalysis zero(
      Plan::with_output_samples(mini_obs().zero_dm_variant(), 8, 64));
  const double g_real = tune(ocl::amd_hd7970(), real).best.perf.gflops;
  const double g_zero = tune(ocl::amd_hd7970(), zero).best.perf.gflops;
  EXPECT_GE(g_zero, g_real * 0.999);
}

// ----------------------------------------------------------- fixed config --

TEST(FixedConfig, ValidOnEveryInstanceAndNeverBeatsTuned) {
  const sky::Observation obs = mini_obs();
  std::vector<PlanAnalysis> analyses;
  analyses.reserve(3);
  for (std::size_t dms : {2u, 4u, 8u}) {
    analyses.emplace_back(Plan::with_output_samples(obs, dms, 64));
  }
  std::vector<const PlanAnalysis*> ptrs;
  for (const auto& a : analyses) ptrs.push_back(&a);

  const FixedConfigResult fixed =
      best_fixed_config(ocl::amd_hd7970(), ptrs);
  ASSERT_EQ(fixed.per_instance_gflops.size(), 3u);

  double total = 0.0;
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    // The fixed config runs everywhere…
    const ocl::PerfEstimate p =
        ocl::estimate_performance(ocl::amd_hd7970(), *ptrs[i], fixed.config);
    EXPECT_NEAR(p.gflops, fixed.per_instance_gflops[i], 1e-9);
    total += p.gflops;
    // …and the per-instance tuned optimum dominates it (Figs. 13–14 have
    // speedup ≥ 1 everywhere).
    const TuningResult tuned = tune(ocl::amd_hd7970(), *ptrs[i]);
    EXPECT_GE(tuned.best.perf.gflops, p.gflops * 0.999);
  }
  EXPECT_NEAR(total, fixed.total_gflops, 1e-9);
}

TEST(FixedConfig, RequiresInstances) {
  std::vector<const PlanAnalysis*> none;
  EXPECT_THROW(best_fixed_config(ocl::amd_hd7970(), none), invalid_argument);
}

// ------------------------------------------------------------- results io --

TEST(Tuner, ToRowPersistsTheOptimumAndItsStatistics) {
  const PlanAnalysis analysis(mini_plan(8, 64));
  const TuningResult hd7970 = tune(ocl::amd_hd7970(), analysis);
  std::vector<ResultRow> rows;
  rows.push_back(to_row(hd7970));
  rows.push_back(to_row(tune(ocl::nvidia_k20(), analysis)));
  EXPECT_EQ(rows[0].device, "HD7970");
  EXPECT_EQ(rows[0].observation, "mini");
  EXPECT_EQ(rows[0].dms, 8u);
  EXPECT_EQ(rows[0].config, engine::encode_kernel_config(hd7970.best.config));
  EXPECT_EQ(rows[0].gflops, hd7970.best.perf.gflops);
  EXPECT_EQ(rows[0].seconds, hd7970.best.perf.seconds);
  EXPECT_EQ(rows[0].snr, hd7970.snr_of_optimum());
  EXPECT_EQ(rows[0].evaluated, hd7970.evaluated);
  EXPECT_FALSE(rows[0].pruned);

  std::stringstream ss;
  save_results(ss, rows);
  const std::vector<ResultRow> loaded = load_results(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1].device, "K20");
  EXPECT_EQ(loaded, rows);
}

}  // namespace
}  // namespace ddmc::tuner
