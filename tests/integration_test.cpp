// End-to-end tests across modules: pulsar injection → dedispersion →
// detection; tuner → simulator → codegen; measured vs analytic traffic;
// the model tuner applied to a Dedisperser; the §V-D survey sizing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "codegen/opencl_codegen.hpp"
#include "common/expect.hpp"
#include "dedisp/cpu_baseline.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/intensity.hpp"
#include "dedisp/reference.hpp"
#include "ocl/device_presets.hpp"
#include "ocl/perf_model.hpp"
#include "ocl/sim_dedisp.hpp"
#include "pipeline/dedisperser.hpp"
#include "pipeline/survey.hpp"
#include "sky/detection.hpp"
#include "sky/signal.hpp"
#include "test_util.hpp"
#include "tuner/tuner.hpp"

namespace ddmc {
namespace {

using dedisp::KernelConfig;
using dedisp::Plan;
using testing::expect_same_matrix;
using testing::mini_obs;

/// A mini observation with a pulsar injected at a known trial index.
struct PulsarScenario {
  Plan plan;
  Array2D<float> data;
  std::size_t true_trial;
};

PulsarScenario make_scenario() {
  const sky::Observation obs = mini_obs();
  Plan plan = Plan::with_output_samples(obs, 8, 128);
  const std::size_t true_trial = 4;  // DM = 2.0 with the 0.5 step

  sky::PulsarParams pulsar;
  pulsar.dm = obs.dm_value(true_trial);
  pulsar.period_s = 0.4;
  pulsar.width_s = 0.01;
  pulsar.amplitude = 6.0;
  pulsar.first_pulse_s = 0.05;
  sky::NoiseParams noise;
  noise.sigma = 0.5;
  noise.seed = 99;

  Array2D<float> data =
      sky::make_observation_data(obs, plan.in_samples(), pulsar, noise);
  return {std::move(plan), std::move(data), true_trial};
}

TEST(Integration, BruteForceSearchRecoversInjectedDm) {
  const PulsarScenario sc = make_scenario();
  const Array2D<float> out =
      dedisp::dedisperse_reference(sc.plan, sc.data.cview());
  const sky::DetectionResult res = sky::detect_best_dm(out.cview());
  EXPECT_EQ(res.best_trial, sc.true_trial);
  EXPECT_GT(res.best_snr, 5.0);
}

TEST(Integration, WrongTrialsSmearThePulse) {
  // §II: "when the DM is only slightly off, the source signal will be
  // smeared" — the matched trial's peak S/N beats every other trial's.
  const PulsarScenario sc = make_scenario();
  const Array2D<float> out =
      dedisp::dedisperse_reference(sc.plan, sc.data.cview());
  const double matched = sky::series_snr(out.row(sc.true_trial));
  for (std::size_t trial = 0; trial < out.rows(); ++trial) {
    if (trial == sc.true_trial) continue;
    EXPECT_LT(sky::series_snr(out.row(trial)), matched) << trial;
  }
}

TEST(Integration, EveryBackendFindsTheSamePulsar) {
  const PulsarScenario sc = make_scenario();
  const Array2D<float> expected =
      dedisp::dedisperse_reference(sc.plan, sc.data.cview());

  const KernelConfig cfg{16, 2, 4, 2};
  const Array2D<float> tiled =
      dedisp::dedisperse_cpu(sc.plan, cfg, sc.data.cview());
  expect_same_matrix(expected, tiled);

  const Array2D<float> baseline =
      dedisp::dedisperse_cpu_baseline(sc.plan, sc.data.cview());
  expect_same_matrix(expected, baseline);

  Array2D<float> simulated(sc.plan.dms(), sc.plan.out_samples());
  ocl::simulate_dedisp(ocl::amd_hd7970(), sc.plan, cfg, sc.data.cview(),
                       simulated.view());
  expect_same_matrix(expected, simulated);

  const sky::DetectionResult res = sky::detect_best_dm(simulated.cview());
  EXPECT_EQ(res.best_trial, sc.true_trial);
}

TEST(Integration, ZeroDmObservationYieldsIdenticalTrials) {
  // §IV-C: with every trial forced to DM 0, "every dedispersed time-series
  // is exactly the same and uses exactly the same input".
  const sky::Observation zero = mini_obs().zero_dm_variant();
  const Plan plan = Plan::with_output_samples(zero, 8, 64);
  const Array2D<float> in = testing::random_input(plan);
  const Array2D<float> out = dedisp::dedisperse_reference(plan, in.cview());
  for (std::size_t trial = 1; trial < out.rows(); ++trial) {
    for (std::size_t t = 0; t < out.cols(); ++t) {
      ASSERT_EQ(out(trial, t), out(0, t));
    }
  }
}

TEST(Integration, TunedConfigRunsOnSimulatorAndGeneratesSource) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 8, 64);
  const ocl::PlanAnalysis analysis(plan);
  const tuner::TuningResult tuned = tuner::tune(ocl::amd_hd7970(), analysis);

  // The model's optimum must actually execute on the functional simulator…
  const Array2D<float> in = testing::random_input(plan);
  Array2D<float> out(plan.dms(), plan.out_samples());
  EXPECT_NO_THROW(ocl::simulate_dedisp(ocl::amd_hd7970(), plan,
                                       tuned.best.config, in.cview(),
                                       out.view()));
  const Array2D<float> expected =
      dedisp::dedisperse_reference(plan, in.cview());
  expect_same_matrix(expected, out);

  // …and the code generator must emit a kernel for it.
  codegen::CodegenOptions opt;
  opt.staged = tuned.best.config.tile_dm() > 1;
  const std::string src =
      codegen::generate_opencl_kernel(plan, tuned.best.config, opt);
  EXPECT_NE(src.find("__kernel"), std::string::npos);
}

TEST(Integration, MeasuredIntensityMatchesAnalyticAccounting) {
  // analyze_intensity's unique-read accounting equals the loads the
  // functional simulator performs with staging on.
  const Plan plan = Plan::with_output_samples(mini_obs(), 8, 64);
  const Array2D<float> in = testing::random_input(plan);
  Array2D<float> out(plan.dms(), plan.out_samples());
  for (const auto& cfg :
       {KernelConfig{8, 2, 4, 2}, KernelConfig{4, 4, 4, 2},
        KernelConfig{16, 8, 2, 1}}) {
    const ocl::SimRunResult run = ocl::simulate_dedisp_variant(
        ocl::amd_hd7970(), plan, cfg, in.cview(), out.view(), true);
    const dedisp::IntensityReport report =
        dedisp::analyze_intensity(plan, cfg);
    const double measured_unique =
        static_cast<double>(run.counters.global_loads);
    // unique_bytes = 4·(unique input reads) + output bytes + Δ-table bytes.
    const double output_bytes = 4.0 * static_cast<double>(plan.dms()) *
                                static_cast<double>(plan.out_samples());
    const double delay_bytes = 4.0 * static_cast<double>(plan.dms()) *
                               static_cast<double>(plan.channels());
    const double predicted_unique =
        (report.unique_bytes - output_bytes - delay_bytes) / 4.0;
    EXPECT_DOUBLE_EQ(measured_unique, predicted_unique) << cfg.to_string();
  }
}

TEST(Integration, PipelineQuickstartFlow) {
  // The README quickstart, as a test: plan → tune → dedisperse → detect.
  const PulsarScenario sc = make_scenario();
  pipeline::Dedisperser dd = pipeline::Dedisperser::with_output_samples(
      mini_obs(), sc.plan.dms(), sc.plan.out_samples(), "cpu_tiled");
  tuner::tune_for(dd, ocl::nvidia_gtx_titan());
  const Array2D<float> out = dd.dedisperse(sc.data.cview());
  const sky::DetectionResult res = sky::detect_best_dm(out.cview());
  EXPECT_EQ(res.best_trial, sc.true_trial);
}

}  // namespace
}  // namespace ddmc

namespace ddmc::pipeline {
namespace {

using testing::mini_obs;
using testing::random_input;

// ------------------------------------------------------- model tuner (§IV) --

TEST(Dedisperser, TuneForSetsTheOptimalConfig) {
  Dedisperser dd =
      Dedisperser::with_output_samples(mini_obs(), 8, 64, "cpu_tiled");
  const tuner::TuningResult r = tuner::tune_for(dd, ocl::amd_hd7970());
  EXPECT_EQ(dd.config(), engine::encode_kernel_config(r.best.config));
  EXPECT_GT(r.evaluated, 0u);
  // The tuned config must execute.
  const Array2D<float> in = random_input(dd.plan());
  EXPECT_NO_THROW(dd.dedisperse(in.cview()));
}

// ------------------------------------------------------------ survey (§V-D) --

TEST(Survey, ApertifSizingIsFeasibleOnHd7970) {
  // The paper: 2,000 DMs, 450 beams, HD7970 ⇒ ~0.1 s per beam-second,
  // several beams per GPU, tens of GPUs in total.
  const SurveySizing s =
      size_survey(ocl::amd_hd7970(), sky::apertif(), 2000, 450);
  EXPECT_TRUE(s.feasible);
  EXPECT_LT(s.seconds_per_beam, 1.0);
  EXPECT_GE(s.beams_per_device, 1u);
  EXPECT_LE(s.devices_needed, 450u);
  EXPECT_GE(s.devices_needed, 450u / std::max<std::size_t>(
                                         s.beams_per_device, 1) /
                                  2);
}

TEST(Survey, MemoryAndComputeBothLimitBeams) {
  const SurveySizing s =
      size_survey(ocl::amd_hd7970(), sky::apertif(), 2000, 450);
  EXPECT_EQ(s.beams_per_device,
            std::min(s.beams_per_device_compute, s.beams_per_device_memory));
}

TEST(Survey, MoreBeamsNeedMoreDevices) {
  const SurveySizing few =
      size_survey(ocl::amd_hd7970(), sky::apertif(), 500, 50);
  const SurveySizing many =
      size_survey(ocl::amd_hd7970(), sky::apertif(), 500, 400);
  EXPECT_LE(few.devices_needed, many.devices_needed);
}

TEST(Survey, CpusVastlyOutnumberAccelerators) {
  // §V-D: "50 GPUs, instead of the 1,800 CPUs".
  const SurveySizing gpus =
      size_survey(ocl::amd_hd7970(), sky::apertif(), 2000, 450);
  const std::size_t cpus =
      cpus_needed(ocl::intel_xeon_e5_2620(), sky::apertif(), 2000, 450);
  EXPECT_GT(cpus, 10 * gpus.devices_needed);
}

TEST(Survey, RejectsZeroBeams) {
  EXPECT_THROW(size_survey(ocl::amd_hd7970(), sky::apertif(), 64, 0),
               invalid_argument);
}

TEST(Survey, FastDevicePathPinsThePackingFormula) {
  // Regression guard for the fast regime: nothing about beam packing
  // changed — floor-packed beams per device, ceil-divided device count,
  // and the fractional pressure is the exact reciprocal of the beam time.
  const SurveySizing s =
      size_survey(ocl::amd_hd7970(), sky::apertif(), 2000, 450);
  ASSERT_TRUE(s.feasible);
  ASSERT_LT(s.seconds_per_beam, 1.0);
  EXPECT_DOUBLE_EQ(s.beams_per_device_realtime, 1.0 / s.seconds_per_beam);
  EXPECT_EQ(s.beams_per_device_compute,
            static_cast<std::size_t>(std::floor(s.beams_per_device_realtime)));
  EXPECT_EQ(s.devices_needed, ceil_div<std::size_t>(450, s.beams_per_device));
}

TEST(Survey, SlowDevicesShareBeamsInsteadOfBeingInfeasible) {
  // Regression: a device needing > 1 s per beam-second used to make the
  // whole survey "infeasible" (beams_per_device_compute == 0), while
  // cpus_needed correctly let several devices share one beam. Both paths
  // now agree on the sharing semantics.
  ocl::DeviceModel slow = ocl::intel_xeon_e5_2620();
  slow.name = "E5-2620/100";
  slow.clock_ghz /= 100.0;
  slow.peak_gflops /= 100.0;
  slow.peak_bandwidth_gbs /= 100.0;
  const SurveySizing s = size_survey(slow, sky::apertif(), 2000, 450);
  ASSERT_GT(s.seconds_per_beam, 1.0);
  EXPECT_EQ(s.beams_per_device_compute, 0u);
  EXPECT_GT(s.beams_per_device_realtime, 0.0);
  EXPECT_LT(s.beams_per_device_realtime, 1.0);
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.devices_needed,
            static_cast<std::size_t>(
                std::ceil(s.seconds_per_beam * 450.0)));
  EXPECT_GT(s.devices_needed, 450u);  // sharing: more devices than beams

  // Only a beam that cannot fit device memory is genuinely infeasible.
  ocl::DeviceModel tiny = ocl::amd_hd7970();
  tiny.memory_gb = 1e-6;
  const SurveySizing none = size_survey(tiny, sky::apertif(), 2000, 450);
  EXPECT_FALSE(none.feasible);
  EXPECT_EQ(none.beams_per_device_memory, 0u);
  EXPECT_EQ(none.devices_needed, 0u);
}

}  // namespace
}  // namespace ddmc::pipeline
