#include "pipeline/dedisperser.hpp"

#include "engine/registry.hpp"

namespace ddmc::pipeline {

Dedisperser::Dedisperser(const sky::Observation& obs, std::size_t dms,
                         std::string engine, std::size_t seconds)
    : Dedisperser(dedisp::Plan(obs, dms, seconds), std::move(engine)) {}

Dedisperser Dedisperser::with_output_samples(const sky::Observation& obs,
                                             std::size_t dms,
                                             std::size_t out_samples,
                                             std::string engine) {
  return Dedisperser(dedisp::Plan::with_output_samples(obs, dms, out_samples),
                     std::move(engine));
}

Dedisperser::Dedisperser(dedisp::Plan plan, std::string engine)
    : plan_(std::move(plan)), engine_id_(std::move(engine)) {
  rebuild_engine();
}

void Dedisperser::rebuild_engine() {
  engine_ = engine::make_engine(engine_id_, engine_options_);
}

tuner::GuidedTuningOutcome Dedisperser::tune_cached(
    tuner::TuningCache& cache, tuner::GuidedTuningOptions options) {
  if (options.engines.empty()) options.engines = {engine_id_};
  options.engine_options = engine_options_;
  options.host.vectorize = engine_options_.cpu.vectorize;
  options.host.threads = engine_options_.cpu.threads;
  tuner::GuidedTuningOutcome outcome = tuner::tune_guided(plan_, cache, options);
  // Adopt the winner: the race's engine choice is part of the tuning
  // decision, so subsequent dedisperse() calls run it.
  if (outcome.engine_id != engine_id_) {
    engine_id_ = outcome.engine_id;
    rebuild_engine();
  }
  config_ = outcome.config;
  return outcome;
}

void Dedisperser::set_config(const engine::EngineConfig& config) {
  engine_->validate_config(plan_, config);
  config_ = config;
}

void Dedisperser::set_cpu_options(const dedisp::CpuKernelOptions& options) {
  engine_options_.cpu = options;
  rebuild_engine();
}

void Dedisperser::set_subband_config(const dedisp::SubbandConfig& config) {
  engine_options_.subband = config;
  rebuild_engine();
}

Array2D<float> Dedisperser::dedisperse(ConstView2D<float> input) {
  Array2D<float> out(plan_.dms(), plan_.out_samples());
  traffic_.add(engine_->execute(plan_, config_, input, out.view()), plan_);
  return out;
}

}  // namespace ddmc::pipeline
