#include "pipeline/dedisperser.hpp"

#include "common/expect.hpp"
#include "engine/registry.hpp"
#include "pipeline/sharding.hpp"

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
  absorb_sharded();
}

void Dedisperser::absorb_sharded() {
  if (sharded_) {
    traffic_.merge(sharded_->telemetry());
    sharded_.reset();
  }
}

engine::SessionTraffic Dedisperser::telemetry() const {
  engine::SessionTraffic total = traffic_;
  if (sharded_) total.merge(sharded_->telemetry());
  return total;
}

tuner::GuidedTuningOutcome Dedisperser::tune_cached(
    tuner::TuningCache& cache, tuner::GuidedTuningOptions options) {
  if (options.engines.empty()) options.engines = {engine_id_};
  options.engine_options = engine_options_;
  options.host.vectorize = engine_options_.cpu.vectorize;
  options.host.threads = engine_options_.cpu.threads;
  tuner::GuidedTuningOutcome outcome = tuner::tune_guided(plan_, cache, options);
  // Adopt the winner: the race's engine choice is part of the tuning
  // decision, so subsequent dedisperse() calls run it. The adoption must
  // honor the execution mode already selected — a winner that cannot
  // shard fails fast here, not inside a worker pool later.
  if (outcome.engine_id != engine_id_) {
    auto adopted = engine::make_engine(outcome.engine_id, engine_options_);
    DDMC_REQUIRE(execution_ == Execution::kSingle ||
                     adopted->capabilities().supports_sharding,
                 "tuned winner '" + outcome.engine_id +
                     "' cannot run the selected DM-sharded execution: its "
                     "capability supports_sharding is false");
    engine_id_ = outcome.engine_id;
    engine_ = std::move(adopted);
  }
  config_ = outcome.config;
  absorb_sharded();
  return outcome;
}

void Dedisperser::set_config(const engine::EngineConfig& config) {
  engine_->validate_config(plan_, config);
  config_ = config;
  absorb_sharded();
}

void Dedisperser::set_cpu_options(const dedisp::CpuKernelOptions& options) {
  engine_options_.cpu = options;
  rebuild_engine();
}

void Dedisperser::set_subband_config(const dedisp::SubbandConfig& config) {
  engine_options_.subband = config;
  rebuild_engine();
}

void Dedisperser::set_execution(Execution execution, std::size_t workers) {
  DDMC_REQUIRE(execution == Execution::kSingle ||
                   engine_->capabilities().supports_sharding,
               "engine '" + engine_id_ +
                   "' cannot run DM-sharded execution: its capability "
                   "supports_sharding is false");
  execution_ = execution;
  shard_workers_ = workers;
  absorb_sharded();
}

Array2D<float> Dedisperser::dedisperse(ConstView2D<float> input) {
  Array2D<float> out(plan_.dms(), plan_.out_samples());
  if (execution_ == Execution::kDmSharded) {
    if (!sharded_) {
      ShardedOptions options;
      options.workers = shard_workers_;
      options.engine = engine_id_;
      options.engine_options = engine_options_;
      sharded_ = std::make_shared<const ShardedDedisperser>(
          plan_, config_, std::move(options));
    }
    sharded_->dedisperse(input, out.view());
  } else {
    traffic_.add(engine_->execute(plan_, config_, input, out.view()), plan_);
  }
  return out;
}

}  // namespace ddmc::pipeline
