#include "pipeline/multibeam.hpp"

#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/expect.hpp"
#include "engine/registry.hpp"
#include "pipeline/sharding.hpp"

namespace ddmc::pipeline {

MultiBeamDedisperser::MultiBeamDedisperser(dedisp::Plan plan,
                                           engine::EngineConfig config,
                                           std::string engine,
                                           engine::EngineOptions options,
                                           std::size_t threads,
                                           std::size_t shard_workers)
    : plan_(std::move(plan)),
      config_(std::move(config)),
      engine_id_(std::move(engine)),
      engine_options_(std::move(options)),
      workers_(threads),
      shard_workers_(shard_workers) {
  rebuild_engine();
  engine_->validate_config(plan_, config_);
}

MultiBeamDedisperser::~MultiBeamDedisperser() = default;

void MultiBeamDedisperser::set_cpu_options(
    const dedisp::CpuKernelOptions& options) {
  engine_options_.cpu = options;
  rebuild_engine();
}

void MultiBeamDedisperser::set_engine_options(
    const engine::EngineOptions& options) {
  engine_options_ = options;
  rebuild_engine();
}

void MultiBeamDedisperser::rebuild_engine() {
  engine::EngineOptions options = engine_options_;
  options.cpu.threads = 1;  // beams are the parallel dimension
  engine_ = engine::make_engine(engine_id_, options);
  sharded_ = std::make_unique<LazySharded>();
}

std::vector<Array2D<float>> MultiBeamDedisperser::dedisperse(
    const std::vector<ConstView2D<float>>& beams) const {
  DDMC_REQUIRE(!beams.empty(), "need at least one beam");
  for (std::size_t b = 0; b < beams.size(); ++b) {
    DDMC_REQUIRE(beams[b].rows() == plan_.channels(),
                 "beam " + std::to_string(b) + " has " +
                     std::to_string(beams[b].rows()) + " rows, plan needs " +
                     std::to_string(plan_.channels()) + " channels");
    DDMC_REQUIRE(beams[b].cols() >= plan_.in_samples(),
                 "beam " + std::to_string(b) + " holds " +
                     std::to_string(beams[b].cols()) +
                     " samples, plan needs in_samples = " +
                     std::to_string(plan_.in_samples()));
  }

  std::vector<Array2D<float>> outputs;
  outputs.reserve(beams.size());
  for (std::size_t b = 0; b < beams.size(); ++b) {
    outputs.emplace_back(plan_.dms(), plan_.out_samples());
  }
  auto run_beam = [&](std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; ++b) {
      engine_->execute(plan_, config_, beams[b], outputs[b].view());
    }
  };
  ThreadPool* const pool = workers_.get();
  if (pool == nullptr || beams.size() == 1) {
    run_beam(0, beams.size());
  } else {
    pool->parallel_for(0, beams.size(), 1, run_beam);
  }
  return outputs;
}

std::vector<Array2D<float>> MultiBeamDedisperser::dedisperse_sharded(
    const std::vector<ConstView2D<float>>& beams) const {
  std::call_once(sharded_->once, [this] {
    ShardedOptions options;
    options.workers = shard_workers_;
    options.engine = engine_id_;
    options.engine_options = engine_options_;
    sharded_->executor =
        std::make_unique<ShardedDedisperser>(plan_, config_, std::move(options));
  });
  return sharded_->executor->dedisperse_batch(beams);
}

MultiBeamDedisperser::BeamCandidate MultiBeamDedisperser::search(
    const std::vector<ConstView2D<float>>& beams) const {
  const std::vector<Array2D<float>> outputs = dedisperse(beams);
  BeamCandidate best;
  best.detection.best_snr = -1.0;
  for (std::size_t b = 0; b < outputs.size(); ++b) {
    const sky::DetectionResult res = sky::detect_best_dm(outputs[b].cview());
    if (res.best_snr > best.detection.best_snr) {
      best.beam = b;
      best.detection = res;
    }
  }
  return best;
}

}  // namespace ddmc::pipeline
