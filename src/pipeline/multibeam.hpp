#pragma once
/// \file multibeam.hpp
/// \brief Multi-beam dedispersion (§II: "modern radio telescopes can point
/// simultaneously in different directions by forming different beams …
/// all trial DMs and beams can be processed independently").
///
/// One plan and one tuned configuration are shared by every beam (the
/// beams see the same band and DM grid); beams are dispatched in parallel
/// over the dedisperser's worker pool, resolved once when it is built,
/// each running the selected engine inline on its worker — the same
/// decomposition a production survey backend uses. The engine is selected
/// by registry id (engine/registry.hpp) and never branched on: any engine
/// runs beam-parallel, and dedisperse_sharded additionally requires the
/// supports_sharding capability.

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/array2d.hpp"
#include "common/thread_pool.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/plan.hpp"
#include "engine/engine.hpp"
#include "sky/detection.hpp"

namespace ddmc::pipeline {

class ShardedDedisperser;

class MultiBeamDedisperser {
 public:
  /// \p config must validate against \p plan on the selected engine;
  /// \p engine is a registry id, created with \p options (subband split,
  /// quantization window, cpu knobs). Beams run on \p threads workers: 1
  /// runs them inline, 0 on the machine-sized global pool, any other count
  /// on a pool built here once and reused by every call.
  /// dedisperse_sharded runs on \p shard_workers threads (0 = machine
  /// concurrency).
  MultiBeamDedisperser(dedisp::Plan plan, engine::EngineConfig config,
                       std::string engine = engine::kDefaultEngineId,
                       engine::EngineOptions options = {},
                       std::size_t threads = 0, std::size_t shard_workers = 0);
  ~MultiBeamDedisperser();

  const dedisp::Plan& plan() const { return plan_; }
  const engine::EngineConfig& config() const { return config_; }
  const std::string& engine_id() const { return engine_id_; }
  const engine::DedispEngine& engine() const { return *engine_; }

  /// Host-execution knobs shared by every beam. The per-beam thread count
  /// is always forced to 1 — beams are the parallel dimension — but
  /// SIMD-vs-scalar selection passes through to the engine factory.
  void set_cpu_options(const dedisp::CpuKernelOptions& options);
  const dedisp::CpuKernelOptions& cpu_options() const {
    return engine_options_.cpu;
  }

  /// Replace the whole factory-options struct (cpu knobs included).
  void set_engine_options(const engine::EngineOptions& options);
  const engine::EngineOptions& engine_options() const {
    return engine_options_;
  }

  /// Dedisperse every beam (each channels × ≥in_samples) into its own
  /// trial matrix.
  std::vector<Array2D<float>> dedisperse(
      const std::vector<ConstView2D<float>>& beams) const;

  /// Same decomposition with the DM grid additionally sharded: all
  /// beams × shards jobs are batched onto one pool of the constructor's
  /// shard_workers threads, so a few beams still saturate many workers.
  /// Bitwise identical to dedisperse(); requires the engine's
  /// supports_sharding capability. The executor (its pool and shard plan)
  /// is built on the first call and reused by every later one, until the
  /// engine options change.
  std::vector<Array2D<float>> dedisperse_sharded(
      const std::vector<ConstView2D<float>>& beams) const;

  /// The executor dedisperse_sharded runs on; null before its first call.
  /// Not safe concurrently with that first call.
  const ShardedDedisperser* sharded() const { return sharded_->executor.get(); }

  /// Candidate found by scanning every beam's dedispersed matrix.
  struct BeamCandidate {
    std::size_t beam = 0;
    sky::DetectionResult detection;
  };

  /// Dedisperse and return the strongest candidate across all beams.
  /// Equal peak S/N ties break deterministically to the lowest beam index
  /// (candidates are compared with strict >, beams scanned in order).
  BeamCandidate search(const std::vector<ConstView2D<float>>& beams) const;

 private:
  /// Recreate the per-beam engine (thread count forced to 1) and drop the
  /// sharded executor built with the old options.
  void rebuild_engine();

  /// dedisperse_sharded's executor, built once on first use. Boxed so the
  /// once_flag can be replaced when the engine options change.
  struct LazySharded {
    std::once_flag once;
    std::unique_ptr<ShardedDedisperser> executor;
  };

  dedisp::Plan plan_;
  engine::EngineConfig config_;
  std::string engine_id_;
  engine::EngineOptions engine_options_;
  std::shared_ptr<const engine::DedispEngine> engine_;
  WorkerPool workers_;
  std::size_t shard_workers_;
  std::unique_ptr<LazySharded> sharded_;
};

}  // namespace ddmc::pipeline
