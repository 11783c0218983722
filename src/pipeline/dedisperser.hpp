#pragma once
/// \file dedisperser.hpp
/// \brief High-level public API: plan, tune, execute.
///
/// The entry point a downstream pipeline uses:
///
/// \code{.cpp}
///   using namespace ddmc;
///   pipeline::Dedisperser dd(sky::apertif(), /*dms=*/256);   // cpu_tiled
///   tuner::TuningCache cache;
///   dd.tune_cached(cache);                                    // optional
///   Array2D<float> out = dd.dedisperse(input.cview());
/// \endcode
///
/// Execution is delegated to a DedispEngine selected by registry id
/// (engine/registry.hpp): `cpu_tiled` (the tuned SIMD host kernel, the
/// default), `cpu_tiled_u8`, `cpu_baseline`, `reference`, `subband`,
/// `fdmt`, or any engine registered by downstream code. The Dedisperser
/// never branches on the engine's identity. One dedisperse() is one engine
/// call, spread over the cores by the engine's own pool
/// (cpu_options().threads). DM-sharded execution, the fault-isolating
/// executor and the seam for spreading a plan across devices, is
/// pipeline/sharding.hpp.
///
/// Tuning here is by measurement (tune_cached). The paper's model tuner,
/// which picks a config for a simulated device, is the free function
/// tuner::tune_for in tuner/tuner.hpp, part of ddmc_paper.
///
/// For samples that *arrive* instead of sitting in memory, use the
/// streaming sessions in stream/streaming_dedisperser.hpp: they run any
/// streaming-capable engine chunk-by-chunk with bounded-ring ingest and
/// latency accounting.

#include <memory>
#include <string>

#include "common/array2d.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/plan.hpp"
#include "engine/engine.hpp"
#include "tuner/tuning_cache.hpp"

namespace ddmc::pipeline {

class Dedisperser {
 public:
  /// Plan a full-seconds instance (the paper's shape) on engine \p engine.
  Dedisperser(const sky::Observation& obs, std::size_t dms,
              std::string engine = engine::kDefaultEngineId,
              std::size_t seconds = 1);

  /// Plan with an explicit output length (tests, small demos).
  static Dedisperser with_output_samples(
      const sky::Observation& obs, std::size_t dms, std::size_t out_samples,
      std::string engine = engine::kDefaultEngineId);

  const dedisp::Plan& plan() const { return plan_; }
  const std::string& engine_id() const { return engine_id_; }
  const engine::DedispEngine& engine() const { return *engine_; }

  /// Tune-on-first-use by *measurement*: answer from \p cache when it
  /// holds a matching (engine, host, plan) tuple or a transferable
  /// neighbor — zero measurements — and otherwise run the guided search
  /// over the engine's declared config space and store the winner. When
  /// \p options.engines is empty (the default) only this Dedisperser's
  /// engine is tuned; listing several ids races them and this Dedisperser
  /// *adopts the winner* — subsequent dedisperse() calls run the winning
  /// engine under the winning config. Non-tunable engines race as
  /// single-candidate entries. The engine knobs of
  /// \p options.host are overridden by this Dedisperser's cpu_options(),
  /// so the signature matches what dedisperse() will actually run.
  tuner::GuidedTuningOutcome tune_cached(
      tuner::TuningCache& cache, tuner::GuidedTuningOptions options = {});

  /// Set an explicit engine-native configuration (validated by the engine:
  /// unknown axes and plan-incompatible values throw ddmc::config_error).
  void set_config(const engine::EngineConfig& config);
  const engine::EngineConfig& config() const { return config_; }

  /// Host-execution knobs (SIMD-vs-scalar, threads) passed to the engine
  /// factory — the knobs of the cpu engines.
  void set_cpu_options(const dedisp::CpuKernelOptions& options);
  const dedisp::CpuKernelOptions& cpu_options() const {
    return engine_options_.cpu;
  }

  /// Two-stage split of the subband engine (adapted to the plan by gcd).
  void set_subband_config(const dedisp::SubbandConfig& config);

  /// Execute the selected engine. Input must be channels × ≥in_samples.
  Array2D<float> dedisperse(ConstView2D<float> input);

  /// Whole-lifetime traffic aggregate across every dedisperse() call on
  /// this instance: runs, busy seconds, FLOP and bytes.
  engine::SessionTraffic telemetry() const { return traffic_; }

 private:
  Dedisperser(dedisp::Plan plan, std::string engine);
  /// Recreate the engine from engine_options_ (engines are immutable).
  void rebuild_engine();

  dedisp::Plan plan_;
  std::string engine_id_;
  engine::EngineOptions engine_options_;
  std::shared_ptr<const engine::DedispEngine> engine_;
  /// Engine-native config; empty = the engine's defaults.
  engine::EngineConfig config_;
  /// Every dedisperse() run, across engine rebuilds and reconfiguration.
  engine::SessionTraffic traffic_;
};

}  // namespace ddmc::pipeline
