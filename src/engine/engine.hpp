#pragma once
/// \file engine.hpp
/// \brief The unified execution-engine abstraction.
///
/// The paper's central result is that no single kernel shape — and, in the
/// follow-up survey work, no single *platform* — wins everywhere: platform
/// choice is itself a tuning decision. This library grew several execution
/// paths (tiled SIMD CPU on float and on 8-bit samples, scalar baseline,
/// two-stage subband, Fourier-domain fdmt) plus the sequential reference.
/// A DedispEngine is the seam that makes them interchangeable:
///
///  - every engine executes the same contract — `execute(plan, config, in,
///    out)` fills the dms × out_samples trial matrix from a channels ×
///    ≥in_samples input; an engine whose kernel reads 8-bit codes
///    (cpu_tiled_u8) declares its code map (`input_quantizer`) and also
///    takes the input already quantized, as a code plane;
///  - a capabilities struct declares what a consumer may do with the engine
///    (shard its DM grid, stream it chunk-by-chunk, trust bitwise equality
///    with the reference, search its configuration space), so the pipeline,
///    streaming and tuning layers gate on *capabilities*, never on engine
///    identity;
///  - the engine declares its own tuning parameterization as named axes
///    (`config_axes()`, engine_config.hpp) and enumerates the EngineConfig
///    candidates worth measuring (`config_space()`), collapsing to the
///    single empty config for engines without tunable knobs — which is
///    exactly what lets `tune_guided` race arbitrary engines against each
///    other on equal footing. The tiled engines interpret the six kernel
///    axes and own their candidate ladder; the subband engine's axes are
///    its channel split and coarse DM step. No layer above the engine
///    boundary assumes a config shape.
///
/// The paper's device model and functional simulator (src/ocl/) reproduce
/// the paper's figures; they are not execution paths and do not register
/// here.
///
/// Engines are created by name through the EngineRegistry
/// (engine/registry.hpp); consumers hold `std::shared_ptr<const
/// DedispEngine>` handles. An engine instance is cheap and its behaviour
/// is fixed at construction (it captures its EngineOptions), so one
/// instance may execute concurrently from many worker threads. The only
/// state a call leaves behind is scratch: engines whose kernels need
/// large working buffers (fdmt, subband, cpu_tiled_u8) keep them in a
/// pool that lends each concurrent call its own and frees them with the
/// instance (builtin_engines.cpp), so a steady-state call allocates
/// nothing and never changes another call's output.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/array2d.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/plan.hpp"
#include "dedisp/quantize.hpp"
#include "dedisp/subband.hpp"
#include "engine/engine_config.hpp"

namespace ddmc::engine {

/// The registry id consumers default to: the tiled SIMD host engine.
inline constexpr const char kDefaultEngineId[] = "cpu_tiled";

/// What a consumer may do with an engine. Consumers gate on these bits and
/// name the missing capability in their errors; they never test engine ids.
struct EngineCapabilities {
  /// The engine produces correct rows for Plan::dm_shard slices, so the
  /// sharded executor may split its DM grid across workers and assemble
  /// row ranges.
  bool supports_sharding = false;
  /// The engine produces correct output for chunk-window plans
  /// (Plan::with_chunk), so a streaming session may drive it.
  bool supports_streaming = false;
  /// Output is bit-identical to dedisp::dedisperse_reference (same float
  /// additions in the same order). False marks an approximation whose
  /// error is bounded, not zero (the subband engine).
  bool bitwise_exact = false;
  /// The engine's declared config axes change its execution, so its
  /// config_space() is worth searching. False collapses tuning to a single
  /// measured point (the empty config) — still a valid race entrant.
  bool tunable = false;
  /// Input columns the engine may read beyond Plan::in_samples() (the
  /// subband engine's split-delay rounding needs up to two). Consumers that
  /// can supply real samples for the padding should (the streaming chunker
  /// widens its overlap by this); the engine zero-pads otherwise.
  std::size_t input_padding = 0;
  /// Bytes per input sample the engine's kernel actually streams from
  /// memory: 4 for the float engines, 1 for cpu_tiled_u8. Traffic
  /// accounting (EngineRun::bytes, SessionTraffic, the benches) derives
  /// per-engine bytes-moved from this instead of assuming sizeof(float) —
  /// the number that makes the quantized engine's bandwidth win honest.
  std::size_t input_element_bytes = sizeof(float);
  /// execute() spreads its work over EngineOptions::cpu.threads workers
  /// (0 = one per hardware thread), on a pool the engine resolves once at
  /// construction. False: it runs on the calling thread whatever the
  /// options say (fdmt, the reference).
  bool threaded = false;
  /// Version of what a config of this engine measures. Tuning-cache rows
  /// carry it in their host signature, so bumping it — on any change that
  /// makes an old row's timing describe a different execution — turns the
  /// engine's cached rows into misses instead of stale answers.
  std::size_t epoch = 0;

  friend bool operator==(const EngineCapabilities&,
                         const EngineCapabilities&) = default;
};

/// Construction-time knobs shared by every engine factory. Each engine
/// reads the fields it understands and ignores the rest, so one options
/// struct configures any registry id.
struct EngineOptions {
  /// Host-execution knobs (SIMD-vs-scalar, worker threads) of the
  /// threaded engines; threads sizes the pool each one resolves when it is
  /// built. Whether a tile stages its input rows is not a knob: the kernel
  /// decides it from the delay table (dedisp::staging_pays).
  dedisp::CpuKernelOptions cpu;
  /// Two-stage split of the subband engine, and the default channel-split
  /// / coarse-step factorization of the fdmt engine (same divisibility
  /// rules, same smearing semantics). Engines adapt both fields to a plan
  /// by gcd (subbands must divide the channel count, coarse_step the
  /// trial count), so any plan runs.
  dedisp::SubbandConfig subband;
  /// Fixed quantization window of the cpu_tiled_u8 engine. Construction
  /// time only (like a telescope gain setting), never data-dependent —
  /// that is what keeps the u8 engine's streaming and sharded runs bitwise
  /// identical to its batch run.
  dedisp::QuantizationParams quant;
};

/// Per-execution artifacts beyond the output matrix.
struct EngineRun {
  /// Wall-clock seconds of this execution, stamped by the non-virtual
  /// execute() wrapper — every path gets it for free, which is what lets
  /// the sharded and streaming consumers aggregate per-session traffic.
  double seconds = 0.0;
  /// FLOP and global-memory bytes of this execution, stamped by execute():
  /// an execute_impl that knows its *algorithmic* operation count may
  /// pre-stamp flop (the fdmt engine reports its transform FLOPs, not the
  /// plan's canonical brute-force credit) and the wrapper preserves it;
  /// otherwise the analytic model — with input bytes scaled by the
  /// engine's declared input_element_bytes, so a quantized engine reports
  /// its real traffic.
  double flop = 0.0;
  double bytes = 0.0;
};

/// Per-session aggregate of EngineRun artifacts. Every consumer that owns
/// a sequence of engine executions (Dedisperser, ShardedDedisperser,
/// StreamingDedisperser) accumulates one of these and exposes it via its
/// telemetry() accessor, so traffic survives the sharded and streaming
/// paths instead of being dropped at the first aggregation seam.
struct SessionTraffic {
  std::size_t runs = 0;         ///< engine executions aggregated
  double engine_seconds = 0.0;  ///< Σ EngineRun::seconds (busy time)
  /// FLOP and global-memory bytes as stamped into each EngineRun by
  /// execute(): the engine's own FLOP count where it reports one, the
  /// plan's analytic floor otherwise (2 FLOP per channel·trial·sample;
  /// input reads at the engine's declared element size + output-write
  /// floats).
  double flop = 0.0;
  double bytes = 0.0;

  void add(const EngineRun& run, const dedisp::Plan& plan);
  void merge(const SessionTraffic& other);

  /// Aggregate throughput over the session's busy time; 0 when unmeasured.
  double gflops() const {
    return engine_seconds > 0.0 ? flop / engine_seconds / 1e9 : 0.0;
  }
};

/// One execution path for the dedispersion contract. Implementations are
/// fixed after construction (scratch pools aside) and safe to execute
/// concurrently.
class DedispEngine {
 public:
  virtual ~DedispEngine() = default;

  /// Registry id ("cpu_tiled", "subband", …) — the tuner's engine axis.
  virtual const std::string& id() const = 0;
  virtual const EngineCapabilities& capabilities() const = 0;
  virtual const EngineOptions& options() const = 0;

  /// Execution variant entering the tuning-cache host signature next to the
  /// id: the SIMD backend actually compiled in ("avx2", "sse2", "neon",
  /// "scalar") for the cpu engines. Never contains '|', ',' or newlines.
  virtual std::string variant() const = 0;

  /// Worker threads one execute() runs on: the resolved
  /// EngineOptions::cpu.threads for threaded engines, 1 otherwise. Engines
  /// measured at different counts are not racing on equal terms, so the
  /// tuner records this per entrant.
  std::size_t threads() const;

  /// The named axes this engine's execution depends on, with their search
  /// ladders and defaults for \p plan. Empty for engines without knobs.
  /// Axis *names* are the validity contract (validate_config rejects
  /// unknown names); the listed values are only the ladder a search walks.
  virtual std::vector<AxisSpec> config_axes(const dedisp::Plan& plan) const {
    (void)plan;
    return {};
  }

  /// EngineConfig candidates worth measuring on \p plan, valid and
  /// deduplicated. Engines without tunable knobs return the single empty
  /// config (their defaults), which is valid for every plan.
  virtual std::vector<EngineConfig> config_space(
      const dedisp::Plan& plan) const {
    (void)plan;
    return {EngineConfig{}};
  }

  /// Strict validity check of \p config for \p plan: throws
  /// ddmc::config_error naming the axis and engine when the config cannot
  /// run (an axis this engine does not declare, a tile that does not
  /// divide the plan, …). The empty config always passes.
  virtual void validate_config(const dedisp::Plan& plan,
                               const EngineConfig& config) const;

  /// Lenient adaptation: the closest config to \p config that is valid for
  /// \p plan. A valid config comes back unchanged; the tiled engines
  /// gcd-shrink their DM tile onto shard plans; anything unusable falls
  /// back to the empty config (engine defaults). Never throws.
  virtual EngineConfig adapt_config(const dedisp::Plan& plan,
                                    const EngineConfig& config) const;

  /// Trials the DM dimension of \p config (valid for \p plan) runs in, the
  /// granularity the sharded executor cuts DM ranges on. The tiled engines
  /// answer their DM tile: a Plan::dm_shard slice whose trial count is a
  /// multiple of it runs \p config unchanged (adapt_config returns it as
  /// is). The default, 1, leaves every slice to adapt_config.
  virtual std::size_t dm_tile(const dedisp::Plan& plan,
                              const EngineConfig& config) const {
    (void)plan;
    (void)config;
    return 1;
  }

  /// Deduplication key: two configs with the same key run the identical
  /// execution on \p plan, so a search measures only one of them. The
  /// default collapses declared-default axes; the tiled engines collapse
  /// tile splits that compile to the same host kernel.
  virtual std::string config_key(const dedisp::Plan& plan,
                                 const EngineConfig& config) const;

  /// Dedisperse \p in (channels × ≥in_samples) into \p out (dms ×
  /// ≥out_samples) under \p config, whose axes the engine interprets
  /// itself (unknown axes are ignored at execution time; absent axes take
  /// their defaults — the empty config runs the engine untuned).
  ///
  /// Non-virtual template method (engine.cpp): times the run, stamps
  /// EngineRun::seconds, opens an `engine.execute` trace span and publishes
  /// per-engine execution/seconds/FLOP/byte metrics, then delegates to the
  /// engine's execute_impl(). Instrumenting here — the one seam every
  /// consumer already dispatches through — is what makes the telemetry
  /// backend-orthogonal: a new engine is observable the moment it
  /// registers.
  EngineRun execute(const dedisp::Plan& plan, const EngineConfig& config,
                    ConstView2D<float> in, View2D<float> out) const;

  /// The 8-bit code map the engine's kernel reads its samples through
  /// under \p config, or empty for engines that read float samples (the
  /// default). An engine that declares one accepts the code-plane
  /// execute() below, and its float execute() is that same call on
  /// samples it quantizes itself with exactly these parameters. A caller
  /// that quantizes each sample once as it arrives (the streaming chunker)
  /// then hands over codes and the engine does only the accumulate, with
  /// output bitwise equal to the float call on the same samples.
  virtual std::optional<dedisp::QuantizationParams> input_quantizer(
      const EngineConfig& config) const {
    (void)config;
    return std::nullopt;
  }

  /// Dedisperse a code plane \p in (channels × ≥in_samples codes under
  /// input_quantizer(config)) into \p out. Same contract and the same
  /// non-virtual wrapper (span, metrics, EngineRun stamping) as the float
  /// execute(). Throws ddmc::invalid_argument on an engine that declares
  /// no input_quantizer.
  EngineRun execute(const dedisp::Plan& plan, const EngineConfig& config,
                    ConstView2D<std::uint8_t> in, View2D<float> out) const;

 protected:
  /// The engine's actual execution path; contract as execute() above.
  virtual EngineRun execute_impl(const dedisp::Plan& plan,
                                 const EngineConfig& config,
                                 ConstView2D<float> in,
                                 View2D<float> out) const = 0;
  /// The code-plane execution path of an engine that declares an
  /// input_quantizer. Default: rejects the call.
  virtual EngineRun execute_codes_impl(const dedisp::Plan& plan,
                                       const EngineConfig& config,
                                       ConstView2D<std::uint8_t> in,
                                       View2D<float> out) const;

 private:
  /// The wrapper both execute() overloads share.
  template <typename T>
  EngineRun instrumented(const dedisp::Plan& plan, const EngineConfig& config,
                         ConstView2D<T> in, View2D<float> out) const;
};

}  // namespace ddmc::engine
