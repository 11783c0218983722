/// \file builtin_engines.cpp
/// \brief The built-in execution paths, wrapped as DedispEngines.
///
/// This file is deliberately the only place in the library that calls the
/// concrete kernels (dedisperse_cpu, dedisperse_cpu_u8,
/// dedisperse_cpu_baseline, dedisperse_reference, dedisperse_subband,
/// dedisperse_fdmt): every consumer above it dispatches through the
/// DedispEngine interface, so a grep for those symbols outside src/engine/
/// and src/dedisp/ should come back empty — that is the refactor's
/// invariant. It includes nothing from the tuner or the device model.
///
/// Each engine also *owns its tuning parameterization* here: the tiled
/// engines interpret the six kernel axes of engine_config.hpp and
/// enumerate their candidates from the shared dedisp::SearchSpace ladder,
/// the subband engine declares its channel split and coarse DM step, and
/// the scalar engines declare nothing. No layer above this file knows
/// which axes exist — the tuner walks whatever config_axes() returns.
///
/// Three engines keep working buffers between calls: fdmt (spectra,
/// subband planes, accumulators, FFT plan and scratch), subband (delay
/// tables and the stage-1 plane) and cpu_tiled_u8 (the quantized byte
/// plane). Each holds a WorkspacePool (common/workspace.hpp): every
/// concurrent execute() borrows a workspace of its own and returns it when
/// done, a workspace grows only when a call's shape needs more, and all of
/// them are freed with the engine instance. A steady-state call on one
/// shape therefore allocates no new buffers, and the const engine stays
/// safe to execute from many threads at once.
///
/// The threaded engines (capabilities().threaded) also resolve their
/// workers once, at construction (common/thread_pool.hpp WorkerPool):
/// inline for EngineOptions::cpu.threads = 1, the global pool for 0, and a
/// pool of their own for any other count. Every execute() runs its kernel
/// on that pool, so no call spawns a thread, and concurrent calls share
/// the pool's workers.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <string_view>
#include <utility>

#include "common/expect.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "dedisp/cpu_baseline.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/fdmt.hpp"
#include "dedisp/quantize.hpp"
#include "dedisp/reference.hpp"
#include "dedisp/subband.hpp"
#include "engine/registry.hpp"
#include "resilience/fault_injection.hpp"
#include "telemetry/tracing.hpp"

namespace ddmc::engine {

namespace {

/// Shared state and shape checks; concrete engines add execute_impl() and
/// the odd override.
class EngineBase : public DedispEngine {
 public:
  EngineBase(std::string id, EngineCapabilities caps, EngineOptions options)
      : id_(std::move(id)),
        caps_(caps),
        options_(std::move(options)),
        workers_(caps_.threaded ? options_.cpu.threads : 1) {}

  const std::string& id() const override { return id_; }
  const EngineCapabilities& capabilities() const override { return caps_; }
  const EngineOptions& options() const override { return options_; }

  /// The variant of the tiled kernel, which the tiled engines and subband
  /// run: the compiled SIMD backend, or "scalar" without vectorization.
  std::string variant() const override {
    return options_.cpu.vectorize ? simd::backend_name() : "scalar";
  }

 protected:
  template <typename T>
  void check_shapes(const dedisp::Plan& plan, ConstView2D<T> in,
                    View2D<float> out) const {
    DDMC_REQUIRE(in.rows() == plan.channels(),
                 "engine '" + id_ + "': input rows != plan channels");
    DDMC_REQUIRE(in.cols() >= plan.in_samples(),
                 "engine '" + id_ + "': input holds too few samples");
    DDMC_REQUIRE(out.rows() == plan.dms(),
                 "engine '" + id_ + "': output rows != trial DMs");
    DDMC_REQUIRE(out.cols() >= plan.out_samples(),
                 "engine '" + id_ + "': output too short");
    // Every builtin execute_impl() validates through here, making this the
    // engine-execute fault-injection seam: an armed "engine.execute"
    // failpoint fails the call before the kernel touches the output.
    DDMC_FAILPOINT("engine.execute");
  }

  /// The pool every call of a threaded engine runs its kernel on.
  ThreadPool* pool() const { return workers_.get(); }

  const std::string id_;
  const EngineCapabilities caps_;
  const EngineOptions options_;

 private:
  const WorkerPool workers_;
};

// ------------------------------------------------------- tiled engines --

bool is_kernel_axis(const std::string& name) {
  for (const char* axis : kKernelAxisNames) {
    if (name == axis) return true;
  }
  return false;
}

/// Kernel-axes adaptation: keep the time tile, gcd-shrink the DM tile to
/// divide \p plan (a shard's out_samples equals its parent's, so the time
/// dimension still divides); fall back to the untuned 1×1 shape when even
/// the shrunk tile cannot validate. For bitwise-exact engines adaptation
/// never changes results — only efficiency.
dedisp::KernelConfig adapt_kernel_config(const dedisp::Plan& plan,
                                         dedisp::KernelConfig cfg) {
  const std::size_t tile =
      std::gcd(std::max<std::size_t>(cfg.tile_dm(), 1), plan.dms());
  cfg.elem_dm = std::gcd(std::max<std::size_t>(cfg.elem_dm, 1), tile);
  cfg.wi_dm = tile / cfg.elem_dm;
  try {
    cfg.validate(plan);
    return cfg;
  } catch (const config_error&) {
  }
  cfg.wi_dm = 1;
  cfg.elem_dm = 1;
  try {
    cfg.validate(plan);
    return cfg;
  } catch (const config_error&) {
    return dedisp::KernelConfig{};  // 1×1 everywhere divides every plan
  }
}

/// The parameters that actually distinguish two tiled-kernel executions.
/// The host kernel has no work-groups: a config reaches it only through its
/// tile extents, its register-tile rows (elem_dm, collapsed onto the
/// compiled {1,2,4,8} instantiations), the effective channel block and the
/// unroll instantiation — so e.g. {wi_time=8, elem_time=2} and
/// {wi_time=4, elem_time=4} run the identical kernel. Runs without the
/// register tile (dedisp::runs_register_tile) ignore the register-tile and
/// unroll knobs entirely.
struct TiledKernelKey {
  std::size_t tile_time = 0;
  std::size_t tile_dm = 0;
  std::size_t reg_rows = 1;       ///< compiled DR (1 without the tile)
  std::size_t channel_block = 0;  ///< effective block for the plan
  std::size_t unroll = 1;         ///< compiled U (1 without the tile)

  friend auto operator<=>(const TiledKernelKey&,
                          const TiledKernelKey&) = default;
};

TiledKernelKey tiled_kernel_key(const dedisp::KernelConfig& config,
                                const dedisp::Plan& plan,
                                bool register_tile) {
  TiledKernelKey key;
  key.tile_time = config.tile_time();
  key.tile_dm = config.tile_dm();
  key.channel_block = config.effective_channel_block(plan);
  if (register_tile) {
    key.reg_rows = dedisp::compiled_register_extent(config.elem_dm);
    key.unroll = dedisp::compiled_register_extent(config.unroll);
  }
  return key;
}

/// Cap on wi_time × wi_dm for the tiled candidates: the largest work-group
/// any Table I device accepts, which the ladder was built around.
constexpr std::size_t kMaxWorkGroupSize = 1024;

/// The tiled engines' candidates on \p plan: the default ladder's four
/// paper axes filtered by tile divisibility and kMaxWorkGroupSize (host
/// kernels have no register or local-memory limits worth enforcing),
/// crossed with every meaningful channel_block (values ≥ the channel count
/// collapse onto the "all channels" pass and are dropped) and every unroll
/// ladder value — minus execution duplicates, keeping the first
/// representative in ladder order. The ladder crossed with the divisor
/// candidates reaches the same host kernel under many (wi, elem) splits,
/// and timing a kernel twice only wastes sweep time.
std::vector<dedisp::KernelConfig> tiled_candidates(const dedisp::Plan& plan,
                                                   bool register_tile) {
  const dedisp::SearchSpace space = dedisp::default_search_space();
  std::vector<dedisp::KernelConfig> out;
  std::set<TiledKernelKey> seen;
  for (std::size_t wt : space.wi_time) {
    for (std::size_t wd : space.wi_dm) {
      if (wt * wd > kMaxWorkGroupSize) continue;
      for (std::size_t et : space.elem_time) {
        if (plan.out_samples() % (wt * et) != 0) continue;
        for (std::size_t ed : space.elem_dm) {
          if (plan.dms() % (wd * ed) != 0) continue;
          for (std::size_t cb : space.channel_block) {
            if (cb >= plan.channels() && cb != 0) continue;
            for (std::size_t un : space.unroll) {
              const dedisp::KernelConfig cfg{wt, wd, et, ed, cb, un};
              if (seen.insert(tiled_kernel_key(cfg, plan, register_tile))
                      .second) {
                out.push_back(cfg);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

/// Shared interpretation of the six kernel axes (engine_config.hpp) by the
/// two cpu tiled engines.
class CpuTiledBase : public EngineBase {
 public:
  using EngineBase::EngineBase;

  std::vector<AxisSpec> config_axes(
      const dedisp::Plan& plan) const override {
    return kernel_config_axes(
        tiled_candidates(plan, dedisp::runs_register_tile(options_.cpu)));
  }

  std::vector<EngineConfig> config_space(
      const dedisp::Plan& plan) const override {
    std::vector<EngineConfig> space;
    for (const dedisp::KernelConfig& cfg :
         tiled_candidates(plan, dedisp::runs_register_tile(options_.cpu))) {
      space.push_back(encode_kernel_config(cfg));
    }
    return space;
  }

  void validate_config(const dedisp::Plan& plan,
                       const EngineConfig& config) const override {
    for (const auto& [name, value] : config.axes) {
      if (!is_kernel_axis(name) && !is_extra_axis(name)) {
        throw config_error("engine '" + id_ +
                           "' declares no config axis '" + name + "'");
      }
      validate_extra_axis(name, value);
    }
    decode_kernel_config(config).validate(plan);
  }

  EngineConfig adapt_config(const dedisp::Plan& plan,
                            const EngineConfig& config) const override {
    EngineConfig adapted = encode_kernel_config(
        adapt_kernel_config(plan, decode_kernel_config(config)));
    copy_extra_axes(config, adapted);
    return adapted;
  }

  std::size_t dm_tile(const dedisp::Plan& plan,
                      const EngineConfig& config) const override {
    return adapt_kernel_config(plan, decode_kernel_config(config)).tile_dm();
  }

  std::string config_key(const dedisp::Plan& plan,
                         const EngineConfig& config) const override {
    // Two configs that compile to the same host kernel are one
    // measurement; extra axes append so they stay distinguishing.
    const TiledKernelKey key = tiled_kernel_key(
        decode_kernel_config(config), plan,
        dedisp::runs_register_tile(options_.cpu));
    std::string out = "tT=" + std::to_string(key.tile_time) +
                      ";tD=" + std::to_string(key.tile_dm) +
                      ";rr=" + std::to_string(key.reg_rows) +
                      ";cb=" + std::to_string(key.channel_block) +
                      ";u=" + std::to_string(key.unroll);
    EngineConfig extras;
    copy_extra_axes(config, extras);
    if (!extras.empty()) out += ";" + extras.encode();
    return out;
  }

 protected:
  /// Engine-specific axes beyond the six kernel ones (the u8 engine's
  /// quantization window). Base: none.
  virtual bool is_extra_axis(const std::string& name) const {
    (void)name;
    return false;
  }
  virtual void validate_extra_axis(const std::string& name,
                                   std::int64_t value) const {
    (void)name;
    (void)value;
  }
  void copy_extra_axes(const EngineConfig& from, EngineConfig& to) const {
    for (const auto& [name, value] : from.axes) {
      if (is_extra_axis(name)) to.set(name, value);
    }
  }
};

// -------------------------------------------------------------- cpu_tiled --

class CpuTiledEngine final : public CpuTiledBase {
 public:
  explicit CpuTiledEngine(EngineOptions options)
      : CpuTiledBase("cpu_tiled",
                     EngineCapabilities{.supports_sharding = true,
                                        .supports_streaming = true,
                                        .bitwise_exact = true,
                                        .tunable = true,
                                        .threaded = true,
                                        // 1: staging only where it pays
                                        // (dedisp::staging_pays).
                                        .epoch = 1},
                     std::move(options)) {}

  EngineRun execute_impl(const dedisp::Plan& plan, const EngineConfig& config,
                         ConstView2D<float> in,
                         View2D<float> out) const override {
    check_shapes(plan, in, out);
    dedisp::dedisperse_cpu(plan, decode_kernel_config(config), in, out,
                           options_.cpu, pool());
    return {};
  }
};

// ----------------------------------------------------------- cpu_tiled_u8 --

/// The tiled kernel on quantized 8-bit samples: the sample plane is one
/// byte per element up to the register tile, so the streamed
/// input traffic is a quarter of cpu_tiled's — the decisive saving for a
/// memory-bandwidth-bound kernel, and why real surveys record 8-bit data.
///
/// bitwise_exact is false — each sample carries up to quant.scale()/2 of
/// rounding, so an output element is within
/// dedisp::quantization_error_bound(plan, options.quant) of the float
/// reference — but the engine is still *deterministic*: quantization is
/// pointwise with fixed construction-time parameters and the raw-code
/// accumulation is exact integer arithmetic below 2^24, so streaming ==
/// batch and sharded == single remain bitwise identities of this engine.
///
/// Beyond the six kernel axes, the engine declares its quantization window
/// as the `quant_window` axis (the symmetric clamp half-width: a value of
/// w quantizes over [-w, +w]). The default sweep holds it at the engine's
/// configured window — the window is an accuracy knob, not a speed knob,
/// so auto-tuning never trades precision silently — but a caller may pin
/// it per-config, and it round-trips through the cache like any axis.
class CpuTiledU8Engine final : public CpuTiledBase {
 public:
  explicit CpuTiledU8Engine(EngineOptions options)
      : CpuTiledBase(
            "cpu_tiled_u8",
            EngineCapabilities{.supports_sharding = true,
                               .supports_streaming = true,
                               .bitwise_exact = false,
                               .tunable = true,
                               .input_element_bytes = sizeof(std::uint8_t),
                               .threaded = true,
                               // 1: code sums in 16-bit lanes; 2:
                               // staging only where it pays.
                               .epoch = 2},
            std::move(options)) {}

  std::vector<AxisSpec> config_axes(
      const dedisp::Plan& plan) const override {
    std::vector<AxisSpec> axes = CpuTiledBase::config_axes(plan);
    AxisSpec window;
    window.name = "quant_window";
    window.default_value = default_window();
    window.values = {window.default_value};
    axes.push_back(std::move(window));
    return axes;
  }

  std::optional<dedisp::QuantizationParams> input_quantizer(
      const EngineConfig& config) const override {
    return quant_of(config);
  }

  EngineRun execute_impl(const dedisp::Plan& plan, const EngineConfig& config,
                         ConstView2D<float> in,
                         View2D<float> out) const override {
    check_shapes(plan, in, out);
    // Float samples are quantized here, then take the code-plane path. A
    // streaming session's full chunks skip this pass: its chunker
    // quantizes each sample once as it arrives and hands over the codes.
    // The staging write is excluded from the engine's declared traffic
    // model, which counts the kernel's own streaming. The plane comes
    // from the engine's workspace pool: a fresh allocation's page faults
    // cost about as much as the (vectorized) quantize pass itself.
    const auto workspace = planes_.acquire();
    const View2D<std::uint8_t> plane =
        workspace->matrix(plan.channels(), plan.in_samples());
    {
      telemetry::TraceSpan span("u8.quantize");
      dedisp::quantize_plane(in, quant_of(config), plane);
    }
    accumulate(plan, config, plane, out);
    return {};
  }

  EngineRun execute_codes_impl(const dedisp::Plan& plan,
                               const EngineConfig& config,
                               ConstView2D<std::uint8_t> in,
                               View2D<float> out) const override {
    check_shapes(plan, in, out);
    accumulate(plan, config, in, out);
    return {};
  }

 protected:
  bool is_extra_axis(const std::string& name) const override {
    return name == "quant_window";
  }
  void validate_extra_axis(const std::string& name,
                           std::int64_t value) const override {
    if (name == "quant_window" && value < 1) {
      throw config_error(
          "engine 'cpu_tiled_u8': axis 'quant_window' must be >= 1");
    }
  }

 private:
  std::int64_t default_window() const {
    const double half = (options_.quant.hi - options_.quant.lo) / 2.0;
    return std::max<std::int64_t>(1, static_cast<std::int64_t>(half + 0.5));
  }
  void accumulate(const dedisp::Plan& plan, const EngineConfig& config,
                  ConstView2D<std::uint8_t> codes, View2D<float> out) const {
    dedisp::dedisperse_cpu_u8(plan, decode_kernel_config(config), codes,
                              quant_of(config), out, options_.cpu, pool());
  }
  dedisp::QuantizationParams quant_of(const EngineConfig& config) const {
    if (!config.has("quant_window")) return options_.quant;
    const auto w = static_cast<float>(
        std::max<std::int64_t>(config.get("quant_window", 0), 1));
    return dedisp::QuantizationParams{-w, w};
  }

  mutable WorkspacePool<ScratchBuffer<std::uint8_t>> planes_;
};

// ----------------------------------------------------------- cpu_baseline --

class CpuBaselineEngine final : public EngineBase {
 public:
  explicit CpuBaselineEngine(EngineOptions options)
      : EngineBase("cpu_baseline",
                   EngineCapabilities{.supports_sharding = true,
                                      .supports_streaming = true,
                                      .bitwise_exact = true,
                                      .threaded = true},
                   std::move(options)) {}

  std::string variant() const override { return "autovec"; }

  EngineRun execute_impl(const dedisp::Plan& plan, const EngineConfig& config,
                         ConstView2D<float> in,
                         View2D<float> out) const override {
    (void)config;  // no tunable knobs
    check_shapes(plan, in, out);
    dedisp::dedisperse_cpu_baseline(plan, in, out, {}, pool());
    return {};
  }
};

// -------------------------------------------------------------- reference --

class ReferenceEngine final : public EngineBase {
 public:
  explicit ReferenceEngine(EngineOptions options)
      : EngineBase("reference",
                   EngineCapabilities{.supports_sharding = true,
                                      .supports_streaming = true,
                                      .bitwise_exact = true},
                   std::move(options)) {}

  std::string variant() const override { return "serial"; }

  EngineRun execute_impl(const dedisp::Plan& plan, const EngineConfig& config,
                         ConstView2D<float> in,
                         View2D<float> out) const override {
    (void)config;
    check_shapes(plan, in, out);
    dedisp::dedisperse_reference(plan, in, out);
    return {};
  }
};

// ---------------------------------------------------------------- subband --

/// Divisors of \p n as an axis ladder, thinned to at most \p cap values
/// (evenly spaced through the sorted divisor list, endpoints kept) so a
/// highly composite channel count cannot explode the search space.
std::vector<std::int64_t> divisor_ladder(std::size_t n, std::size_t cap) {
  std::vector<std::int64_t> divisors;
  for (std::size_t d = 1; d <= n; ++d) {
    if (n % d == 0) divisors.push_back(static_cast<std::int64_t>(d));
  }
  if (divisors.size() <= cap || cap < 2) return divisors;
  std::vector<std::int64_t> out;
  out.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(divisors[i * (divisors.size() - 1) / (cap - 1)]);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// The split axes the two-stage engines (subband, fdmt) share.

/// `subbands` and `coarse_step` over the plan's divisors, at most \p cap
/// values each, defaulting to \p def.
std::vector<AxisSpec> split_axes(const dedisp::Plan& plan,
                                 const dedisp::SubbandConfig& def,
                                 std::size_t cap) {
  AxisSpec subbands;
  subbands.name = "subbands";
  subbands.values = divisor_ladder(plan.channels(), cap);
  subbands.default_value = static_cast<std::int64_t>(def.subbands);
  AxisSpec coarse;
  coarse.name = "coarse_step";
  coarse.values = divisor_ladder(plan.dms(), cap);
  coarse.default_value = static_cast<std::int64_t>(def.coarse_step);
  return {std::move(subbands), std::move(coarse)};
}

/// The splits on the ladders of \p axes whose smearing bound (\p error)
/// does not exceed \p def's: shrinking either knob only makes the
/// approximation more exact, so tuning may trade throughput within the
/// accuracy the caller already accepted, never loosen it silently.
template <typename Error>
std::vector<dedisp::SubbandConfig> splits_within(
    const std::vector<AxisSpec>& axes, const dedisp::SubbandConfig& def,
    const Error& error) {
  const std::int64_t budget = error(def);
  std::vector<dedisp::SubbandConfig> splits;
  for (const std::int64_t sb : axes[0].values) {
    for (const std::int64_t cs : axes[1].values) {
      const dedisp::SubbandConfig split{static_cast<std::size_t>(sb),
                                        static_cast<std::size_t>(cs)};
      if (error(split) <= budget) splits.push_back(split);
    }
  }
  return splits;
}

/// \p split as its two axes.
EngineConfig split_config(const dedisp::SubbandConfig& split) {
  EngineConfig config;
  config.set("subbands", static_cast<std::int64_t>(split.subbands))
      .set("coarse_step", static_cast<std::int64_t>(split.coarse_step));
  return config;
}

/// The split \p config selects: its axes where present, \p split's values
/// where absent (so the empty config — and any kernel-shaped config
/// another engine tuned — runs the configured split).
dedisp::SubbandConfig split_of(const EngineConfig& config,
                               dedisp::SubbandConfig split) {
  if (config.has("subbands")) {
    split.subbands = static_cast<std::size_t>(
        std::max<std::int64_t>(config.get("subbands", 1), 1));
  }
  if (config.has("coarse_step")) {
    split.coarse_step = static_cast<std::size_t>(
        std::max<std::int64_t>(config.get("coarse_step", 1), 1));
  }
  return split;
}

/// Reject an axis of \p config that engine \p id does not declare
/// (\p names), a value below 1, and a split axis that does not divide
/// \p plan.
void validate_split_config(const std::string& id, const dedisp::Plan& plan,
                           const EngineConfig& config,
                           std::initializer_list<std::string_view> names) {
  for (const auto& [name, value] : config.axes) {
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      throw config_error("engine '" + id + "' declares no config axis '" +
                         name + "'");
    }
    if (value < 1) {
      throw config_error("engine '" + id + "': axis '" + name +
                         "' must be >= 1");
    }
  }
  const auto check_divides = [&](const std::string& axis, std::size_t n,
                                 const std::string& what) {
    if (config.has(axis) &&
        n % static_cast<std::size_t>(config.get(axis, 1)) != 0) {
      throw config_error("engine '" + id + "': axis '" + axis +
                         "' must divide the " + what + " " +
                         std::to_string(n));
    }
  };
  check_divides("subbands", plan.channels(), "channel count");
  check_divides("coarse_step", plan.dms(), "trial count");
}

/// Two-stage engine. Its tuning axes are its *real* knobs — `subbands`
/// (how many adjacent-channel groups stage 1 dedisperses) and
/// `coarse_step` (fine trials reusing one coarse trial's shifts) — not the
/// tiled kernel's shape, which means nothing to it. The search space only
/// offers splits whose smearing bound does not exceed the configured
/// default split's: tuning may trade throughput within the accuracy the
/// caller already accepted, never loosen it silently.
class SubbandEngine final : public EngineBase {
 public:
  explicit SubbandEngine(EngineOptions options)
      : EngineBase("subband",
                   EngineCapabilities{.supports_streaming = true,
                                      .tunable = true,
                                      .input_padding = 2,
                                      .threaded = true,
                                      // 1: stages run on the kernel's
                                      // workers, not one thread.
                                      .epoch = 1},
                   std::move(options)) {}

  std::vector<AxisSpec> config_axes(
      const dedisp::Plan& plan) const override {
    return split_axes(plan, options_.subband.adapted_to(plan), 12);
  }

  std::vector<EngineConfig> config_space(
      const dedisp::Plan& plan) const override {
    std::vector<EngineConfig> space;
    for (const dedisp::SubbandConfig& split : splits_within(
             config_axes(plan), options_.subband.adapted_to(plan),
             [&](const dedisp::SubbandConfig& split) {
               return dedisp::subband_max_delay_error(plan, split);
             })) {
      space.push_back(split_config(split));
    }
    return space;
  }

  void validate_config(const dedisp::Plan& plan,
                       const EngineConfig& config) const override {
    validate_split_config(id_, plan, config, {"subbands", "coarse_step"});
  }

  EngineConfig adapt_config(const dedisp::Plan& plan,
                            const EngineConfig& config) const override {
    return split_config(split_of(config, options_.subband).adapted_to(plan));
  }

  std::string config_key(const dedisp::Plan& plan,
                         const EngineConfig& config) const override {
    // gcd adaptation collapses off-plan splits, so two configs that adapt
    // onto the same effective split are one measurement.
    return adapt_config(plan, config).encode();
  }

  EngineRun execute_impl(const dedisp::Plan& plan, const EngineConfig& config,
                         ConstView2D<float> in,
                         View2D<float> out) const override {
    check_shapes(plan, in, out);
    const dedisp::SubbandConfig sub =
        split_of(config, options_.subband).adapted_to(plan);
    // The split delays may read up to input_padding columns past
    // in_samples. Callers that provide the worst-case padding (the
    // streaming chunker and the tuning evaluator do) take the direct path
    // without any extra work; for shorter inputs, compute the *exact*
    // requirement — usually at or near in_samples — and only stage into a
    // zero-padded copy when the input is genuinely short, which bounds the
    // tail error by the padding width instead of rejecting the input.
    const std::size_t required =
        in.cols() >= plan.in_samples() + caps_.input_padding
            ? 0
            : dedisp::subband_min_input_samples(plan, sub);
    const auto workspace = workspaces_.acquire();
    if (in.cols() >= required) {
      dedisp::dedisperse_subband(plan, sub, in, out, *workspace,
                                 options_.cpu, pool());
      return {};
    }
    Array2D<float> padded(plan.channels(), required);  // zero-initialized
    for (std::size_t ch = 0; ch < in.rows(); ++ch) {
      std::memcpy(&padded(ch, 0), &in(ch, 0), in.cols() * sizeof(float));
    }
    dedisp::dedisperse_subband(plan, sub, padded.cview(), out, *workspace,
                               options_.cpu, pool());
    return {};
  }

 private:
  mutable WorkspacePool<dedisp::SubbandWorkspace> workspaces_;
};

// ------------------------------------------------------------------- fdmt --

/// Fourier-domain dedispersion (dedisp/fdmt.hpp): forward-FFT every
/// channel once, accumulate phase-rotated spectra through the subband
/// factorization, inverse-FFT once per trial. Its axes are the split the
/// factorization shares with the time-domain subband engine (`subbands`,
/// `coarse_step` — same divisibility, same smearing budget in the search
/// space) plus `block`, the frequency-accumulation block size in bins.
///
/// bitwise_exact is false: the composed integer shifts smear fine trials
/// by at most fdmt_max_delay_error samples, and the float transforms add
/// roundoff — both captured by dedisp::fdmt_error_bound, the documented
/// tolerance the equivalence tests enforce. Sharding is supported: a
/// shard plan's sliced DelayTable yields the shard's own phase tables, so
/// every shard's rows match a single run within the same bound. Streaming
/// stays unsupported (supports_streaming = false, named in the error)
/// until chunk-overlap semantics for the transform are worked out.
///
/// The engine stamps its *algorithmic* FLOPs into EngineRun::flop — an
/// asymptotically cheaper transform credited with the plan's canonical
/// brute-force count would fake a GFLOP/s number — which is exactly why
/// tune_guided races rank by measured wall seconds, never by throughput.
///
/// Each execute() borrows a dedisp::FdmtWorkspace from the engine's pool
/// (spectra, subband planes, accumulators, FFT plan and scratch): a tuning
/// race re-running one shape reuses the same buffers, concurrent shard
/// workers each get their own, and all of them go with the engine.
class FdmtEngine final : public EngineBase {
 public:
  explicit FdmtEngine(EngineOptions options)
      : EngineBase("fdmt",
                   EngineCapabilities{.supports_sharding = true,
                                      .tunable = true},
                   std::move(options)) {}

  std::string variant() const override { return simd::backend_name(); }

  std::vector<AxisSpec> config_axes(
      const dedisp::Plan& plan) const override {
    const dedisp::FdmtConfig def = default_config().adapted_to(plan);
    std::vector<AxisSpec> axes = split_axes(plan, def.split, 8);
    AxisSpec block;
    block.name = "block";
    block.values = {512, 2048, 8192};
    block.default_value = static_cast<std::int64_t>(def.block);
    axes.push_back(std::move(block));
    return axes;
  }

  std::vector<EngineConfig> config_space(
      const dedisp::Plan& plan) const override {
    const std::vector<AxisSpec> axes = config_axes(plan);
    std::vector<EngineConfig> space;
    for (const dedisp::SubbandConfig& split : splits_within(
             axes, default_config().adapted_to(plan).split,
             [&](const dedisp::SubbandConfig& split) {
               return dedisp::fdmt_max_delay_error(plan, split);
             })) {
      for (const std::int64_t blk : axes[2].values) {
        space.push_back(split_config(split).set("block", blk));
      }
    }
    return space;
  }

  void validate_config(const dedisp::Plan& plan,
                       const EngineConfig& config) const override {
    validate_split_config(id_, plan, config,
                          {"subbands", "coarse_step", "block"});
  }

  EngineConfig adapt_config(const dedisp::Plan& plan,
                            const EngineConfig& config) const override {
    const dedisp::FdmtConfig cfg = config_of(config).adapted_to(plan);
    return split_config(cfg.split)
        .set("block", static_cast<std::int64_t>(cfg.block));
  }

  std::string config_key(const dedisp::Plan& plan,
                         const EngineConfig& config) const override {
    // gcd adaptation collapses off-plan splits, so two configs that adapt
    // onto the same effective execution are one measurement.
    return adapt_config(plan, config).encode();
  }

  EngineRun execute_impl(const dedisp::Plan& plan, const EngineConfig& config,
                         ConstView2D<float> in,
                         View2D<float> out) const override {
    check_shapes(plan, in, out);
    const dedisp::FdmtConfig cfg = config_of(config).adapted_to(plan);
    dedisp::dedisperse_fdmt(plan, cfg, in, out, *workspaces_.acquire());
    EngineRun run;
    run.flop = dedisp::fdmt_flop(plan, cfg);
    return run;
  }

 private:
  dedisp::FdmtConfig default_config() const {
    dedisp::FdmtConfig cfg;
    cfg.split = options_.subband;
    return cfg;
  }
  /// The config a point selects: its axes where present, the engine's
  /// configured defaults where absent — the empty config (and any
  /// kernel-shaped config another engine tuned) runs the defaults.
  dedisp::FdmtConfig config_of(const EngineConfig& config) const {
    dedisp::FdmtConfig cfg = default_config();
    cfg.split = split_of(config, cfg.split);
    if (config.has("block")) {
      cfg.block = static_cast<std::size_t>(
          std::max<std::int64_t>(config.get("block", 1), 1));
    }
    return cfg;
  }

  mutable WorkspacePool<dedisp::FdmtWorkspace> workspaces_;
};

}  // namespace

namespace detail {

void register_builtin_engines(EngineRegistry& registry) {
  registry.add("cpu_tiled", [](const EngineOptions& options) {
    return std::make_shared<const CpuTiledEngine>(options);
  });
  registry.add("cpu_tiled_u8", [](const EngineOptions& options) {
    return std::make_shared<const CpuTiledU8Engine>(options);
  });
  registry.add("cpu_baseline", [](const EngineOptions& options) {
    return std::make_shared<const CpuBaselineEngine>(options);
  });
  registry.add("reference", [](const EngineOptions& options) {
    return std::make_shared<const ReferenceEngine>(options);
  });
  registry.add("subband", [](const EngineOptions& options) {
    return std::make_shared<const SubbandEngine>(options);
  });
  registry.add("fdmt", [](const EngineOptions& options) {
    return std::make_shared<const FdmtEngine>(options);
  });
}

}  // namespace detail

}  // namespace ddmc::engine
