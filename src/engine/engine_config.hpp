#pragma once
/// \file engine_config.hpp
/// \brief Engine-native tuning configurations: named axes with declared
/// ranges, defined and interpreted by each engine itself.
///
/// The paper's central result is that the profitable tuning axes are
/// *kernel-specific*: the four work-item/element parameters of the
/// brute-force kernel mean nothing to the two-stage subband method, whose
/// real knobs are its channel split and coarse DM step. Forcing every
/// engine through the KernelConfig-shaped space therefore searched the
/// wrong space for every engine but the tiled ones. An EngineConfig is the
/// engine-agnostic currency instead: a small map of named integer axes
/// that only the declaring engine interprets. The tuner walks axes an
/// engine *declares* (AxisSpec), the cache and results files persist
/// "name=value" pairs, and KernelConfig survives as the tiled engines'
/// *encoding* of their six axes — converted at the boundary, never assumed
/// by the layers above.
///
/// This header is standalone (STL + kernel_config.hpp only) so the
/// persistence layer can speak EngineConfig without pulling in the engine
/// interface.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dedisp/kernel_config.hpp"

namespace ddmc::engine {

/// One declared tuning axis: the values a search may try and the value the
/// engine assumes when a config omits the axis. The values are the *search
/// ladder*, not the validity set — an engine's validate_config may accept
/// off-ladder values (e.g. any tile extent that divides the plan).
struct AxisSpec {
  std::string name;
  std::vector<std::int64_t> values;
  std::int64_t default_value = 0;
};

/// A point in an engine's configuration space: named integer axes. An
/// absent axis means "the engine's default"; the empty config is therefore
/// valid for every engine and selects its untuned behavior.
struct EngineConfig {
  std::map<std::string, std::int64_t> axes;

  bool has(const std::string& name) const { return axes.count(name) > 0; }
  std::int64_t get(const std::string& name, std::int64_t fallback) const {
    const auto it = axes.find(name);
    return it == axes.end() ? fallback : it->second;
  }
  EngineConfig& set(const std::string& name, std::int64_t value) {
    axes[name] = value;
    return *this;
  }

  bool empty() const { return axes.empty(); }

  /// "name=value;name=value" in axis-name order; "-" for the empty config.
  /// Contains no ',', '|' or whitespace, so the encoding is safe inside
  /// both the results CSV and the cache's '|'-delimited signatures.
  std::string encode() const;
  std::string to_string() const { return encode(); }
  static std::optional<EngineConfig> decode(const std::string& text);

  friend bool operator==(const EngineConfig&, const EngineConfig&) = default;
};

/// \p config with every axis that sits at its declared default removed, so
/// "explicitly default" and "omitted" collapse onto one canonical form —
/// the form dedup keys and cache entries should use.
EngineConfig normalized(const EngineConfig& config,
                        const std::vector<AxisSpec>& axes);

/// The axis names of the tiled engines' KernelConfig encoding.
inline constexpr const char* kKernelAxisNames[] = {
    "wi_time", "wi_dm", "elem_time", "elem_dm", "channel_block", "unroll"};

/// Encode a KernelConfig as the six kernel axes, canonically omitting axes
/// at their neutral defaults (wi/elem = 1, channel_block = 0, unroll = 1).
/// A default-constructed KernelConfig therefore encodes as the empty
/// config — which is what lets pre-v3 cache rows tuned on untuned 1×1
/// shapes migrate as configs valid for *every* engine.
EngineConfig encode_kernel_config(const dedisp::KernelConfig& config);

/// Read the six kernel axes back out of \p config (absent axes take their
/// neutral defaults). Lenient on purpose: unknown axes are ignored, so a
/// config carrying engine-specific extras (the u8 quantization window)
/// still yields its tile shape.
dedisp::KernelConfig decode_kernel_config(const EngineConfig& config);

/// The six kernel AxisSpecs with ladders collected from \p candidates, in
/// the tiled engines' descent order (cache-behaviour knobs first) — how the
/// tiled engines declare config_axes() over their candidate ladder.
std::vector<AxisSpec> kernel_config_axes(
    const std::vector<dedisp::KernelConfig>& candidates);

}  // namespace ddmc::engine
