#include "engine/engine_config.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>

namespace ddmc::engine {

std::string EngineConfig::encode() const {
  if (axes.empty()) return "-";
  std::string out;
  for (const auto& [name, value] : axes) {
    if (!out.empty()) out += ';';
    out += name + "=" + std::to_string(value);
  }
  return out;
}

std::optional<EngineConfig> EngineConfig::decode(const std::string& text) {
  EngineConfig config;
  if (text == "-") return config;
  if (text.empty()) return std::nullopt;
  std::istringstream ss(text);
  std::string pair;
  while (std::getline(ss, pair, ';')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    const std::string name = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    // Axis names must stay safe inside the cache signatures and the CSV.
    for (const char c : name) {
      if (c == ',' || c == '|' || c == ';' || std::isspace(
              static_cast<unsigned char>(c))) {
        return std::nullopt;
      }
    }
    try {
      std::size_t pos = 0;
      const long long v = std::stoll(value, &pos);
      if (pos != value.size() || value.empty()) return std::nullopt;
      config.axes[name] = static_cast<std::int64_t>(v);
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  return config;
}

EngineConfig normalized(const EngineConfig& config,
                        const std::vector<AxisSpec>& axes) {
  EngineConfig out = config;
  for (const AxisSpec& axis : axes) {
    const auto it = out.axes.find(axis.name);
    if (it != out.axes.end() && it->second == axis.default_value) {
      out.axes.erase(it);
    }
  }
  return out;
}

namespace {

/// The neutral value of each kernel axis — the value a default-constructed
/// KernelConfig carries, omitted from the canonical encoding.
constexpr std::int64_t kKernelAxisDefaults[] = {1, 1, 1, 1, 0, 1};

std::size_t kernel_axis_value(const dedisp::KernelConfig& config,
                              std::size_t axis) {
  switch (axis) {
    case 0: return config.wi_time;
    case 1: return config.wi_dm;
    case 2: return config.elem_time;
    case 3: return config.elem_dm;
    case 4: return config.channel_block;
    default: return config.unroll;
  }
}

}  // namespace

EngineConfig encode_kernel_config(const dedisp::KernelConfig& config) {
  EngineConfig out;
  for (std::size_t a = 0; a < std::size(kKernelAxisNames); ++a) {
    const auto value =
        static_cast<std::int64_t>(kernel_axis_value(config, a));
    if (value != kKernelAxisDefaults[a]) {
      out.axes[kKernelAxisNames[a]] = value;
    }
  }
  return out;
}

dedisp::KernelConfig decode_kernel_config(const EngineConfig& config) {
  dedisp::KernelConfig kc;
  const auto axis = [&](std::size_t a) {
    return static_cast<std::size_t>(std::max<std::int64_t>(
        config.get(kKernelAxisNames[a], kKernelAxisDefaults[a]), 0));
  };
  kc.wi_time = axis(0);
  kc.wi_dm = axis(1);
  kc.elem_time = axis(2);
  kc.elem_dm = axis(3);
  kc.channel_block = axis(4);
  kc.unroll = axis(5);
  return kc;
}

std::vector<AxisSpec> kernel_config_axes(
    const std::vector<dedisp::KernelConfig>& candidates) {
  // Descent order of the tiled engines: the cheap cache-behaviour knobs
  // first (they move performance the most, so the incumbent drops early
  // and later axis sweeps abort more repetitions).
  constexpr std::size_t kOrder[] = {4, 5, 3, 2, 0, 1};
  std::vector<AxisSpec> axes;
  axes.reserve(std::size(kOrder));
  for (const std::size_t a : kOrder) {
    AxisSpec spec;
    spec.name = kKernelAxisNames[a];
    spec.default_value = kKernelAxisDefaults[a];
    std::set<std::int64_t> values;
    for (const dedisp::KernelConfig& cfg : candidates) {
      values.insert(static_cast<std::int64_t>(kernel_axis_value(cfg, a)));
    }
    spec.values.assign(values.begin(), values.end());
    axes.push_back(std::move(spec));
  }
  return axes;
}

}  // namespace ddmc::engine
