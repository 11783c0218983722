#pragma once
/// \file registry.hpp
/// \brief String-keyed engine factory: the only place that knows every
/// execution path.
///
/// Consumers (pipeline, streaming, sharding, tuner, CLIs) select engines by
/// registry id and gate behaviour on EngineCapabilities; the registry is
/// where ids resolve to implementations. Built-ins:
///
///   cpu_tiled     tiled, SIMD-vectorized, cache-blocked host kernel
///   cpu_tiled_u8  the same tiling on a quantized 1-byte sample plane
///   cpu_baseline  the §V-D OpenMP/AVX-style comparator structure
///   reference     sequential Algorithm 1 (the bitwise ground truth)
///   subband       two-stage (subband) approximation
///   fdmt          Fourier-domain dedispersion (shifts as phase rotations)
///
/// Every built-in is an execution path. The paper's functional device
/// simulator (ocl/sim_dedisp.hpp) is driven directly by its tests and the
/// figure benches, not registered here.
///
/// Downstream code adds engines with `EngineRegistry::instance().add(...)`;
/// a duplicate id is rejected (ddmc::invalid_argument) and an unknown id in
/// create() names the registered alternatives.

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace ddmc::engine {

class EngineRegistry {
 public:
  using Factory =
      std::function<std::shared_ptr<const DedispEngine>(const EngineOptions&)>;

  /// The process-wide registry, with the built-ins pre-registered.
  static EngineRegistry& instance();

  /// Register \p factory under \p id. Throws ddmc::invalid_argument when
  /// the id is already taken — silent replacement would let two libraries
  /// fight over a name.
  void add(const std::string& id, Factory factory);

  bool contains(const std::string& id) const;

  /// Registered ids, sorted (stable across runs — CI iterates this).
  std::vector<std::string> ids() const;

  /// Create engine \p id with \p options. Unknown ids throw
  /// ddmc::invalid_argument listing every registered alternative.
  std::shared_ptr<const DedispEngine> create(
      const std::string& id, const EngineOptions& options = {}) const;

 private:
  EngineRegistry();  // registers the built-ins

  mutable std::mutex mutex_;
  std::map<std::string, Factory> factories_;
};

/// Convenience for the common call shape.
inline std::shared_ptr<const DedispEngine> make_engine(
    const std::string& id, const EngineOptions& options = {}) {
  return EngineRegistry::instance().create(id, options);
}

namespace detail {
/// Defined in builtin_engines.cpp; called once by instance().
void register_builtin_engines(EngineRegistry& registry);
}  // namespace detail

}  // namespace ddmc::engine
