#pragma once
/// \file results_io.hpp
/// \brief Persistence of tuning results (CSV), so pipelines can reuse the
/// tuples found by a sweep instead of re-tuning — the paper's "output of
/// this experiment is a set of tuples representing the optimal configuration
/// … for every combination of platform, observational setup and input
/// instance" (§IV-A).

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/engine_config.hpp"

namespace ddmc::tuner {

/// One persisted row: the optimal tuple plus its headline statistics. The
/// config is engine-native (named axis=value pairs), so a row can carry a
/// subband split or a quantization window as naturally as a kernel shape.
struct ResultRow {
  std::string device;
  std::string observation;
  std::size_t dms = 0;
  engine::EngineConfig config;
  double gflops = 0.0;
  double seconds = 0.0;
  double snr = 0.0;
  std::size_t evaluated = 0;
  /// A tuning-cache row of an engine pruned from a race: `seconds` is the
  /// race bound it lost to, not its own time (tuning_cache.hpp).
  bool pruned = false;

  friend bool operator==(const ResultRow&, const ResultRow&) = default;
};

/// Write rows as CSV, led by a schema line ("# ddmc-tuner-results v4
/// cols=9") and a fixed column header. The config cell is the
/// EngineConfig encoding ("name=value;…", "-" when empty) — ','-free by
/// construction, so it stays a single CSV cell. The last cell is the
/// pruned flag, 0 or 1.
void save_results(std::ostream& os, const std::vector<ResultRow>& rows);

/// Parse rows written by save_results. v3 files (8 columns, no pruned
/// flag) load as unpruned rows. v2 files (13 columns, one column per
/// kernel axis) still load: their six axis columns migrate into an
/// EngineConfig as the kernel axes, with neutral values omitted — a legacy
/// untuned row becomes the empty config, valid for every engine. Throws
/// ddmc::invalid_argument with a precise diagnosis on malformed input: a
/// missing schema line (a file written by a pre-v2 build), an unknown
/// schema version, a column count that does not match the declared schema,
/// or non-numeric fields.
std::vector<ResultRow> load_results(std::istream& is);

}  // namespace ddmc::tuner
