#pragma once
/// Shared machinery for the benches: the JSON emitters the wall-clock
/// benches persist their results through (--json <path>) and the host
/// description each recorded file carries. The figure benches' model
/// sweep lives in paper_sweep.hpp.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/expect.hpp"
#include "common/json.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "common/table.hpp"
#include "dedisp/plan.hpp"
#include "sky/observation.hpp"

namespace ddmc::bench {

// ------------------------------------------------------------------- json --
// One JSON emission path for the whole repository: the builders live in
// common/json.hpp (the telemetry exporters share them); these aliases keep
// the benches' historical bench::JsonObject spelling.

using JsonObject = json::Object;
using JsonArray = json::Array;

inline std::string json_escape(const std::string& s) {
  return json::escape(s);
}

inline std::string json_number(double v) { return json::number(v); }

/// Write \p root to \p path (pretty enough: one object, trailing newline).
/// Throws ddmc::invalid_argument when the file cannot be opened.
inline void write_json_file(const std::string& path, const JsonObject& root) {
  json::write_file(path, root);
}

/// The machine a recorded file was measured on: the CPU model (from
/// /proc/cpuinfo, empty where that is unreadable), its hardware threads
/// and the compiled SIMD backend.
inline JsonObject host_description() {
  std::string model;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; model.empty() && std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != line.npos) {
      model = line.substr(line.find(':') + 1);
      model.erase(0, model.find_first_not_of(' '));
    }
  }
  return JsonObject()
      .set("cpu_model", model)
      .set("hardware_threads", hardware_workers())
      .set("simd_backend", simd::backend_name());
}

}  // namespace ddmc::bench
