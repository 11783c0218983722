/// Per-layer metrics shared by every workload: self times from the trace,
/// engine traffic against the host ceilings, and the tuner's race spans.

#include <algorithm>
#include <cstring>
#include <map>

#include "ddmc_bench.hpp"

namespace ddmc::ddmc_bench {

std::vector<LayerTime> layer_times(
    const std::vector<telemetry::TraceEvent>& events) {
  std::map<std::uint32_t, std::vector<const telemetry::TraceEvent*>> by_thread;
  for (const auto& e : events) {
    if (e.kind == telemetry::TraceEvent::Kind::kComplete) {
      by_thread[e.tid].push_back(&e);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (auto& [tid, spans] : by_thread) {
    // Parents sort before the children they contain: by start, then by
    // longer duration.
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->dur_ns > b->dur_ns;
    });
    struct Open {
      const telemetry::TraceEvent* span;
      std::uint64_t children_ns;
    };
    std::vector<Open> stack;
    auto finish = [&](const Open& open) {
      LayerTime& l = layers[open.span->name];
      l.name = open.span->name;
      ++l.count;
      l.total_s += static_cast<double>(open.span->dur_ns) * 1e-9;
      l.self_s += static_cast<double>(open.span->dur_ns - std::min(
                                          open.children_ns, open.span->dur_ns)) *
                  1e-9;
    };
    for (const auto* span : spans) {
      while (!stack.empty() &&
             stack.back().span->start_ns + stack.back().span->dur_ns <=
                 span->start_ns) {
        finish(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().children_ns += span->dur_ns;
      stack.push_back({span, 0});
    }
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) finish(*it);
  }
  std::vector<LayerTime> out;
  for (auto& [name, l] : layers) out.push_back(l);
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

void add_trace_layers(WorkloadResult& result,
                      const std::vector<telemetry::TraceEvent>& busy_events,
                      const std::vector<std::string>& busy_layers,
                      double busy_s,
                      const std::vector<telemetry::TraceEvent>& race_events,
                      const std::vector<std::string>& engines) {
  result.layers = layer_times(busy_events);
  double covered = 0.0;
  for (const LayerTime& l : result.layers) {
    if (std::find(busy_layers.begin(), busy_layers.end(), l.name) !=
        busy_layers.end()) {
      covered += l.self_s;
    }
  }
  result.add(result.per_layer, "trace.coverage_pct",
             busy_s > 0.0 ? 100.0 * covered / busy_s : 0.0, "%", 1);

  // One tuner.tune span per engine per ladder resolution; its args carry
  // the engine id.
  for (const std::string& id : engines) {
    const std::string needle = "\"engine\": \"" + id + "\"";
    std::vector<double> seconds;
    for (const auto& e : race_events) {
      if (std::strcmp(e.name, "tuner.tune") == 0 &&
          std::strstr(e.args, needle.c_str()) != nullptr) {
        seconds.push_back(static_cast<double>(e.dur_ns) * 1e-9);
      }
    }
    result.add(result.per_layer, "tuner.race_s." + id, median(seconds), "s",
               seconds.size());
  }
}

void add_engine_layers(WorkloadResult& result,
                       const engine::SessionTraffic& traffic, double data_s) {
  auto& layer = result.per_layer;
  const double busy = traffic.engine_seconds;
  result.engine_gflops = busy > 0.0 ? traffic.flop / busy * 1e-9 : 0.0;
  result.engine_gbps = busy > 0.0 ? traffic.bytes / busy * 1e-9 : 0.0;
  result.add(layer, "engine.gflop_per_data_s", traffic.flop / data_s * 1e-9,
             "GFLOP/data_s", traffic.runs);
  result.add(layer, "engine.gbytes_per_data_s", traffic.bytes / data_s * 1e-9,
             "GB/data_s", traffic.runs);
  result.add(layer, "engine.flop_per_byte",
             traffic.bytes > 0.0 ? traffic.flop / traffic.bytes : 0.0,
             "FLOP/B", traffic.runs);
}

void add_roofline(WorkloadResult& result, const HostCeilings& host) {
  auto& layer = result.per_layer;
  result.add(layer, "engine.pct_fma_peak",
             100.0 * result.engine_gflops / host.fma_gflops, "%", 1);
  result.add(layer, "engine.pct_copy_bw",
             100.0 * result.engine_gbps / host.copy_gbps, "%", 1);
  result.add(layer, "host.copy_gbps", host.copy_gbps, "GB/s", host.samples);
  result.add(layer, "host.fma_gflops", host.fma_gflops, "GFLOP/s",
             host.samples);
}

}  // namespace ddmc::ddmc_bench
