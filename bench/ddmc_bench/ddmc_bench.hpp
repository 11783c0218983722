#pragma once
/// \file ddmc_bench.hpp
/// \brief Declarations shared by the bench_ddmc translation units.
///
/// bench_ddmc measures the survey path — ring → chunker → engine →
/// detection → candidate — from outside the library, through its public
/// calls only. Every number it reports is a Metric with a unit and the
/// number of observations behind it; README.md defines each one.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/array2d.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/plan.hpp"
#include "engine/engine.hpp"
#include "sky/detection.hpp"
#include "sky/observation.hpp"
#include "telemetry/tracing.hpp"

namespace ddmc::ddmc_bench {

/// Kernel threads of every engine, the tuner included. One runs the kernel
/// on the calling thread: a larger pool is built and joined on every call,
/// and on a shared four-vCPU host those wake-ups, not the kernel, set the
/// spread between runs (README.md, "Load shape").
inline constexpr std::size_t kKernelThreads = 1;

/// Smallest accepted per-chunk S/N of a recalled pulse.
inline constexpr double kRecallSnr = 8.0;

/// A pulse is recalled when the candidate lies within ±1 trial of the true
/// one at S/N ≥ kRecallSnr.
inline bool recalled(const sky::DetectionResult& d, std::size_t true_trial) {
  const std::size_t off = d.best_trial > true_trial ? d.best_trial - true_trial
                                                    : true_trial - d.best_trial;
  return off <= 1 && d.best_snr >= kRecallSnr;
}

dedisp::CpuKernelOptions kernel_options();
engine::EngineOptions engine_options();  ///< kernel_options(), defaults else

/// One step of a spin-wait. The benchmark's feeder threads poll instead of
/// sleeping (streaming.cpp says why); the pause hands the core's shared
/// resources to whatever runs on its other hardware thread.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
};

/// Span name → how much time the layer spent in itself.
struct LayerTime {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< duration minus child spans on the same thread
};

struct WorkloadResult {
  std::string name;
  std::size_t attempted = 0;           ///< chunks or calls
  std::vector<std::string> failures;   ///< one line per failed operation
  std::size_t recall_hits = 0;
  std::size_t recall_total = 0;
  /// False when the pacer ran too late for the open-loop latencies to hold.
  bool valid = true;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;       ///< filled by traced runs
  std::vector<LayerTime> layers;       ///< traced runs: self-time table
  /// Engine rates over its busy time, for the roofline columns.
  double engine_gflops = 0.0;
  double engine_gbps = 0.0;
  /// What ran: engine, config, plan — printed and kept in the run JSON.
  std::vector<std::pair<std::string, std::string>> notes;

  void add(std::vector<Metric>& to, std::string name, double value,
           std::string unit, std::size_t samples) {
    to.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Every operation succeeded and every pulse was found.
  bool correct() const { return failures.empty() && recall() == 1.0; }
  double recall() const {
    return recall_total == 0 ? 0.0
                             : static_cast<double>(recall_hits) /
                                   static_cast<double>(recall_total);
  }
};

/// A streaming workload: plan and pinned engine config.
struct StreamSpec {
  std::string name;
  sky::Observation obs;
  std::size_t dms = 0;
  std::size_t chunk_samples = 0;
  std::string engine;
  std::string config;   ///< pinned EngineConfig encoding
  double amplitude = 1.0;
};

/// The batch cold-start workload.
struct BatchSpec {
  std::string name;
  sky::Observation obs;
  std::size_t dms = 0;
  std::size_t out_samples = 0;
  std::vector<std::string> engines;  ///< raced by the cold tuner
  double amplitude = 1.0;
  std::size_t races = 3;
};

std::vector<StreamSpec> stream_workloads();
BatchSpec batch_workload();
std::vector<std::string> workload_names();

/// Where the run may write scratch files and traces.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;      ///< measured seconds per workload
  std::string trace_prefix;   ///< empty: untraced run
  std::string scratch_dir;    ///< tuning-cache files
  bool traced() const { return !trace_prefix.empty(); }
};

/// Periodic synthetic sky: noise plus a dispersed pulsar whose period is
/// the chunk length. Columns [period, period + tail) repeat columns
/// [0, tail), so any window starting inside one period is contiguous.
struct SkyInput {
  Array2D<float> samples;
  std::size_t period_cols = 0;
  std::size_t true_trial = 0;
  /// Stream columns [offset, offset + cols) of the endless replay; offset
  /// is taken modulo the period, cols must not exceed period + tail.
  ConstView2D<float> window(std::size_t offset, std::size_t cols) const;
};

/// \p seed picks the noise, the true-DM trial (middle half of the grid)
/// and the pulse phase; the library only ever sees the samples.
SkyInput make_sky(const dedisp::Plan& plan, std::size_t pulse_period,
                  double amplitude, std::uint64_t seed, std::size_t tail);

/// Output check against dedisp::dedisperse_reference: bitwise for exact
/// engines, within the quantization bound for 1-byte-input engines, and
/// left to recall for the other approximations. Returns "" on success.
std::string verify_output(const engine::DedispEngine& engine,
                          const dedisp::Plan& plan, ConstView2D<float> input,
                          ConstView2D<float> output);

WorkloadResult run_stream_workload(const StreamSpec& spec,
                                   const RunOptions& options);
/// What a cold tune_guided picks for \p spec's chunk plan and engine on
/// the running host: "config (seconds per chunk, configs evaluated)".
std::string cold_tune(const StreamSpec& spec);
WorkloadResult run_batch_workload(const BatchSpec& spec,
                                  const RunOptions& options);

/// Streaming-copy bandwidth (GB/s, read + write) and FMA peak (GFLOP/s),
/// both on kKernelThreads threads.
struct HostCeilings {
  double copy_gbps = 0.0;
  double fma_gflops = 0.0;
  std::size_t copy_array_bytes = 0;
  std::size_t llc_bytes = 0;
  std::size_t samples = 0;
};
HostCeilings probe_host();

/// Self time per span name; children are spans on the same thread that
/// lie inside the parent's interval.
std::vector<LayerTime> layer_times(
    const std::vector<telemetry::TraceEvent>& events);

/// Traced runs: the self-time table of \p busy_events, trace.coverage_pct
/// (self time of \p busy_layers over \p busy_s, the busy time measured
/// from outside) and tuner.race_s.<engine> from the tuner.tune spans of
/// \p race_events.
void add_trace_layers(WorkloadResult& result,
                      const std::vector<telemetry::TraceEvent>& busy_events,
                      const std::vector<std::string>& busy_layers,
                      double busy_s,
                      const std::vector<telemetry::TraceEvent>& race_events,
                      const std::vector<std::string>& engines);

/// engine.* traffic per data second; keeps the engine's rates for
/// add_roofline.
void add_engine_layers(WorkloadResult& result,
                       const engine::SessionTraffic& traffic, double data_s);

/// The engine's share of each host ceiling, and the ceilings themselves.
void add_roofline(WorkloadResult& result, const HostCeilings& host);

/// Peak resident set (VmHWM) in MiB, and its reset.
double peak_rss_mb();
void reset_peak_rss();

/// Sample helpers.
double median(std::vector<double> values);
double percentile(std::vector<double> values, double p);

}  // namespace ddmc::ddmc_bench
