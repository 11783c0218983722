/// \file engine.cpp
/// \brief The non-virtual DedispEngine::execute wrapper: the one
/// instrumentation seam every execution path passes through.

#include "engine/engine.hpp"

#include "common/expect.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"

namespace ddmc::engine {

namespace {

/// FLOP count of one run: prefer the simulator's exact counter, fall back
/// to the plan's analytic count (one multiply-accumulate = 2 FLOP per
/// channel per trial per sample — the paper's GFLOP/s denominator).
double run_flop(const dedisp::Plan& plan,
                const std::optional<ocl::MemCounters>& counters) {
  if (counters.has_value()) return static_cast<double>(counters->flops);
  return 2.0 * static_cast<double>(plan.channels()) *
         static_cast<double>(plan.dms()) *
         static_cast<double>(plan.out_samples());
}

/// Bytes moved to/from global memory: exact for counter-reporting engines
/// (the simulator counts float elements), the analytic input-read +
/// output-write floor otherwise — input at the engine's declared element
/// size, output always float32.
double run_bytes(const dedisp::Plan& plan,
                 const std::optional<ocl::MemCounters>& counters,
                 std::size_t input_element_bytes) {
  if (counters.has_value()) {
    return 4.0 * static_cast<double>(counters->global_loads +
                                     counters->global_stores);
  }
  return static_cast<double>(input_element_bytes) *
             static_cast<double>(plan.channels()) *
             static_cast<double>(plan.in_samples()) +
         4.0 * static_cast<double>(plan.dms()) *
             static_cast<double>(plan.out_samples());
}

}  // namespace

std::size_t DedispEngine::threads() const {
  if (!capabilities().threaded) return 1;
  const std::size_t threads = options().cpu.threads;
  return threads != 0 ? threads : hardware_workers();
}

void SessionTraffic::add(const EngineRun& run, const dedisp::Plan& plan) {
  ++runs;
  engine_seconds += run.seconds;
  // Prefer the per-run stamped numbers (element-size aware); fall back to
  // the float-element analytic model for hand-built EngineRuns.
  flop += run.flop > 0.0 ? run.flop : run_flop(plan, run.counters);
  bytes += run.bytes > 0.0 ? run.bytes
                           : run_bytes(plan, run.counters, sizeof(float));
  if (run.counters.has_value()) {
    ++counter_runs;
    counters += *run.counters;
  }
}

void SessionTraffic::merge(const SessionTraffic& other) {
  runs += other.runs;
  counter_runs += other.counter_runs;
  engine_seconds += other.engine_seconds;
  counters += other.counters;
  flop += other.flop;
  bytes += other.bytes;
}

void DedispEngine::validate_config(const dedisp::Plan& plan,
                                   const EngineConfig& config) const {
  const std::vector<AxisSpec> axes = config_axes(plan);
  for (const auto& [name, value] : config.axes) {
    (void)value;
    bool known = false;
    for (const AxisSpec& axis : axes) {
      if (axis.name == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw config_error("engine '" + id() + "' declares no config axis '" +
                         name + "'");
    }
  }
}

EngineConfig DedispEngine::adapt_config(const dedisp::Plan& plan,
                                        const EngineConfig& config) const {
  try {
    validate_config(plan, config);
    return config;
  } catch (const config_error&) {
    return EngineConfig{};  // the engine's defaults run on every plan
  }
}

std::string DedispEngine::config_key(const dedisp::Plan& plan,
                                     const EngineConfig& config) const {
  return normalized(config, config_axes(plan)).encode();
}

EngineRun DedispEngine::execute(const dedisp::Plan& plan,
                                const dedisp::KernelConfig& config,
                                ConstView2D<float> in,
                                View2D<float> out) const {
  // Legacy entry point: a KernelConfig is the tiled engines' shape. An
  // engine that does not declare those axes runs its defaults instead of
  // rejecting the foreign parameterization (restrict_to_axes keeps all
  // six axes — and strict validation — on the engines that declare them).
  return execute(plan,
                 restrict_to_axes(encode_kernel_config(config),
                                  config_axes(plan)),
                 in, out);
}

EngineRun DedispEngine::execute(const dedisp::Plan& plan,
                                const EngineConfig& config,
                                ConstView2D<float> in,
                                View2D<float> out) const {
  telemetry::TraceSpan span("engine.execute");
  Stopwatch watch;
  EngineRun run = execute_impl(plan, config, in, out);
  run.seconds = watch.seconds();
  // An engine that stamped its own algorithmic FLOP count (the fdmt
  // transform does — its operation count is not the plan's canonical
  // brute-force credit) keeps it; otherwise the wrapper fills in the
  // simulator counters or the plan's analytic model.
  if (run.flop <= 0.0) run.flop = run_flop(plan, run.counters);
  run.bytes =
      run_bytes(plan, run.counters, capabilities().input_element_bytes);

  auto& registry = telemetry::MetricsRegistry::instance();
  const telemetry::Labels labels = {{"engine", id()}};
  registry.counter("ddmc.engine.executions_total", labels)->increment();
  registry.counter("ddmc.engine.seconds_total", labels)->add(run.seconds);
  const double flop = run.flop;
  const double bytes = run.bytes;
  registry.counter("ddmc.engine.flop_total", labels)->add(flop);
  registry.counter("ddmc.engine.bytes_total", labels)->add(bytes);
  const double gflops =
      run.seconds > 0.0 ? flop / run.seconds / 1e9 : 0.0;
  registry.gauge("ddmc.engine.gflops", labels)->set(gflops);

  span.arg("engine", id().c_str())
      .arg("dms", plan.dms())
      .arg("gflops", gflops);
  return run;
}

}  // namespace ddmc::engine
