/// \file engine.cpp
/// \brief The non-virtual DedispEngine::execute wrapper: the one
/// instrumentation seam every execution path passes through.

#include "engine/engine.hpp"

#include <type_traits>

#include "common/expect.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"

namespace ddmc::engine {

namespace {

/// FLOP count of one run on the plan's analytic model: one
/// multiply-accumulate = 2 FLOP per channel per trial per sample (the
/// paper's GFLOP/s denominator).
double run_flop(const dedisp::Plan& plan) {
  return 2.0 * static_cast<double>(plan.channels()) *
         static_cast<double>(plan.dms()) *
         static_cast<double>(plan.out_samples());
}

/// Bytes moved to/from global memory: the analytic input-read +
/// output-write floor — input at the engine's declared element size,
/// output always float32.
double run_bytes(const dedisp::Plan& plan, std::size_t input_element_bytes) {
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
  flop += run.flop > 0.0 ? run.flop : run_flop(plan);
  bytes += run.bytes > 0.0 ? run.bytes : run_bytes(plan, sizeof(float));
}

void SessionTraffic::merge(const SessionTraffic& other) {
  runs += other.runs;
  engine_seconds += other.engine_seconds;
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
                                const EngineConfig& config,
                                ConstView2D<float> in,
                                View2D<float> out) const {
  return instrumented(plan, config, in, out);
}

EngineRun DedispEngine::execute(const dedisp::Plan& plan,
                                const EngineConfig& config,
                                ConstView2D<std::uint8_t> in,
                                View2D<float> out) const {
  return instrumented(plan, config, in, out);
}

EngineRun DedispEngine::execute_codes_impl(const dedisp::Plan&,
                                           const EngineConfig&,
                                           ConstView2D<std::uint8_t>,
                                           View2D<float>) const {
  throw invalid_argument("engine '" + id() +
                         "' reads float samples: it declares no "
                         "input_quantizer and cannot execute a code plane");
}

template <typename T>
EngineRun DedispEngine::instrumented(const dedisp::Plan& plan,
                                     const EngineConfig& config,
                                     ConstView2D<T> in,
                                     View2D<float> out) const {
  telemetry::TraceSpan span("engine.execute");
  Stopwatch watch;
  EngineRun run;
  if constexpr (std::is_same_v<T, float>) {
    run = execute_impl(plan, config, in, out);
  } else {
    run = execute_codes_impl(plan, config, in, out);
  }
  run.seconds = watch.seconds();
  // An engine that stamped its own algorithmic FLOP count (the fdmt
  // transform does — its operation count is not the plan's canonical
  // brute-force credit) keeps it; otherwise the wrapper fills in the
  // plan's analytic model.
  if (run.flop <= 0.0) run.flop = run_flop(plan);
  run.bytes = run_bytes(plan, capabilities().input_element_bytes);

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
