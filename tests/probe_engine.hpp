#pragma once
/// A streaming engine that lets a test watch and steer a session's compute
/// stage: it runs the reference engine under its own registry id, counts
/// the executions that have started and finished, and can make one of
/// them slow.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine/registry.hpp"

namespace ddmc::testing {

class ProbeEngine final : public engine::DedispEngine {
 public:
  static constexpr const char* kId = "test_probe";

  /// Register the engine (once per process) and reset the probe: no
  /// execution counted, none slowed.
  static void install() {
    static std::once_flag registered;
    std::call_once(registered, [] {
      engine::EngineRegistry::instance().add(
          kId, [](const engine::EngineOptions& options) {
            return std::make_shared<const ProbeEngine>(options);
          });
    });
    std::lock_guard<std::mutex> lock(state().mutex);
    state().started = 0;
    state().finished = 0;
    state().slow_execution = 0;
  }

  /// Make execution \p n (1-based, in start order) sleep \p delay first.
  static void slow_down(std::size_t n, std::chrono::milliseconds delay) {
    std::lock_guard<std::mutex> lock(state().mutex);
    state().slow_execution = n;
    state().delay = delay;
  }

  /// Wait until \p n executions have started; false when \p timeout
  /// passes first.
  static bool wait_started(std::size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(state().mutex);
    return state().cv.wait_for(lock, timeout,
                               [&] { return state().started >= n; });
  }

  /// Executions that have returned so far.
  static std::size_t finished() {
    std::lock_guard<std::mutex> lock(state().mutex);
    return state().finished;
  }

  explicit ProbeEngine(const engine::EngineOptions& options)
      : inner_(engine::make_engine("reference", options)) {}

  const std::string& id() const override { return id_; }
  const engine::EngineCapabilities& capabilities() const override {
    return inner_->capabilities();
  }
  const engine::EngineOptions& options() const override {
    return inner_->options();
  }
  std::string variant() const override { return inner_->variant(); }

 protected:
  engine::EngineRun execute_impl(const dedisp::Plan& plan,
                                 const engine::EngineConfig& config,
                                 ConstView2D<float> in,
                                 View2D<float> out) const override {
    std::chrono::milliseconds delay{0};
    {
      std::lock_guard<std::mutex> lock(state().mutex);
      ++state().started;
      if (state().started == state().slow_execution) delay = state().delay;
    }
    state().cv.notify_all();
    std::this_thread::sleep_for(delay);
    const engine::EngineRun run = inner_->execute(plan, config, in, out);
    std::lock_guard<std::mutex> lock(state().mutex);
    ++state().finished;
    return run;
  }

 private:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t started = 0;
    std::size_t finished = 0;
    std::size_t slow_execution = 0;
    std::chrono::milliseconds delay{0};
  };
  static State& state() {
    static State s;
    return s;
  }

  std::string id_ = kId;
  std::shared_ptr<const engine::DedispEngine> inner_;
};

}  // namespace ddmc::testing
