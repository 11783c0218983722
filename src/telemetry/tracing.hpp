#pragma once
/// \file tracing.hpp
/// \brief Low-overhead pipeline tracing: RAII spans into a lock-free
/// bounded event buffer, exportable as Chrome trace_event JSON.
///
/// The streaming pipeline's behaviour under pressure — a chunk queueing
/// behind the previous one, a shard retry eating the real-time margin, a
/// tuner search blocking the first chunk — is a *timeline* problem, and
/// the right view of a timeline is a flamegraph. Every hot seam opens a
/// `TraceSpan`; `export_chrome_trace()` (telemetry/export.hpp) turns the
/// recorded events into a file that opens directly in chrome://tracing or
/// Perfetto with engine/shard/chunk spans nested by thread and time.
///
/// Cost discipline is the same as DDMC_FAILPOINT's disarmed path: tracing
/// is off by default and a disabled span is ONE relaxed atomic load (the
/// constructor reads `enabled()` and stores false; the destructor reads a
/// bool member). Enabled spans write into a preallocated slot vector with
/// an atomic cursor — no locks, no allocation, no syscalls on the record
/// path; when the buffer fills, further events are counted as dropped
/// rather than blocking the pipeline they are observing.
///
/// Span taxonomy (grep for TraceSpan to verify):
///
///   engine.execute   one kernel execution       (args: engine, gflops)
///   fdmt.forward_fft fdmt: per-channel forward FFTs   (inside engine.execute)
///   fdmt.rotate      fdmt: both phase-rotation stages (inside engine.execute)
///   fdmt.inverse_fft fdmt: per-trial inverse FFTs     (inside engine.execute)
///   shard.plan       shard planning             (args: shards)
///   shard.task       one shard attempt          (args: shard, attempt)
///   shard.reacquire.task  reacquired sub-shard work  (args: shard)
///   sky.detect       one detect_best_dm scan    (args: rows, cols, parts:
///                    the caller plus the global_pool() tasks sharing rows)
///   stream.chunk     chunk compute              (args: chunk)
///   stream.sink      sink delivery              (args: chunk)
///   stream.job.wait  compute thread idle: the next window is not posted
///                    yet (recorded only when it blocked)
///   stream.window.wait  pushing thread blocked: the window it must write
///                    next is still read by the engine (args: chunk)
///   subband.stage1   subband: intra-subband stage, per block of coarse trials
///   subband.stage2   subband: inter-subband stage, per block of coarse trials
///   tuner.tune       one race entrant's tuning (args: engine, source,
///                    threads, pruned, bound_ms, evaluated, calls: engine
///                    calls its measurements made, warm-ups included)
///   tuner.seed       one timed call ordering a race (args: engine, ms)
///   u8.quantize      cpu_tiled_u8: float → byte plane (inside engine.execute)
///   ring.push.wait   producer blocked on a full ring
///   ring.pop.wait    consumer blocked on an empty ring
///
/// Instant events: stream.gap (skipped chunk), stream.degrade (watchdog
/// rung), stream.deadline (deadline overrun), shard.retry.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ddmc::telemetry {

/// One recorded event. Fixed-size char buffers keep the record path
/// allocation-free; names longer than the buffers are truncated, which for
/// the taxonomy above never happens.
struct TraceEvent {
  enum class Kind : std::uint8_t { kComplete, kInstant };

  static constexpr std::size_t kNameSize = 32;
  static constexpr std::size_t kArgsSize = 128;

  char name[kNameSize] = {};
  /// Pre-serialized JSON object body for the Chrome "args" field, without
  /// the braces: `"chunk": 3, "engine": "cpu_tiled"`. Empty = no args.
  char args[kArgsSize] = {};
  std::uint64_t start_ns = 0;  ///< steady-clock nanoseconds
  std::uint64_t dur_ns = 0;    ///< 0 for kInstant
  std::uint32_t tid = 0;       ///< sequential thread id (first-seen order)
  Kind kind = Kind::kComplete;
};

/// Process-wide bounded trace buffer. Disabled by default; the disabled
/// record path is one relaxed atomic load.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;  ///< 64 Ki events

  static Tracer& instance();

  /// Turn recording on/off. Enabling does not clear prior events (a test
  /// can stitch phases); call clear() for a fresh timeline.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Record a completed span [start_ns, start_ns + dur_ns). Lock-free;
  /// drops (and counts) when the buffer is full.
  void record_complete(const char* name, std::uint64_t start_ns,
                       std::uint64_t dur_ns, const char* args = nullptr);

  /// Record a zero-duration marker at \p at_ns.
  void record_instant(const char* name, std::uint64_t at_ns,
                      const char* args = nullptr);

  /// Events recorded so far, in slot order (≈ chronological per thread).
  /// Safe to call while recording continues: only slots whose ready flag
  /// was published (release/acquire) are returned.
  std::vector<TraceEvent> events() const;

  std::size_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return slots_.size(); }

  /// Forget every event and the drop count. Not safe concurrently with
  /// recording; callers stop the pipeline (or disable tracing) first.
  void clear();

  /// Steady-clock nanoseconds; the common timebase of every event.
  static std::uint64_t now_ns();

  /// Sequential id of the calling thread (1, 2, … in first-seen order) —
  /// small stable lane numbers for the Chrome trace instead of opaque
  /// std::thread::id hashes.
  static std::uint32_t thread_id();

 private:
  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  struct Slot {
    TraceEvent event;
    std::atomic<bool> ready{false};
  };

  void record(TraceEvent::Kind kind, const char* name, std::uint64_t start_ns,
              std::uint64_t dur_ns, const char* args);

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> cursor_{0};
  std::atomic<std::size_t> dropped_{0};
  std::vector<Slot> slots_;
};

/// RAII span: stamps the start time at construction, records on
/// destruction. When tracing is disabled the constructor is one relaxed
/// atomic load and the destructor one bool test.
class TraceSpan {
 public:
  /// \p name must outlive the span (string literals in practice).
  explicit TraceSpan(const char* name)
      : active_(Tracer::instance().enabled()), name_(name) {
    if (active_) start_ns_ = Tracer::now_ns();
  }

  ~TraceSpan() {
    if (active_) {
      Tracer::instance().record_complete(
          name_, start_ns_, Tracer::now_ns() - start_ns_,
          args_len_ > 0 ? args_ : nullptr);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a key/value to the span's Chrome "args" object. No-ops (and
  /// costs one bool test) while tracing is disabled; silently truncates
  /// beyond TraceEvent::kArgsSize.
  TraceSpan& arg(const char* key, const char* value);
  TraceSpan& arg(const char* key, const std::string& value) {
    return arg(key, value.c_str());
  }
  TraceSpan& arg(const char* key, double value);
  TraceSpan& arg(const char* key, std::size_t value);

  bool active() const { return active_; }

 private:
  TraceSpan& append_arg_raw(const char* key, const char* serialized_value);

  bool active_;
  const char* name_;
  std::uint64_t start_ns_ = 0;
  std::size_t args_len_ = 0;
  char args_[TraceEvent::kArgsSize] = {};
};

}  // namespace ddmc::telemetry
