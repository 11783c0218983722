#include "stream/streaming_dedisperser.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"
#include "engine/registry.hpp"
#include "resilience/error.hpp"
#include "resilience/fault_injection.hpp"
#include "telemetry/tracing.hpp"

namespace ddmc::stream {

namespace {

/// The one place StreamingOptions maps onto engine-factory options: every
/// consumer site (session engine, sharded executor, degradation target)
/// goes through here, so a new EngineOptions field is wired once, not at
/// each site — missing one silently computes with defaults.
engine::EngineOptions engine_factory_options(const StreamingOptions& options) {
  engine::EngineOptions engine_options;
  engine_options.cpu = options.cpu;
  engine_options.subband = options.subband;
  return engine_options;
}

/// Resolve the session's engine and gate on its streaming capability; the
/// chunker widens its carried overlap by the engine's input_padding.
std::shared_ptr<const engine::DedispEngine> streaming_engine(
    const StreamingOptions& options) {
  std::shared_ptr<const engine::DedispEngine> engine =
      engine::make_engine(options.engine, engine_factory_options(options));
  DDMC_REQUIRE(engine->capabilities().supports_streaming,
               "engine '" + options.engine +
                   "' cannot run a streaming session: its capability "
                   "supports_streaming is false");
  return engine;
}

/// Whether the session's watchdog can switch it to another engine.
bool can_degrade(const StreamingOptions& options) {
  return options.supervision.enabled && options.supervision.degrade_after > 0 &&
         !resilience::select_degrade_engine(options.engine,
                                            options.supervision)
              .empty();
}

/// Carried-overlap width of a supervised session: when the watchdog can
/// degrade, the chunker must already carry enough real samples for the
/// *fallback* engine too — its input_padding may exceed the session
/// engine's (subband reads past in_samples), and a mid-session switch
/// cannot widen windows retroactively.
std::size_t session_input_padding(const StreamingOptions& options,
                                  const engine::DedispEngine& engine) {
  const std::size_t padding = engine.capabilities().input_padding;
  if (!can_degrade(options)) return padding;
  const std::shared_ptr<const engine::DedispEngine> fallback =
      engine::make_engine(
          resilience::select_degrade_engine(options.engine,
                                            options.supervision),
          engine_factory_options(options));
  return std::max(padding, fallback->capabilities().input_padding);
}

/// The code map the session's chunker quantizes with: the engine's
/// input_quantizer, unless full chunks go through the sharded executor,
/// which takes float windows.
std::optional<dedisp::QuantizationParams> session_quantizer(
    const StreamingOptions& options, const engine::DedispEngine& engine,
    const engine::EngineConfig& config) {
  if (options.shard_workers >= 2) return std::nullopt;
  return engine.input_quantizer(config);
}

/// The session's chunker over every beam's rows: code windows for a
/// code-reading engine, float windows for any other, and both when a
/// code-reading session can degrade to a float engine.
OverlapChunker session_chunker(const dedisp::Plan& plan,
                               const StreamingOptions& options,
                               const engine::DedispEngine& engine,
                               const engine::EngineConfig& config) {
  const std::optional<dedisp::QuantizationParams> codes =
      session_quantizer(options, engine, config);
  return OverlapChunker(plan, session_input_padding(options, engine), codes,
                        /*floats=*/!codes || can_degrade(options),
                        options.beams);
}

/// Beam \p beam's rows of a beam-stacked view of \p n rows per beam.
template <typename View>
View beam_rows(View view, std::size_t beam, std::size_t n) {
  return View(&view(beam * n, 0), n, view.cols(), view.pitch());
}

}  // namespace

StreamingDedisperser::StreamingDedisperser(dedisp::Plan chunk_plan,
                                           engine::EngineConfig config,
                                           Sink sink,
                                           StreamingOptions options)
    : plan_(std::move(chunk_plan)),
      config_(std::move(config)),
      sink_(std::move(sink)),
      options_(options),
      engine_(streaming_engine(options_)),
      chunker_(session_chunker(plan_, options_, *engine_, config_)) {
  engine_->validate_config(plan_, config_);
  for (std::size_t b = 0; b < (options_.async ? 2 : 1); ++b) {
    out_full_[b] = out_storage_[b].matrix(beams() * plan_.dms(),
                                          plan_.out_samples());
  }
  if (options_.shard_workers >= 2) {
    pipeline::ShardedOptions sharded;
    sharded.workers = options_.shard_workers;
    sharded.engine = options_.engine;
    sharded.engine_options = engine_factory_options(options_);
    sharded.supervision = options_.shard_supervision;
    sharded_ = std::make_unique<pipeline::ShardedDedisperser>(
        plan_, config_, std::move(sharded));
  }
  health_.active_engine = options_.engine;
  auto& registry = telemetry::MetricsRegistry::instance();
  const telemetry::Labels session = {{"session", tracker_.session()}};
  retries_metric_ = registry.counter("ddmc.stream.retries_total", session);
  chunks_retried_metric_ =
      registry.counter("ddmc.stream.chunks_retried_total", session);
  chunks_skipped_metric_ =
      registry.counter("ddmc.stream.chunks_skipped_total", session);
  overruns_metric_ =
      registry.counter("ddmc.stream.deadline_overruns_total", session);
  degradations_metric_ =
      registry.counter("ddmc.stream.degradations_total", session);
  quant_clipped_metric_ =
      registry.counter("ddmc.stream.quant_clipped_total", session);
  if (can_degrade(options_)) {
    degrade_engine_id_ = resilience::select_degrade_engine(
        options_.engine, options_.supervision);
    degrade_engine_ = engine::make_engine(degrade_engine_id_,
                                          engine_factory_options(options_));
  }
  if (options_.async) {
    delivery_thread_ = std::thread([this] { delivery_loop(); });
    try {
      compute_thread_ = std::thread([this] { compute_loop(); });
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        delivery_stop_ = true;
      }
      cv_delivery_.notify_one();
      delivery_thread_.join();
      throw;
    }
  }
}

StreamingDedisperser::TunedPlan StreamingDedisperser::resolve_tuning(
    dedisp::Plan chunk_plan, tuner::TuningCache& cache,
    StreamingOptions options, tuner::GuidedTuningOptions tuning) {
  if (tuning.engines.empty()) tuning.engines = {options.engine};
  tuning.engine_options = engine_factory_options(options);
  tuning.host.vectorize = options.cpu.vectorize;
  tuning.host.threads = options.cpu.threads;
  tuner::GuidedTuningOutcome outcome =
      tuner::tune_guided(chunk_plan, cache, tuning);
  // Adopt the winner *before* the session is built: the delegated
  // constructor gates the streaming capability and sizes the chunker's
  // carried overlap from options.engine, so a winner with a larger
  // input_padding gets a widened window instead of zero padding.
  options.engine = outcome.engine_id;
  return TunedPlan{std::move(chunk_plan), std::move(options),
                   std::move(outcome)};
}

StreamingDedisperser::StreamingDedisperser(dedisp::Plan chunk_plan,
                                           tuner::TuningCache& cache,
                                           Sink sink,
                                           StreamingOptions options,
                                           tuner::GuidedTuningOptions tuning)
    : StreamingDedisperser(resolve_tuning(std::move(chunk_plan), cache,
                                          std::move(options),
                                          std::move(tuning)),
                           std::move(sink)) {}

StreamingDedisperser::StreamingDedisperser(TunedPlan tuned, Sink sink)
    : StreamingDedisperser(std::move(tuned.plan), tuned.outcome.config,
                           std::move(sink), std::move(tuned.options)) {
  tuning_outcome_ = std::move(tuned.outcome);
}

StreamingDedisperser::~StreamingDedisperser() {
  try {
    close();
  } catch (...) {
    // close() rethrows sink/kernel failures; a destructor cannot. Callers
    // that care about errors close() explicitly.
  }
}

void StreamingDedisperser::rethrow_pending_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (error_) std::rethrow_exception(error_);
}

void StreamingDedisperser::push(ConstView2D<float> samples) {
  DDMC_REQUIRE(samples.rows() == chunker_.rows(),
               "sample block rows != beams × plan channels");
  DDMC_REQUIRE(!closed_, "push into a closed streaming session");
  rethrow_pending_error();
  const std::size_t window_cols = chunker_.window_samples();
  std::size_t offset = 0;
  while (offset < samples.cols()) {
    // Zero-copy fast path of a sync session: when the caller's block
    // contains the whole current window — the dominant case when a
    // receiver hands over large buffers — dedisperse it straight from the
    // block. Any assembled window prefix is, by construction, a copy of
    // the last filled() samples fed, i.e. block columns [offset − filled,
    // offset), so the window starts filled() columns back in the block,
    // and skip_chunk() drops the duplicate prefix. An async session must
    // not keep the block past push(): feed() copies the window's missing
    // columns in one go.
    const std::size_t filled = chunker_.filled();
    if (!options_.async && filled <= offset &&
        samples.cols() - offset >= window_cols - filled) {
      const std::size_t start = offset - filled;
      Job job;
      job.index = chunker_.chunk_index();
      job.first_sample = chunker_.first_out_sample();
      job.out_samples = chunker_.chunk_out();
      job.input = ConstView2D<float>(&samples(0, start), chunker_.rows(),
                                     window_cols, samples.pitch());
      job.assembled_at = session_clock_.seconds();
      submit(job);
      chunker_.skip_chunk(job.input);
      publish_clipped();
      offset = start + chunker_.chunk_out();
      continue;
    }
    acquire_window();
    offset += chunker_.feed(samples, offset);
    publish_clipped();
    if (chunker_.ready()) dispatch();
  }
}

void StreamingDedisperser::consume(SampleRing& ring) {
  DDMC_REQUIRE(ring.channels() == chunker_.rows(),
               "ring channels != beams × plan channels");
  DDMC_REQUIRE(!closed_, "consume into a closed streaming session");
  ScratchBuffer<float> transfer_storage;
  View2D<float> transfer;
  if (!chunker_.has_floats()) {
    transfer = transfer_storage.matrix(
        chunker_.rows(), std::min(ring.capacity(), chunker_.chunk_out()));
  }
  for (;;) {
    try {
      if (transfer.data() != nullptr) {
        const std::size_t n = ring.pop(transfer);
        if (n == 0) break;  // closed and drained
        push(ConstView2D<float>(transfer.data(), chunker_.rows(), n,
                                transfer.pitch()));
        continue;
      }
      rethrow_pending_error();
      acquire_window();
      const std::size_t n = ring.pop(chunker_.free_columns());
      if (n == 0) break;  // closed and drained
      chunker_.commit(n);
      publish_clipped();
      if (chunker_.ready()) dispatch();
    } catch (...) {
      // A dead consumer must never leave producers blocked against the
      // ring's backpressure: poison it so their push() calls abort with
      // the session's failure instead of deadlocking.
      ring.fail("streaming session failed: " +
                resilience::describe(std::current_exception()));
      throw;
    }
  }
}

void StreamingDedisperser::publish_clipped() {
  const std::size_t clipped = chunker_.clipped();
  if (clipped == clipped_published_) return;
  quant_clipped_metric_->add(static_cast<double>(clipped - clipped_published_));
  clipped_published_ = clipped;
}

void StreamingDedisperser::submit(Job job) {
  if (!options_.async) {
    deliver(compute(job, out_full_[0]));
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (job_pending_) {  // only before the compute thread's first chunk
    telemetry::TraceSpan span("stream.window.wait");
    span.arg("chunk", job.index);
    cv_taken_.wait(lock, [&] { return !job_pending_; });
  }
  if (error_) std::rethrow_exception(error_);
  job_ = job;
  job_pending_ = true;
  cv_job_.notify_one();
}

void StreamingDedisperser::acquire_window() {
  if (owned_) return;
  std::unique_lock<std::mutex> lock(mutex_);
  // The slot holds the window posted last, the other buffer; so only the
  // window the compute thread is reading can be this one.
  if (reading_ == chunker_.window()) {
    telemetry::TraceSpan span("stream.window.wait");
    span.arg("chunk", chunker_.chunk_index());
    cv_taken_.wait(lock, [&] { return reading_ != chunker_.window(); });
  }
  owned_ = true;
}

StreamingDedisperser::Job StreamingDedisperser::window_job(bool partial) {
  Job job;
  job.index = chunker_.chunk_index();
  job.first_sample = chunker_.first_out_sample();
  job.out_samples = partial ? chunker_.pending_out() : chunker_.chunk_out();
  if (chunker_.has_floats()) {
    job.input = partial ? chunker_.partial_input() : chunker_.chunk_input();
  }
  if (chunker_.has_codes()) {
    job.codes = partial ? chunker_.partial_codes() : chunker_.chunk_codes();
  }
  job.window = chunker_.window();
  job.assembled_at = session_clock_.seconds();
  return job;
}

void StreamingDedisperser::dispatch() {
  submit(window_job(/*partial=*/false));
  chunker_.advance();
  owned_ = !options_.async;
}

void StreamingDedisperser::compute_loop() {
  // Full chunks alternate the two output buffers. Only the last record
  // posted can still be in delivery, and it used the other buffer.
  std::size_t next_out = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!job_pending_ && !stop_) {
        telemetry::TraceSpan span("stream.job.wait");
        cv_job_.wait(lock, [&] { return job_pending_ || stop_; });
      }
      if (!job_pending_) return;  // stop requested, slot drained
      job = job_;
      job_pending_ = false;
      reading_ = job.window;  // the window taken before is free again
    }
    cv_taken_.notify_all();
    std::optional<Delivery> delivery;
    std::exception_ptr failure;
    try {
      delivery = compute(job, out_full_[next_out]);
    } catch (...) {
      failure = std::current_exception();
    }
    next_out ^= 1;
    std::unique_lock<std::mutex> lock(mutex_);
    // At most one delivery in flight: the previous chunk's returns first,
    // which also orders a failure after every earlier chunk's delivery.
    cv_slot_.wait(lock, [&] { return !delivery_pending_; });
    if (error_) continue;  // a latched failure: deliver no later chunk
    if (failure) {
      error_ = failure;
      continue;
    }
    delivery_ = std::move(*delivery);
    delivery_pending_ = true;
    cv_delivery_.notify_one();
  }
}

void StreamingDedisperser::delivery_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_delivery_.wait(lock,
                        [&] { return delivery_pending_ || delivery_stop_; });
      if (!delivery_pending_) return;  // stop requested, slot drained
    }
    try {
      deliver(delivery_);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    delivery_ = Delivery{};  // frees a flush chunk's own output
    delivery_pending_ = false;
    cv_slot_.notify_one();
  }
}

StreamingDedisperser::Delivery StreamingDedisperser::compute(
    const Job& job, View2D<float> out_full) {
  const resilience::StreamPolicy& policy = options_.supervision;
  const bool full = job.out_samples == plan_.out_samples();
  const dedisp::Plan plan =
      full ? plan_ : plan_.with_chunk(job.out_samples);
  bool degraded = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    degraded = health_.degraded;
  }
  const engine::DedispEngine& engine = degraded ? *degrade_engine_ : *engine_;
  // The session engine reads the codes whenever the window has them; the
  // flush chunk's adapted config keeps the code map they were made with.
  const bool codes = !degraded && job.codes.data() != nullptr;
  // A flush chunk's length need not divide the tuned tile: adaptation
  // keeps every other axis (a pinned quant_window or split) and shrinks
  // the tile, down to 1×1, until it divides.
  const engine::EngineConfig config =
      full ? config_ : engine.adapt_config(plan, config_);

  Delivery delivery;
  delivery.job = job;
  // Full chunks reuse the session's output buffers (a streaming hot path
  // should not allocate megabytes per chunk); only the final partial
  // flush, whose shape differs, allocates its own.
  if (!full) {
    delivery.partial_output =
        Array2D<float>(beams() * plan.dms(), plan.out_samples());
  }
  const View2D<float> out = full ? out_full : delivery.partial_output.view();

  telemetry::TraceSpan chunk_span("stream.chunk");
  chunk_span.arg("chunk", job.index).arg("out_samples", job.out_samples);

  // Watchdog rung 1 — bounded retry of transient chunk failures. A fresh
  // attempt rewrites the whole output buffer, so a half-written failed
  // attempt never leaks into the emitted chunk. engine_seconds keeps
  // covering the failed attempts: the deadline judges the chunk's real
  // wall cost, which is what the ring feels.
  const Stopwatch engine_clock;
  const std::size_t channels = plan.channels();
  const std::size_t dms = plan.dms();
  for (;;) {
    try {
      DDMC_FAILPOINT_CTX("stream.chunk", job.index);
      delivery.runs.clear();
      for (std::size_t b = 0; b < beams(); ++b) {
        const View2D<float> beam_out = beam_rows(out, b, dms);
        if (full && sharded_ && !degraded) {
          sharded_->dedisperse(beam_rows(job.input, b, channels), beam_out);
        } else if (codes) {
          delivery.runs.push_back(engine.execute(
              plan, config, beam_rows(job.codes, b, channels), beam_out));
        } else {
          delivery.runs.push_back(engine.execute(
              plan, config, beam_rows(job.input, b, channels), beam_out));
        }
      }
      break;
    } catch (...) {
      const std::exception_ptr err = std::current_exception();
      const bool transient = resilience::classify_supervised(err) ==
                             resilience::ErrorClass::kTransient;
      if (policy.enabled && transient &&
          delivery.retries < policy.max_chunk_retries) {
        ++delivery.retries;
        continue;
      }
      // Rung 2 — skip: only transient failures may be dropped; a config
      // or data error would fail every later chunk the same way, so it
      // latches the session error exactly as an unsupervised run would.
      if (policy.enabled && policy.skip_failed_chunks && transient) {
        delivery.gap_reason = resilience::describe(err);
        return delivery;
      }
      if (delivery.retries > 0) {
        retries_metric_->add(static_cast<double>(delivery.retries));
        chunks_retried_metric_->increment();
      }
      std::rethrow_exception(err);
    }
  }
  delivery.output = out;  // moving the Delivery keeps partial_output's buffer
  delivery.engine_seconds = engine_clock.seconds();
  return delivery;
}

void StreamingDedisperser::deliver(const Delivery& delivery) {
  const Job& job = delivery.job;
  if (delivery.retries > 0) {
    retries_metric_->add(static_cast<double>(delivery.retries));
    chunks_retried_metric_->increment();
  }
  if (delivery.gap_reason) {
    skip_chunk_with_gap(job, *delivery.gap_reason);
    return;
  }
  const resilience::StreamPolicy& policy = options_.supervision;
  const bool full = job.out_samples == plan_.out_samples();
  const double data_seconds = static_cast<double>(job.out_samples) /
                              plan_.observation().sampling_rate();

  StreamChunk chunk;
  chunk.index = job.index;
  chunk.first_sample = job.first_sample;
  chunk.out_samples = job.out_samples;
  chunk.timing.data_seconds = data_seconds;
  double detect_seconds = 0.0;
  for (std::size_t b = 0; b < beams(); ++b) {
    chunk.beam = b;
    chunk.output = beam_rows(delivery.output, b, plan_.dms());
    const Stopwatch detect;
    if (options_.detect) chunk.detection = sky::detect_best_dm(chunk.output);
    detect_seconds += detect.seconds();
    chunk.timing.compute_seconds = delivery.engine_seconds + detect_seconds;
    chunk.timing.latency_seconds =
        session_clock_.seconds() - job.assembled_at;
    if (sink_) {
      telemetry::TraceSpan sink_span("stream.sink");
      sink_span.arg("chunk", job.index);
      sink_(chunk);
    }
  }

  std::unique_lock<std::mutex> lock(mutex_);
  tracker_.record(chunk.timing);
  ++emitted_;
  for (const engine::EngineRun& run : delivery.runs) {
    traffic_.add(run, full ? plan_ : plan_.with_chunk(job.out_samples));
  }
  // Rung 3 pressure — the deadline is the real-time-margin criterion per
  // chunk: factor × data seconds of compute budget. An overrun still
  // delivered (late science beats no science) but pushes the session
  // toward the cheaper engine; an on-time chunk resets the streak.
  if (policy.enabled && policy.deadline_factor > 0.0 &&
      chunk.timing.compute_seconds > policy.deadline_factor * data_seconds) {
    overruns_metric_->increment();
    telemetry::Tracer::instance().record_instant(
        "stream.deadline", telemetry::Tracer::now_ns());
    degrade_pressure(lock);
  } else {
    pressure_streak_ = 0;
  }
}

void StreamingDedisperser::skip_chunk_with_gap(const Job& job,
                                               const std::string& reason) {
  const double data_seconds = static_cast<double>(job.out_samples) /
                              plan_.observation().sampling_rate();
  resilience::ChunkGap gap;
  gap.index = job.index;
  gap.first_sample = job.first_sample;
  gap.out_samples = job.out_samples;
  gap.reason = reason;
  chunks_skipped_metric_->increment();
  telemetry::Tracer::instance().record_instant("stream.gap",
                                               telemetry::Tracer::now_ns());
  std::unique_lock<std::mutex> lock(mutex_);
  tracker_.record_gap(data_seconds);
  health_.gaps.push_back(std::move(gap));
  degrade_pressure(lock);
}

void StreamingDedisperser::degrade_pressure(std::unique_lock<std::mutex>&) {
  ++pressure_streak_;
  if (health_.degraded || !degrade_engine_ ||
      options_.supervision.degrade_after == 0 ||
      pressure_streak_ < options_.supervision.degrade_after) {
    return;
  }
  // The switch is one flag plus bookkeeping: the target engine was built
  // at construction and the chunker already carries its padding. Chunks
  // the compute stage already started finish on the old engine.
  pressure_streak_ = 0;
  degradations_metric_->increment();
  telemetry::Tracer::instance().record_instant("stream.degrade",
                                               telemetry::Tracer::now_ns());
  health_.degraded = true;
  health_.active_engine = degrade_engine_id_;
}

resilience::StreamHealth StreamingDedisperser::health() const {
  // gaps / engine identity under the session mutex; numeric counters from
  // the registry metrics, so health(), a Prometheus scrape and
  // snapshot_json() report the same numbers.
  resilience::StreamHealth h;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    h = health_;
    h.chunks_emitted = emitted_;
  }
  h.retries = static_cast<std::size_t>(retries_metric_->value());
  h.chunks_retried =
      static_cast<std::size_t>(chunks_retried_metric_->value());
  h.chunks_skipped =
      static_cast<std::size_t>(chunks_skipped_metric_->value());
  h.deadline_overruns = static_cast<std::size_t>(overruns_metric_->value());
  h.degradations = static_cast<std::size_t>(degradations_metric_->value());
  h.gap_data_seconds = tracker_.report().gap_data_seconds;
  return h;
}

engine::SessionTraffic StreamingDedisperser::telemetry() const {
  std::lock_guard<std::mutex> lock(mutex_);
  engine::SessionTraffic total = traffic_;
  if (sharded_) total.merge(sharded_->telemetry());
  return total;
}

void StreamingDedisperser::close() {
  if (!closed_) {
    closed_ = true;
    // The flush may rethrow an earlier failure; the threads must still be
    // stopped and joined before any exception leaves, or a joinable thread
    // would be destroyed.
    std::exception_ptr flush_error;
    try {
      if (chunker_.pending_out() > 0) {
        acquire_window();  // the partial window starts with a carry
        submit(window_job(/*partial=*/true));
      }
    } catch (...) {
      flush_error = std::current_exception();
    }
    if (options_.async) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
      }
      cv_job_.notify_one();
      if (compute_thread_.joinable()) compute_thread_.join();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        delivery_stop_ = true;
      }
      cv_delivery_.notify_one();
      if (delivery_thread_.joinable()) delivery_thread_.join();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_ && flush_error) error_ = flush_error;
  }
  rethrow_pending_error();
}

std::size_t StreamingDedisperser::chunks_emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

LatencyReport StreamingDedisperser::latency() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tracker_.report();
}

}  // namespace ddmc::stream
