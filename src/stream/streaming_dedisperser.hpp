#pragma once
/// \file streaming_dedisperser.hpp
/// \brief Streaming real-time dedispersion session, for any number of beams.
///
/// The batch API (`pipeline::Dedisperser`) needs the whole channels ×
/// in_samples matrix up front; a survey backend has samples *arriving*. A
/// StreamingDedisperser is the session object in between:
///
///   ring (bounded, backpressure)          [optional, consume()]
///     └─ OverlapChunker                   assembles overlap-carry windows
///          └─ DedispEngine                any streaming-capable engine
///               └─ sink callback          dms × chunk output (+ detection)
///
/// One session serves B = StreamingOptions::beams beams of one plan (the
/// beams of one telescope see the same band and DM grid). Their channels
/// are stacked along the rows: every block pushed, every ring and every
/// window holds B·channels rows, beam b at rows [b·C, (b+1)·C). The one
/// chunker carries all beams at once; the compute stage runs each beam's
/// rows through the engine, on the engine's own pool
/// (StreamingOptions::cpu.threads), into rows [b·dms, (b+1)·dms) of the
/// chunk's output, and the watchdog's retry, skip and degradation rungs
/// act on the whole chunk. The sink is called once per beam, in beam
/// order, with StreamChunk::beam set; B = 1 is the single-beam session.
///
/// The engine is selected by registry id (StreamingOptions::engine); a
/// session requires the supports_streaming capability and widens the
/// chunker's carried overlap by the engine's declared input_padding, so an
/// engine that reads past in_samples (subband) streams real samples, not
/// zero padding.
///
/// Feed raw samples at any granularity with push(); close() flushes the
/// final partial chunk, so a session that saw the same samples as a batch
/// run emits, concatenated, the bitwise-identical output matrix. An async
/// session (the default) is a three-stage pipeline:
///
///   pushing thread    assembly: feed the chunker's two windows in turn and
///                     post each full one to a one-deep job slot
///   compute thread    the engine, alternating two output buffers
///   delivery thread   detection (StreamingOptions::detect), the sink,
///                     latency/traffic/retry accounting and the watchdog's
///                     deadline, skip and degradation pressure, one chunk
///                     at a time and in chunk order
///
/// so window k+1 is assembled while chunk k dedisperses and chunk k−1 is
/// delivered, and a chunk costs the slowest of the three stages rather
/// than their sum. The compute thread empties the slot when it starts a
/// chunk, so at the end of one engine call the next window is already
/// waiting for it. Memory: two input windows + two output buffers (a sync
/// session: two windows + one output buffer), all left uninitialized until
/// first written. Each output buffer holds B·dms rows. The final partial
/// chunk gets its own output buffer.
///
/// When the engine reads 8-bit codes (DedispEngine::input_quantizer), the
/// chunker's windows hold codes, each sample quantized once as it is
/// pushed, and every chunk reaches the engine as a code plane — the flush
/// chunk too, under the adapted config, whose code map is the session's:
/// the compute stage only accumulates.
/// Such a session keeps float windows as well only when it can degrade to
/// a float engine; a degraded chunk takes them. A window dedispersed
/// straight from the caller's block (sync sessions) takes the float call.
/// The samples the code map clips are counted once, at ingest, in the
/// session's `ddmc.stream.quant_clipped_total` counter.
///
/// The sink runs on the delivery thread (async mode) or the pushing thread
/// (sync mode). Its calls are serialized, in chunk order and, within a
/// chunk, in beam order, never concurrent; the output view is valid for
/// the duration of the call. It must not call back into the session.

#include <array>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/array2d.hpp"
#include "common/timer.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/plan.hpp"
#include "engine/engine.hpp"
#include "resilience/supervisor.hpp"
#include "sky/detection.hpp"
#include "stream/chunker.hpp"
#include "stream/latency.hpp"
#include "stream/ring_buffer.hpp"
#include "telemetry/metrics.hpp"
#include "tuner/tuning_cache.hpp"

namespace ddmc::stream {

/// One delivered chunk of one beam: dms × out_samples trial matrix plus
/// accounting.
struct StreamChunk {
  std::size_t index = 0;         ///< chunk sequence number
  std::size_t beam = 0;          ///< beam of the output, 0 ≤ beam < beams
  std::size_t first_sample = 0;  ///< global output sample of column 0
  /// Chunk length: the session's chunk size for full chunks; the flush
  /// chunk covers whatever remained (usually shorter, at most chunk size
  /// + the engine's input padding − 1).
  std::size_t out_samples = 0;
  /// Dedispersed output; valid only during the sink call.
  ConstView2D<float> output;
  /// Strongest candidate in this beam's chunk (StreamingOptions::detect).
  std::optional<sky::DetectionResult> detection;
  /// The chunk's timing up to this sink call: engine time of every beam,
  /// detection of beams 0..beam.
  ChunkTiming timing;
};

struct StreamingOptions {
  /// Registry id of the engine the session runs; must report the
  /// supports_streaming capability.
  std::string engine = engine::kDefaultEngineId;
  /// Beams the session dedisperses, stacked along the rows of every block
  /// (beams × the plan's channels rows); at least 1.
  std::size_t beams = 1;
  /// Host-execution knobs passed to the engine factory: threads sizes the
  /// pool every engine call of the session runs on (the session's only
  /// way to use more cores), plus SIMD-vs-scalar.
  dedisp::CpuKernelOptions cpu;
  /// Two-stage split of the subband engine (adapted to the plan by gcd).
  dedisp::SubbandConfig subband;
  /// Scan each chunk for its strongest candidate and attach it.
  bool detect = false;
  /// Pipeline the session: assembly on the pushing thread, the engine on a
  /// compute thread and delivery (detection, sink, accounting) on a
  /// delivery thread; false runs chunks inline on the pushing thread
  /// (deterministic profiling, tests).
  bool async = true;
  /// Watchdog ladder on chunk failure / deadline overrun, acting on the
  /// whole chunk (every beam): retry transient failures → skip the chunk
  /// with gap accounting → degrade to a cheaper streaming-capable engine.
  /// The deadline judges the chunk's compute over all beams. Disabled
  /// by default: an unsupervised session latches the first error exactly
  /// as before. When enabled with a degradation target available, the
  /// chunker's carried overlap is widened to the larger of the two
  /// engines' input_padding so the fallback streams real samples too.
  resilience::StreamPolicy supervision;
};

/// Streaming session of StreamingOptions::beams beams.
class StreamingDedisperser {
 public:
  using Sink = std::function<void(const StreamChunk&)>;

  /// \p chunk_plan fixes the instance (observation, DM grid) and the chunk
  /// length via its out_samples; build it with Plan::with_output_samples or
  /// Plan::with_chunk. \p config must validate against it on the selected
  /// engine (engine-native axes; empty = the engine's defaults).
  StreamingDedisperser(dedisp::Plan chunk_plan, engine::EngineConfig config,
                       Sink sink, StreamingOptions options = {});

  /// Tune-on-first-use: resolve the engine config from \p cache before the
  /// session starts — an exact hit or a nearest-neighbor transfer costs no
  /// measurements (the startup path a real-time backend wants), a cold
  /// cache runs the guided search once on the chunk plan and stores the
  /// winner for every later session. When \p tuning.engines is empty only
  /// \p options.engine is tuned; listing several ids races them by
  /// measured wall seconds and the session *adopts the winner* before it
  /// starts: the streaming-capability gate and the chunker's carried
  /// overlap are taken from the winning engine, so a winner with a larger
  /// input_padding streams real samples, not zero padding. The engine
  /// knobs of \p tuning.host are overridden by \p options.cpu so the tuned
  /// signature matches what the session will run; inspect tuning_outcome()
  /// for what happened.
  StreamingDedisperser(dedisp::Plan chunk_plan, tuner::TuningCache& cache,
                       Sink sink, StreamingOptions options = {},
                       tuner::GuidedTuningOptions tuning = {});

  ~StreamingDedisperser();

  StreamingDedisperser(const StreamingDedisperser&) = delete;
  StreamingDedisperser& operator=(const StreamingDedisperser&) = delete;

  const dedisp::Plan& chunk_plan() const { return plan_; }
  std::size_t chunk_samples() const { return plan_.out_samples(); }
  std::size_t channels() const { return plan_.channels(); }
  std::size_t beams() const { return options_.beams; }

  /// Feed samples.cols() samples (beams·channels × n, any n ≥ 0 — down to
  /// one sample). Completed chunks are dispatched as a side effect; blocks
  /// only to write into the window the engine still reads (backpressure
  /// from compute, and through it from delivery). Rethrows a sink/kernel
  /// failure from the pipeline threads.
  void push(ConstView2D<float> samples);

  /// Drain \p ring (beams·channels channels) until it is closed and
  /// empty, like push()ing everything. Samples are popped straight into
  /// the float window being assembled; a session with code windows alone
  /// pops at most a chunk at a time into a float transfer and quantizes
  /// from it.
  void consume(SampleRing& ring);

  /// Flush the final partial chunk (if any), drain the compute and then the
  /// delivery stage, and join both threads. Idempotent; called by the
  /// destructor. Rethrows the first sink/kernel failure, if any.
  void close();

  /// Chunks delivered to the sink so far (each one sink call per beam).
  std::size_t chunks_emitted() const;

  /// Latency/throughput statistics of the chunks delivered so far
  /// (including gap accounting for chunks the watchdog skipped).
  LatencyReport latency() const;

  /// Snapshot of the supervised session's health: retries, skips with
  /// their gaps, deadline overruns, and the active (possibly degraded)
  /// engine. Meaningful counters require StreamingOptions::supervision
  /// .enabled; active_engine is maintained either way. The numeric fields
  /// are assembled from this session's registry counters (one source of
  /// truth with the exporters); the gaps list and the engine identity live
  /// on the session.
  resilience::StreamHealth health() const;

  /// Whole-session traffic aggregate: runs, busy seconds, FLOP and bytes
  /// over every chunk.
  engine::SessionTraffic telemetry() const;

  /// The session label this session's registry metrics carry.
  const std::string& session_label() const { return tracker_.session(); }

  /// How the cache-constructed session got its config (empty when the
  /// explicit-config constructor was used).
  const std::optional<tuner::GuidedTuningOutcome>& tuning_outcome() const {
    return tuning_outcome_;
  }

 private:
  /// Plan + resolved tuning + the options the session will actually run
  /// (the tuning race's winning engine adopted into options.engine), so the
  /// cache lookup runs exactly once before the delegated constructor sizes
  /// the chunker and starts the pipeline threads.
  struct TunedPlan {
    dedisp::Plan plan;
    StreamingOptions options;
    tuner::GuidedTuningOutcome outcome;
  };
  static TunedPlan resolve_tuning(dedisp::Plan chunk_plan,
                                  tuner::TuningCache& cache,
                                  StreamingOptions options,
                                  tuner::GuidedTuningOptions tuning);
  StreamingDedisperser(TunedPlan tuned, Sink sink);

  struct Job {
    std::size_t index = 0;
    std::size_t first_sample = 0;
    std::size_t out_samples = 0;
    /// The chunk's input window, as floats and/or as codes (whichever the
    /// chunker keeps; a borrowed block is floats only). Full chunks read
    /// the whole window (out + overlap incl. engine padding); the final
    /// partial flush reads only what was actually fed — the engine
    /// zero-pads the rest, exactly as a batch run over the same samples
    /// would. In async mode this is one of the chunker's windows, lent
    /// until the compute thread takes the next job.
    ConstView2D<float> input;
    ConstView2D<std::uint8_t> codes;
    std::size_t window = 0;     ///< the chunker buffer input/codes live in
    double assembled_at = 0.0;  ///< session-clock time the window completed
  };

  /// A chunk on its way from the compute stage to the delivery stage.
  struct Delivery {
    Job job;
    View2D<float> output;           ///< beams·dms rows; unset when skipped
    Array2D<float> partial_output;  ///< owns the final flush chunk's output
    /// Set when the watchdog skipped the chunk: delivered as a gap record.
    std::optional<std::string> gap_reason;
    std::size_t retries = 0;
    double engine_seconds = 0.0;  ///< failed attempts included
    std::vector<engine::EngineRun> runs;  ///< one engine call per beam
  };

  /// Start \p job (sync: run it inline; async: post it to the job slot,
  /// waiting only while the slot still holds the previous window).
  void submit(Job job);
  /// Add the samples the chunker clipped since the last call to the
  /// session's quant_clipped_total counter.
  void publish_clipped();
  /// Async sessions: before the pushing thread writes the chunker's
  /// current window, wait until the compute thread no longer reads it.
  void acquire_window();
  /// The chunker's current window as a job: the full window, or with
  /// \p partial the final partial one.
  Job window_job(bool partial);
  /// Submit the chunker's assembled window and move the chunker on to its
  /// other window.
  void dispatch();
  /// Compute stage: the engine over every beam with the watchdog's retry
  /// rung, into \p out_full for full chunks. Throws a failure no rung
  /// absorbs.
  Delivery compute(const Job& job, View2D<float> out_full);
  /// Delivery stage: detection and the sink for each beam, then the
  /// accounting, or the gap record of a skipped chunk.
  void deliver(const Delivery& delivery);
  /// Watchdog rung 2: account the never-emitted chunk as a gap and apply
  /// degradation pressure.
  void skip_chunk_with_gap(const Job& job, const std::string& reason);
  /// Apply one unit of degradation pressure (a skip or a deadline
  /// overrun); a clean chunk resets the streak. Switches to the prebuilt
  /// degradation target when the streak reaches the policy threshold.
  void degrade_pressure(std::unique_lock<std::mutex>& lock);
  void compute_loop();
  void delivery_loop();
  void rethrow_pending_error();

  dedisp::Plan plan_;
  engine::EngineConfig config_;
  Sink sink_;
  StreamingOptions options_;
  std::shared_ptr<const engine::DedispEngine> engine_;
  /// Prebuilt degradation target (supervision enabled and a capable,
  /// cheaper engine exists); building it up front means the switch is a
  /// pointer swap on the compute path, never a mid-session factory call
  /// that could itself fail.
  std::shared_ptr<const engine::DedispEngine> degrade_engine_;
  std::string degrade_engine_id_;
  std::optional<tuner::GuidedTuningOutcome> tuning_outcome_;
  /// Window ownership in an async session. The pushing thread assembles
  /// the chunker's current window() and owns it until it posts it to the
  /// job slot (job_, job_pending_). The compute thread takes the job from
  /// the slot when it starts the chunk and holds that window (reading_)
  /// until it takes the next job. The pushing thread, having posted window
  /// k, writes window k+1 into the other buffer, which the compute thread
  /// may still hold as window k−1: acquire_window() waits until it has
  /// taken window k. Meanwhile the pushing thread reads window k, to carry
  /// its overlap tail, but never writes it.
  OverlapChunker chunker_;
  bool owned_ = true;  // pushing thread only: it may write chunker_.window()
  Stopwatch session_clock_;
  LatencyTracker tracker_;  // guarded by mutex_ in async mode

  /// Output buffers of full chunks; the sink's view into one is valid only
  /// during the sink call. Async sessions alternate both, and at most one
  /// delivery is in flight, so the compute thread never writes the buffer
  /// being delivered; sync sessions allocate only the first.
  std::array<ScratchBuffer<float>, 2> out_storage_;
  std::array<View2D<float>, 2> out_full_;
  Job job_;                     // the job slot, guarded by mutex_
  bool job_pending_ = false;    // the slot holds a job
  /// Chunker buffer of the job the compute thread took last (2: none yet).
  std::size_t reading_ = 2;     // guarded by mutex_
  Delivery delivery_;           // owned by the delivery thread while pending
  bool delivery_pending_ = false;
  bool stop_ = false;           // compute: no job follows
  bool delivery_stop_ = false;  // delivery: no record follows
  bool closed_ = false;
  std::exception_ptr error_;
  std::size_t emitted_ = 0;
  /// Only the gaps list, active_engine and degraded flag are kept here
  /// (guarded by mutex_); every numeric counter lives in the session's
  /// registry metrics below and is folded back in by health(). The
  /// delivery stage sets degraded; the compute stage reads it per chunk.
  resilience::StreamHealth health_;
  /// Session-labeled supervision counters — the numeric source of truth
  /// behind health() and the exporters.
  std::shared_ptr<telemetry::Counter> retries_metric_;
  std::shared_ptr<telemetry::Counter> chunks_retried_metric_;
  std::shared_ptr<telemetry::Counter> chunks_skipped_metric_;
  std::shared_ptr<telemetry::Counter> overruns_metric_;
  std::shared_ptr<telemetry::Counter> degradations_metric_;
  /// Samples the chunker's code map clipped, each counted once at ingest
  /// (code-reading engines only).
  std::shared_ptr<telemetry::Counter> quant_clipped_metric_;
  std::size_t clipped_published_ = 0;  // pushing thread only
  engine::SessionTraffic traffic_;      // guarded by mutex_
  std::size_t pressure_streak_ = 0;     // guarded by mutex_
  mutable std::mutex mutex_;
  std::condition_variable cv_job_;       // compute: job_pending_ || stop_
  std::condition_variable cv_taken_;     // push: the compute thread took a job
  std::condition_variable cv_delivery_;  // delivery: record || stop
  std::condition_variable cv_slot_;      // compute: !delivery_pending_
  std::thread delivery_thread_;
  std::thread compute_thread_;
};

}  // namespace ddmc::stream
