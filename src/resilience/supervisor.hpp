#pragma once
/// \file supervisor.hpp
/// \brief Supervision policies and reports shared by the sharded executor
/// and the streaming watchdog.
///
/// The paper's real-time criterion (§V-D) makes dropped work a scientific
/// loss, not just an operational one: a worker that dies mid-survey takes
/// its DM shard's candidates with it. This header defines *policy* — how
/// many retries, what backoff, whether a dead worker's shard is reacquired,
/// how a streaming session degrades — separately from the executors that
/// enforce it, so every execution path (batch, sharded, streaming) reads
/// the same vocabulary:
///
///   RetryPolicy         bounded attempts with exponential backoff; only
///                       TransientErrors are retried (error.hpp taxonomy).
///   SupervisionPolicy   RetryPolicy + shard reacquisition: a shard whose
///                       retries exhaust is re-partitioned across the
///                       surviving workers by the DmShardPlanner cost (the
///                       input elements each range reads), so one dead
///                       worker degrades throughput, not coverage.
///   ShardExecutionReport  attempts / retries / reassignments per shard —
///                       the observability a heartbeat monitor would export.
///   StreamPolicy        the streaming watchdog's ordered ladder on chunk
///                       failure or deadline overrun:
///                       retry → skip-with-gap-accounting → degrade to a
///                       cheaper capable engine.
///   StreamHealth        session snapshot: gaps, retries, skips, the active
///                       (possibly degraded) engine.

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "resilience/error.hpp"

namespace ddmc::resilience {

/// Bounded retry with exponential backoff. Only transient failures are
/// retried; config/data/unknown errors fail the first attempt.
struct RetryPolicy {
  /// Total attempts (1 = no retry).
  std::size_t max_attempts = 1;
  /// Sleep before retry k (1-based): backoff_seconds × multiplier^(k−1),
  /// capped at max_backoff_seconds. Default is deliberately tiny — on one
  /// host a failed worker needs milliseconds, not the seconds a remote
  /// reconnect would; a multi-node executor raises it.
  double backoff_seconds = 0.0005;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.050;

  /// Backoff before 1-based retry \p retry.
  double backoff_for(std::size_t retry) const;
};

/// Sleep for the policy's backoff before 1-based retry \p retry (no-op for
/// non-positive backoff).
void backoff_sleep(const RetryPolicy& policy, std::size_t retry);

/// Sharded-executor supervision. Defaults keep the historical behavior
/// (one attempt, no reacquisition) while still aggregating every worker
/// failure into one ShardExecutionError.
struct SupervisionPolicy {
  RetryPolicy retry;
  /// After a shard exhausts its retries on transient failures, declare its
  /// worker dead and re-partition the shard's DM range across the surviving
  /// workers (DmShardPlanner's input-element cost on the shard plan).
  /// Sub-shard tasks get the same retry budget but are never re-reacquired
  /// — one level bounds the recursion, and a fault pattern that kills every
  /// split is reported as the shard's failure.
  bool reacquire = false;
  /// Sub-shards a reacquired range splits into; 0 = surviving worker count.
  std::size_t reacquire_splits = 0;
};

/// Per-shard supervision counters across one dedisperse/batch call.
struct ShardJobStats {
  std::size_t attempts = 0;    ///< executions tried (incl. sub-shards)
  std::size_t retries = 0;     ///< attempts beyond each job's first
  std::size_t reassignments = 0;  ///< times the shard's range was reacquired
  bool failed = false;         ///< still failed after the full policy
};

/// What one supervised sharded run did — the numbers a fleet monitor
/// aggregates (and the proof, in tests, that a fault pattern was absorbed).
struct ShardExecutionReport {
  std::size_t jobs = 0;      ///< beam × shard jobs submitted
  std::size_t attempts = 0;  ///< Σ shard attempts
  std::size_t retries = 0;
  std::size_t reassignments = 0;
  std::vector<ShardJobStats> shards;  ///< indexed by shard

  bool clean() const { return retries == 0 && reassignments == 0; }
};

/// One job's terminal failure inside a sharded run.
struct ShardFailure {
  std::size_t beam = 0;
  std::size_t shard = 0;
  std::size_t attempts = 0;
  ErrorClass kind = ErrorClass::kUnknown;
  std::string message;
};

/// Aggregate of *every* failed (beam, shard) job of a sharded run — not
/// just the first — so an operator sees the whole blast radius at once.
/// what() names each failed shard index and its cause.
class ShardExecutionError : public Error {
 public:
  explicit ShardExecutionError(std::vector<ShardFailure> failures);

  const std::vector<ShardFailure>& failures() const { return failures_; }

  /// Taxonomy class of the aggregate: kTransient when *every* failed job
  /// was transient (a retry of the whole run could succeed — the streaming
  /// watchdog's retry/skip rungs apply), else the first fatal kind.
  ErrorClass aggregate_class() const {
    for (const ShardFailure& f : failures_) {
      if (f.kind != ErrorClass::kTransient) return f.kind;
    }
    return failures_.empty() ? ErrorClass::kUnknown : ErrorClass::kTransient;
  }

 private:
  static std::string format(const std::vector<ShardFailure>& failures);
  std::vector<ShardFailure> failures_;
};

/// classify() with the sharded aggregate unwrapped: a ShardExecutionError
/// maps to its aggregate_class() (transient when every failed job was),
/// so a supervisor above a sharded executor can retry what is retryable.
/// Plain classify() cannot know the type — it lives below this header.
inline ErrorClass classify_supervised(const std::exception_ptr& error) {
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const ShardExecutionError& e) {
      return e.aggregate_class();
    } catch (...) {
    }
  }
  return classify(error);
}

/// The streaming watchdog's ladder. Disabled by default: an unsupervised
/// session latches the first error exactly as before.
struct StreamPolicy {
  /// Master switch for the ladder; false preserves fail-fast semantics.
  bool enabled = false;
  /// Rung 1 — retry: transient chunk failures are re-run up to this many
  /// times (fatal errors never retry).
  std::size_t max_chunk_retries = 1;
  /// Rung 2 — skip: when retries exhaust, drop the chunk, account the gap
  /// (surfaced in StreamHealth and the LatencyReport) and keep the session
  /// alive. False rethrows instead (retry-only supervision).
  bool skip_failed_chunks = true;
  /// Per-chunk compute deadline as a multiple of the chunk's data seconds —
  /// the real-time-margin criterion itself: a factor of 1 demands margin
  /// ≥ 1 on every chunk, which is exactly when the ring stops backing up.
  /// A chunk over deadline still delivers (late science beats no science)
  /// but counts as pressure toward degradation. 0 disables the deadline.
  double deadline_factor = 0.0;
  /// Rung 3 — degrade: after this many *consecutive* pressure events
  /// (skipped chunks or deadline overruns), switch to a cheaper capable
  /// engine. 0 disables degradation.
  std::size_t degrade_after = 2;
  /// Registry id to degrade to; empty auto-selects via the registry
  /// capability query (select_degrade_engine).
  std::string degrade_engine;
};

/// One skipped chunk's accounting: where the gap sits in the output stream.
struct ChunkGap {
  std::size_t index = 0;         ///< chunk sequence number never emitted
  std::size_t first_sample = 0;  ///< first missing output sample
  std::size_t out_samples = 0;   ///< missing output samples
  std::string reason;            ///< terminal failure message
};

/// Snapshot of a supervised streaming session's health.
struct StreamHealth {
  std::size_t chunks_emitted = 0;
  std::size_t chunks_retried = 0;  ///< chunks that needed ≥ 1 retry
  std::size_t retries = 0;         ///< total extra attempts
  std::size_t chunks_skipped = 0;
  std::size_t deadline_overruns = 0;
  std::size_t degradations = 0;  ///< engine switches taken
  std::string active_engine;     ///< registry id currently executing
  bool degraded = false;
  double gap_data_seconds = 0.0;  ///< observation time lost to gaps
  std::vector<ChunkGap> gaps;
};

/// Pick the degradation target for a session running \p current_engine:
/// \p policy.degrade_engine when set (validated for supports_streaming),
/// else the cheapest streaming-capable engine the registry offers, by
/// cost tier: exact → quantized (input_element_bytes < 4, traffic
/// savings only) → algorithmically approximate — the subband engine when
/// registered (its two-stage approximation trades bounded smearing for a
/// large flop reduction, the canonical "keep the survey alive"
/// fallback). Returns an empty string when nothing in a strictly cheaper
/// tier exists.
std::string select_degrade_engine(const std::string& current_engine,
                                  const StreamPolicy& policy);

}  // namespace ddmc::resilience
