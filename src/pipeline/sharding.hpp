#pragma once
/// \file sharding.hpp
/// \brief DM-sharded execution: partition one plan's DM grid across a
/// worker pool.
///
/// The paper sizes real surveys by what one accelerator sustains (§V-D:
/// Apertif = 2,000 DMs × 450 beams); production deployments split that DM
/// range across many devices (Sclocco et al. 1601.01165; Barsdell et al.
/// 1201.5380 partition the DM space to fit device limits). This module is
/// the host-side architectural step those backends plug into, and the
/// fault-isolating executor: one shard's failure is retried or reacquired
/// without repeating the others. On one host the single-plan sessions
/// (pipeline::Dedisperser, stream::StreamingDedisperser) do not shard —
/// they spread a plan over the cores through their engine's own pool,
/// which tile-aligned shards only tie; MultiBeamDedisperser's
/// dedisperse_sharded batches beams × shards onto one pool.
///
///  - DmShardPlanner cuts a plan's DM grid into contiguous per-worker
///    ranges balanced by *cost* — the input elements each range reads,
///    counted from the plan — not equal trial counts: a high-DM shard
///    drags a larger input window through memory (its dispersion sweep is
///    longer), so equal-count splits systematically overload the top
///    shard. Boundaries sit on multiples of the DM tile the shards run.
///  - ShardedDedisperser executes the shards across an owned worker pool,
///    through any engine whose capabilities report supports_sharding
///    (ShardedOptions::engine selects it by registry id; an engine without
///    the capability is rejected with an error naming it). Every shard runs
///    on its own worker with its own staging buffers and its own
///    engine-native config — either the caller's config, kept whole by
///    the tile-aligned cut (DedispEngine::dm_tile, adapt_config), or tuned
///    per shard
///    through TuningCache::tune_guided (shard plans carry their own
///    PlanSignature, so neighboring shards answer each other's tuning by
///    nearest-neighbor transfer). Batched submission covers multiple beams
///    (beams × shards jobs in flight at once); results are assembled into
///    the full dms × out_samples matrix by writing each shard's rows at its
///    DM offset, which makes the output *bitwise identical* to the
///    single-engine batch path: shard delay tables are sliced, never
///    recomputed (Plan::dm_shard), and the sharding-capable engines are
///    bitwise identical across kernel configurations.
///  - Execution is *supervised* (ShardedOptions::supervision): a failing
///    shard job is retried with bounded backoff while its failures stay
///    transient; a shard whose retries exhaust is declared dead and its DM
///    range reacquired by the surviving workers — re-partitioned by the
///    same DmShardPlanner cost and tile and executed as sub-shards, so one
///    dead worker costs throughput, never coverage. Every recovery path
///    preserves the bitwise guarantee (sub-shard plans are slices of
///    slices), jobs that still fail are aggregated into one
///    resilience::ShardExecutionError naming each failed shard and cause,
///    and last_report() exposes attempts/retries/reassignments per shard.

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/array2d.hpp"
#include "common/thread_pool.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/plan.hpp"
#include "engine/engine.hpp"
#include "resilience/supervisor.hpp"
#include "tuner/tuning_cache.hpp"

namespace ddmc::pipeline {

/// One contiguous DM range owned by one worker.
struct DmShard {
  std::size_t first_dm = 0;  ///< first trial of the range
  std::size_t dms = 0;       ///< trials in the range
  std::size_t cost = 0;      ///< DmShardPlanner::shard_cost of the range
};

/// A full partition of a plan's DM grid.
struct ShardLayout {
  std::vector<DmShard> shards;  ///< contiguous, in DM order
  std::size_t max_cost = 0;     ///< costliest shard (the critical path)
  std::size_t total_cost = 0;   ///< Σ cost

  /// max / mean shard cost; 1 = perfectly balanced.
  double imbalance() const {
    if (shards.empty() || total_cost == 0) return 1.0;
    return static_cast<double>(max_cost) *
           static_cast<double>(shards.size()) /
           static_cast<double>(total_cost);
  }
};

/// Partitions a plan's DM grid into per-worker shards, minimizing the cost
/// of the costliest shard (the quantity that bounds wall time).
///
/// Dedispersion is memory-bound, so a shard is priced by the input
/// elements it reads, from the plan alone: every trial reads
/// channels × out_samples elements, and staging the shard's unique input
/// window reads channels × (out_samples + max delay of the shard's top
/// trial) more. The second term is what makes high-DM shards more
/// expensive than low-DM shards of equal trial count.
class DmShardPlanner {
 public:
  explicit DmShardPlanner(const dedisp::Plan& plan);

  std::size_t dms() const { return max_delay_.size(); }

  /// Input elements one worker owning [first_dm, first_dm+dms) reads:
  /// channels × (dms·out_samples + out_samples + max_delay(top trial)).
  std::size_t shard_cost(std::size_t first_dm, std::size_t dms) const;

  /// Optimal min-max contiguous partition into exactly
  /// min(\p workers, ⌈dms() / \p tile⌉) shards whose boundaries sit on
  /// multiples of \p tile — every shard holds ≥ 1 tile, so more workers
  /// than tiles idle the surplus. Cutting on the DM tile of the config the
  /// shards run (DedispEngine::dm_tile) keeps that config on every shard.
  /// Shards cover [0, plan.dms()) exactly, in order.
  ShardLayout partition(std::size_t workers, std::size_t tile = 1) const;

 private:
  std::size_t out_samples_ = 0;
  std::size_t channels_ = 0;
  /// Running max over channels and trials ≤ d — monotone by construction,
  /// so shard cost is monotone in the range end and greedy packing against
  /// a cost threshold is optimal.
  std::vector<std::size_t> max_delay_;
};

struct ShardedOptions {
  /// Worker threads owning shards; 0 = machine concurrency.
  std::size_t workers = 0;
  /// Registry id of the engine every worker runs; must report the
  /// supports_sharding capability.
  std::string engine = engine::kDefaultEngineId;
  /// Full factory options for the workers' engine (cpu knobs, subband
  /// split, quantization window — whatever the selected engine reads). The
  /// per-worker thread count is always forced to 1 — shards (× beams) are
  /// the parallel dimension.
  engine::EngineOptions engine_options;
  /// Supervision of the worker jobs: per-shard bounded retry with backoff
  /// and (optionally) reacquisition of a dead worker's DM range by the
  /// surviving workers. The default (one attempt, no reacquisition) keeps
  /// the historical fail-fast behavior — except that *all* worker failures
  /// are now aggregated into one resilience::ShardExecutionError naming
  /// each failed shard and its cause, instead of rethrowing only the first.
  resilience::SupervisionPolicy supervision;
};

/// Executes a plan as DM shards on an owned worker pool.
class ShardedDedisperser {
 public:
  /// Shard boundaries sit on multiples of \p config's DM tile
  /// (DedispEngine::dm_tile), so every shard runs \p config itself; each
  /// shard's config still goes through the engine's adapt_config, which
  /// returns it unchanged. \p config must validate against \p plan on the
  /// selected engine.
  ShardedDedisperser(dedisp::Plan plan, engine::EngineConfig config,
                     ShardedOptions options = {});

  /// Tune each shard through \p cache: shard plans carry their own
  /// PlanSignature, so the first shard's guided search seeds the cache and
  /// neighboring shards resolve by exact hit or nearest-neighbor transfer
  /// (zero measurements). When \p tuning.engines lists several ids, the
  /// engines race once on the *full* plan and the winner is adopted for
  /// every shard (per-shard races could crown different engines per shard
  /// and break the single-engine bitwise assembly guarantee); a winner
  /// without the supports_sharding capability is rejected with an error
  /// naming it. The engine knobs of \p tuning.host are overridden by
  /// \p options.cpu, matching what the workers will run.
  ShardedDedisperser(dedisp::Plan plan, tuner::TuningCache& cache,
                     ShardedOptions options = {},
                     tuner::GuidedTuningOptions tuning = {});

  const dedisp::Plan& plan() const { return plan_; }
  const engine::DedispEngine& engine() const { return *engine_; }
  const ShardLayout& layout() const { return layout_; }
  std::size_t workers() const { return pool_->worker_count(); }
  std::size_t shard_count() const { return shard_plans_.size(); }
  const dedisp::Plan& shard_plan(std::size_t shard) const {
    return shard_plans_.at(shard);
  }
  const engine::EngineConfig& shard_config(std::size_t shard) const {
    return shard_configs_.at(shard);
  }
  /// Per-shard tuning outcomes (cache constructor only; else empty).
  const std::vector<tuner::GuidedTuningOutcome>& tuning_outcomes() const {
    return tuning_outcomes_;
  }

  /// Dedisperse one beam into \p out (dms × ≥out_samples): all shards are
  /// submitted to the pool at once, each writing its own row range of
  /// \p out. Blocks until the matrix is fully assembled. Worker failures
  /// are retried/reacquired per ShardedOptions::supervision; jobs that
  /// still fail are aggregated into one resilience::ShardExecutionError
  /// naming every failed shard and its cause. Bitwise identical to the
  /// single-engine path — under any supervised recovery too, because a
  /// shard's rows are only ever written by the engine that finally
  /// succeeds on exactly that DM range.
  void dedisperse(ConstView2D<float> input, View2D<float> out) const;

  /// Convenience allocating the output matrix.
  Array2D<float> dedisperse(ConstView2D<float> input) const;

  /// Batched submission: every (beam, shard) job enters the pool together,
  /// so workers drain beams × shards work items without a per-beam barrier.
  /// outputs[b] is beam b's full dms × out_samples matrix.
  std::vector<Array2D<float>> dedisperse_batch(
      const std::vector<ConstView2D<float>>& beams) const;

  /// Supervision counters (attempts, retries and reassignments per shard).
  /// The report is mutated *live* under one mutex, so this is safe to call
  /// from a monitoring thread while a dedisperse/dedisperse_batch is in
  /// flight — it returns a consistent snapshot of the counters so far; a
  /// finished call's counters are final, even when the call threw. A new
  /// dedisperse call resets the report; two calls racing on one executor
  /// interleave their counters into it.
  resilience::ShardExecutionReport last_report() const;

  /// Whole-lifetime traffic aggregate across every dedisperse call:
  /// runs, busy seconds, FLOP and bytes summed over all shard jobs (including
  /// retried and reacquired ones — they do the work, so they count). Safe
  /// to call concurrently with in-flight work.
  engine::SessionTraffic telemetry() const;

 private:
  ShardedDedisperser(dedisp::Plan plan, ShardedOptions options);
  /// Partition the plan on multiples of \p tile and slice the shard plans.
  void cut_shards(std::size_t tile);
  void run_batch(const std::vector<ConstView2D<float>>& beams,
                 const std::vector<View2D<float>>& outs) const;

  dedisp::Plan plan_;
  ShardedOptions options_;
  std::shared_ptr<const engine::DedispEngine> engine_;
  ShardLayout layout_;
  std::vector<dedisp::Plan> shard_plans_;
  std::vector<engine::EngineConfig> shard_configs_;
  std::vector<tuner::GuidedTuningOutcome> tuning_outcomes_;
  std::unique_ptr<ThreadPool> pool_;
  /// Guards last_report_ and traffic_; workers take it per counter bump,
  /// readers per snapshot — never across an engine call.
  mutable std::mutex report_mutex_;
  mutable resilience::ShardExecutionReport last_report_;
  mutable engine::SessionTraffic traffic_;
};

}  // namespace ddmc::pipeline
