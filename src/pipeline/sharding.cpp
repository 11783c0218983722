#include "pipeline/sharding.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "common/expect.hpp"
#include "engine/registry.hpp"
#include "resilience/fault_injection.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"

namespace ddmc::pipeline {

// ---------------------------------------------------------------- planner --

DmShardPlanner::DmShardPlanner(const dedisp::Plan& plan)
    : out_samples_(plan.out_samples()), channels_(plan.channels()) {
  const sky::DelayTable& delays = plan.delays();
  max_delay_.resize(plan.dms());
  std::int64_t running = 0;
  for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
    for (std::size_t ch = 0; ch < channels_; ++ch) {
      running = std::max(running, delays.delay(dm, ch));
    }
    max_delay_[dm] = static_cast<std::size_t>(running);
  }
}

std::size_t DmShardPlanner::shard_cost(std::size_t first_dm,
                                       std::size_t dms) const {
  DDMC_REQUIRE(dms > 0, "shard needs at least one trial");
  DDMC_REQUIRE(first_dm + dms <= max_delay_.size(),
               "shard exceeds the plan's DM grid");
  return channels_ * (dms * out_samples_ + out_samples_ +
                      max_delay_[first_dm + dms - 1]);
}

ShardLayout DmShardPlanner::partition(std::size_t workers,
                                      std::size_t tile) const {
  const std::size_t n = max_delay_.size();
  // The search runs over whole DM tiles: shards start on multiples of
  // the tile, and only the last one may end on a partial tile.
  const std::size_t g = std::clamp<std::size_t>(tile, 1, n);
  const std::size_t tiles = (n + g - 1) / g;
  const std::size_t target = std::min(std::max<std::size_t>(workers, 1), tiles);
  const auto cost_of = [&](std::size_t first, std::size_t count) {
    return shard_cost(first * g, std::min((first + count) * g, n) - first * g);
  };

  // Every budget tried below is at least the costliest single tile, so a
  // shard of one tile always fits. Cost is monotone in both the tile
  // count and the range end (running-max delays), so the longest shard
  // starting at \p first that fits \p budget binary-searches, and greedy
  // maximal packing is optimal.
  const auto longest_fit = [&](std::size_t first, std::size_t budget) {
    std::size_t lo = 1;
    std::size_t hi = tiles - first;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo + 1) / 2;
      if (cost_of(first, mid) <= budget) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  };
  const auto fits_in_target = [&](std::size_t budget) {
    std::size_t used = 0;
    for (std::size_t first = 0; first < tiles; ++used) {
      if (used == target) return false;
      first += longest_fit(first, budget);
    }
    return true;
  };

  // The min-max budget: the smallest integer cost that packs into target
  // shards. A whole-grid shard always fits one worker.
  std::size_t lo = 0;
  for (std::size_t t = 0; t < tiles; ++t) lo = std::max(lo, cost_of(t, 1));
  std::size_t hi = cost_of(0, tiles);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fits_in_target(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::size_t budget = lo;

  ShardLayout layout;
  for (std::size_t first = 0; first < tiles;) {
    // Leave at least one tile for every remaining worker so the surplus
    // tiles never pile onto a final over-budget shard; the last worker
    // takes whatever is left (≤ budget by the feasibility of `budget`).
    const std::size_t remaining_shards = target - layout.shards.size();
    const std::size_t count =
        remaining_shards == 1
            ? tiles - first
            : std::min(longest_fit(first, budget),
                       tiles - first - (remaining_shards - 1));
    const std::size_t first_dm = first * g;
    const std::size_t dms = std::min((first + count) * g, n) - first_dm;
    const std::size_t cost = shard_cost(first_dm, dms);
    layout.shards.push_back(DmShard{first_dm, dms, cost});
    layout.max_cost = std::max(layout.max_cost, cost);
    layout.total_cost += cost;
    first += count;
  }
  // The greedy pass reserves a tile for every remaining worker and hands
  // the last worker the remainder, so every worker owns exactly one shard.
  DDMC_ENSURE(layout.shards.size() == target,
              "partition must produce one shard per (clamped) worker");
  return layout;
}

// --------------------------------------------------------------- executor --

ShardedDedisperser::ShardedDedisperser(dedisp::Plan plan,
                                       ShardedOptions options)
    : plan_(std::move(plan)), options_(std::move(options)) {
  // Shards × beams are the parallel dimension.
  options_.engine_options.cpu.threads = 1;
  engine_ = engine::make_engine(options_.engine, options_.engine_options);
  DDMC_REQUIRE(engine_->capabilities().supports_sharding,
               "engine '" + options_.engine +
                   "' cannot run DM-sharded execution: its capability "
                   "supports_sharding is false");
  pool_ = std::make_unique<ThreadPool>(options_.workers);
}

void ShardedDedisperser::cut_shards(std::size_t tile) {
  telemetry::TraceSpan span("shard.plan");
  layout_ = DmShardPlanner(plan_).partition(pool_->worker_count(), tile);
  span.arg("shards", layout_.shards.size()).arg("dms", plan_.dms());
  shard_plans_.reserve(layout_.shards.size());
  for (const DmShard& s : layout_.shards) {
    shard_plans_.push_back(plan_.dm_shard(s.first_dm, s.dms));
  }
}

ShardedDedisperser::ShardedDedisperser(dedisp::Plan plan,
                                       engine::EngineConfig config,
                                       ShardedOptions options)
    : ShardedDedisperser(std::move(plan), std::move(options)) {
  engine_->validate_config(plan_, config);
  cut_shards(engine_->dm_tile(plan_, config));
  // Only the engine knows how its axes bend onto a shard's trial count, so
  // adaptation is the engine's call; on tile-aligned shards it keeps
  // \p config.
  shard_configs_.reserve(shard_plans_.size());
  for (const dedisp::Plan& shard : shard_plans_) {
    shard_configs_.push_back(engine_->adapt_config(shard, config));
  }
}

ShardedDedisperser::ShardedDedisperser(dedisp::Plan plan,
                                       tuner::TuningCache& cache,
                                       ShardedOptions options,
                                       tuner::GuidedTuningOptions tuning)
    : ShardedDedisperser(std::move(plan), std::move(options)) {
  // Each shard is tuned on its own plan, so no config fixes a tile yet.
  cut_shards(1);
  if (tuning.engines.empty()) tuning.engines = {options_.engine};
  tuning.engine_options = options_.engine_options;
  tuning.host.vectorize = options_.engine_options.cpu.vectorize;
  tuning.host.threads = options_.engine_options.cpu.threads;
  // Several engines race once on the *full* plan and every shard adopts
  // the winner: per-shard races could crown different engines on different
  // shards, breaking the single-engine bitwise assembly guarantee.
  if (tuning.engines.size() > 1) {
    const tuner::GuidedTuningOutcome race =
        tuner::tune_guided(plan_, cache, tuning);
    if (race.engine_id != options_.engine) {
      auto adopted =
          engine::make_engine(race.engine_id, options_.engine_options);
      DDMC_REQUIRE(adopted->capabilities().supports_sharding,
                   "tuned winner '" + race.engine_id +
                       "' cannot run DM-sharded execution: its capability "
                       "supports_sharding is false");
      options_.engine = race.engine_id;
      engine_ = std::move(adopted);
    }
    tuning.engines = {options_.engine};
  }
  shard_configs_.reserve(shard_plans_.size());
  tuning_outcomes_.reserve(shard_plans_.size());
  for (const dedisp::Plan& shard : shard_plans_) {
    tuner::GuidedTuningOutcome outcome =
        tuner::tune_guided(shard, cache, tuning);
    shard_configs_.push_back(engine_->adapt_config(shard, outcome.config));
    tuning_outcomes_.push_back(std::move(outcome));
  }
}

void ShardedDedisperser::run_batch(
    const std::vector<ConstView2D<float>>& beams,
    const std::vector<View2D<float>>& outs) const {
  const std::size_t shards = shard_plans_.size();
  const std::size_t jobs = beams.size() * shards;
  const resilience::SupervisionPolicy& policy = options_.supervision;

  // The report is mutated live in last_report_ under report_mutex_, which
  // is what makes last_report() safe to poll from a monitoring thread
  // while this call is in flight (a counter bump and a snapshot copy never
  // interleave mid-struct).
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    last_report_ = {};
    last_report_.jobs = jobs;
    last_report_.shards.assign(shards, {});
  }
  auto& registry = telemetry::MetricsRegistry::instance();
  const auto attempts_metric =
      registry.counter("ddmc.shard.attempts_total");
  const auto retries_metric = registry.counter("ddmc.shard.retries_total");
  const auto reassignments_metric =
      registry.counter("ddmc.shard.reassignments_total");
  const auto failures_metric = registry.counter("ddmc.shard.failures_total");
  std::vector<resilience::ShardFailure> failures;
  std::mutex state_mutex;  // guards failures from worker tasks

  /// Output row range a (beam, shard, sub-range) job owns. Rows are only
  /// ever written by the engine call that finally succeeds on exactly that
  /// DM range, which is what keeps every recovery path bitwise identical.
  const auto rows_of = [&](std::size_t beam, std::size_t first_dm,
                           std::size_t dms) {
    const View2D<float>& full = outs[beam];
    return View2D<float>(full.data() + first_dm * full.pitch(), dms,
                         full.cols(), full.pitch());
  };

  /// Execute one engine call with the policy's bounded retry. \p failpoint
  /// distinguishes first-assignment tasks from reacquired sub-shard tasks;
  /// \p shard keys both the failpoint context and the report counters.
  /// Returns the terminal failure, or nullopt on success.
  const auto attempt =
      [&](const char* failpoint, std::size_t beam, std::size_t shard,
          const dedisp::Plan& plan, const engine::EngineConfig& config,
          View2D<float> rows) -> std::optional<resilience::ShardFailure> {
    for (std::size_t attempts = 1;; ++attempts) {
      {
        std::lock_guard<std::mutex> lock(report_mutex_);
        ++last_report_.attempts;
        ++last_report_.shards[shard].attempts;
        if (attempts > 1) {
          ++last_report_.retries;
          ++last_report_.shards[shard].retries;
        }
      }
      attempts_metric->increment();
      if (attempts > 1) {
        retries_metric->increment();
        telemetry::Tracer::instance().record_instant(
            "shard.retry", telemetry::Tracer::now_ns());
      }
      try {
        telemetry::TraceSpan span(failpoint);
        span.arg("shard", shard).arg("beam", beam).arg("attempt", attempts);
        DDMC_FAILPOINT_CTX(failpoint, shard);
        const engine::EngineRun run =
            engine_->execute(plan, config, beams[beam], rows);
        {
          std::lock_guard<std::mutex> lock(report_mutex_);
          traffic_.add(run, plan);
        }
        return std::nullopt;
      } catch (...) {
        const std::exception_ptr error = std::current_exception();
        const resilience::ErrorClass kind = resilience::classify(error);
        if (kind == resilience::ErrorClass::kTransient &&
            attempts < policy.retry.max_attempts) {
          resilience::backoff_sleep(policy.retry, attempts);
          continue;  // a fresh attempt overwrites any partial rows
        }
        resilience::ShardFailure failure;
        failure.beam = beam;
        failure.shard = shard;
        failure.attempts = attempts;
        failure.kind = kind;
        failure.message = resilience::describe(error);
        return failure;
      }
    }
  };

  // Phase 1 — one batched submission: every (beam, shard) job enters the
  // pool queue now; parallel_for is the assembly barrier that completes
  // the matrices (each job fills its shard's row range, so assembly is
  // ordering-free). Jobs record failures instead of throwing, so one dead
  // worker never aborts the other shards' work mid-flight.
  pool_->parallel_for(0, jobs, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      const std::size_t beam = j / shards;
      const std::size_t shard = j % shards;
      const DmShard& range = layout_.shards[shard];
      const auto failure =
          attempt("shard.task", beam, shard, shard_plans_[shard],
                  shard_configs_[shard],
                  rows_of(beam, range.first_dm, range.dms));
      if (failure) {
        std::lock_guard<std::mutex> lock(state_mutex);
        failures.push_back(*failure);
      }
    }
  });

  // Phase 2 — reacquisition: a shard that exhausted its retries on
  // *transient* failures is a dead worker, not a poisoned request, so the
  // surviving workers take over its DM range. The range is re-partitioned
  // by the same DmShardPlanner cost on the same DM tile (on the shard's
  // own plan — a slice of a slice keeps the delay rows bit-for-bit), and
  // the sub-shards run with the same retry budget, one level deep.
  if (policy.reacquire && !failures.empty()) {
    std::vector<resilience::ShardFailure> remaining;
    for (const resilience::ShardFailure& failure : failures) {
      const std::size_t shard = failure.shard;
      if (failure.kind != resilience::ErrorClass::kTransient) {
        remaining.push_back(failure);  // fatal: reassignment cannot help
        continue;
      }
      const DmShard& range = layout_.shards[shard];
      const std::size_t survivors =
          std::max<std::size_t>(pool_->worker_count() - 1, 1);
      const std::size_t splits =
          policy.reacquire_splits > 0 ? policy.reacquire_splits : survivors;
      const ShardLayout sub_layout =
          DmShardPlanner(shard_plans_[shard])
              .partition(splits, engine_->dm_tile(shard_plans_[shard],
                                                   shard_configs_[shard]));
      {
        std::lock_guard<std::mutex> lock(report_mutex_);
        ++last_report_.reassignments;
        ++last_report_.shards[shard].reassignments;
      }
      reassignments_metric->increment();
      std::optional<resilience::ShardFailure> sub_failure;
      pool_->parallel_for(
          0, sub_layout.shards.size(), 1,
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t s = begin; s < end; ++s) {
              const DmShard& sub = sub_layout.shards[s];
              const dedisp::Plan sub_plan =
                  shard_plans_[shard].dm_shard(sub.first_dm, sub.dms);
              const auto f = attempt(
                  "shard.reacquire.task", failure.beam, shard, sub_plan,
                  engine_->adapt_config(sub_plan, shard_configs_[shard]),
                  rows_of(failure.beam, range.first_dm + sub.first_dm,
                          sub.dms));
              if (f) {
                std::lock_guard<std::mutex> lock(state_mutex);
                if (!sub_failure) sub_failure = *f;
              }
            }
          });
      if (sub_failure) {
        sub_failure->message =
            "shard " + std::to_string(shard) + " reacquisition failed: " +
            sub_failure->message + " (original: " + failure.message + ")";
        remaining.push_back(*sub_failure);
      }
    }
    failures = std::move(remaining);
  }

  if (!failures.empty()) {
    std::lock_guard<std::mutex> lock(report_mutex_);
    for (const resilience::ShardFailure& failure : failures) {
      last_report_.shards[failure.shard].failed = true;
    }
  }
  failures_metric->add(static_cast<double>(failures.size()));
  if (!failures.empty()) {
    // Jobs record failures in completion order; report them in job order
    // (beam, then shard) so failures() and what() do not depend on which
    // worker finished first.
    std::sort(failures.begin(), failures.end(),
              [](const resilience::ShardFailure& a,
                 const resilience::ShardFailure& b) {
                return std::tie(a.beam, a.shard) < std::tie(b.beam, b.shard);
              });
    throw resilience::ShardExecutionError(std::move(failures));
  }
}

resilience::ShardExecutionReport ShardedDedisperser::last_report() const {
  std::lock_guard<std::mutex> lock(report_mutex_);
  return last_report_;
}

engine::SessionTraffic ShardedDedisperser::telemetry() const {
  std::lock_guard<std::mutex> lock(report_mutex_);
  return traffic_;
}

void ShardedDedisperser::dedisperse(ConstView2D<float> input,
                                    View2D<float> out) const {
  DDMC_REQUIRE(out.rows() == plan_.dms(), "output rows != trial DMs");
  DDMC_REQUIRE(out.cols() >= plan_.out_samples(), "output too short");
  // Caller-side shape misuse fails synchronously; only *worker* failures
  // enter the supervision machinery (retry/reacquire/aggregate).
  DDMC_REQUIRE(input.rows() == plan_.channels(), "input rows != plan channels");
  DDMC_REQUIRE(input.cols() >= plan_.in_samples(),
               "input holds too few samples for the plan");
  run_batch({input}, {out});
}

Array2D<float> ShardedDedisperser::dedisperse(ConstView2D<float> input) const {
  Array2D<float> out(plan_.dms(), plan_.out_samples());
  dedisperse(input, out.view());
  return out;
}

std::vector<Array2D<float>> ShardedDedisperser::dedisperse_batch(
    const std::vector<ConstView2D<float>>& beams) const {
  DDMC_REQUIRE(!beams.empty(), "need at least one beam");
  for (std::size_t b = 0; b < beams.size(); ++b) {
    DDMC_REQUIRE(beams[b].rows() == plan_.channels(),
                 "beam " + std::to_string(b) + " rows != plan channels");
    DDMC_REQUIRE(beams[b].cols() >= plan_.in_samples(),
                 "beam " + std::to_string(b) +
                     " holds too few samples for the plan");
  }
  std::vector<Array2D<float>> outputs;
  std::vector<View2D<float>> views;
  outputs.reserve(beams.size());
  views.reserve(beams.size());
  for (std::size_t b = 0; b < beams.size(); ++b) {
    outputs.emplace_back(plan_.dms(), plan_.out_samples());
    views.push_back(outputs.back().view());
  }
  run_batch(beams, views);
  return outputs;
}

}  // namespace ddmc::pipeline
