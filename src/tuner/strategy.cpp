#include "tuner/strategy.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/expect.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "engine/registry.hpp"

namespace ddmc::tuner {

namespace {

/// Fill best/stats/chebyshev from the completed timings. The winner is the
/// lowest *measured seconds* (a non-positive seconds — possible only in
/// synthetic evaluators — never wins); the GFLOP/s statistics stay for the
/// paper's population analysis. A pruned search may have completed
/// nothing; its best is set by the caller.
void finalize(StrategyResult& result) {
  if (result.pruned && result.timings.empty()) return;
  DDMC_ENSURE(!result.timings.empty(), "search measured no configuration");
  const auto rank = [](const ConfigTiming& t) {
    return t.seconds > 0.0 ? t.seconds
                           : std::numeric_limits<double>::infinity();
  };
  RunningStats stats;
  const ConfigTiming* best = &result.timings.front();
  for (const ConfigTiming& t : result.timings) {
    stats.add(t.gflops);
    if (rank(t) < rank(*best)) best = &t;
  }
  result.best = *best;
  result.stats.count = stats.count();
  result.stats.mean = stats.mean();
  result.stats.stddev = stats.stddev();
  result.stats.min = stats.min();
  result.stats.max = stats.max();
  result.stats.snr_of_max =
      snr(result.stats.max, result.stats.mean, result.stats.stddev);
  result.chebyshev_p = chebyshev_bound(result.stats.snr_of_max);
}

ConfigTiming to_timing(const dedisp::Plan& plan,
                       const engine::EngineConfig& config, double seconds) {
  ConfigTiming t;
  t.config = config;
  t.seconds = seconds;
  t.gflops = plan.total_flop() / seconds * 1e-9;
  return t;
}

}  // namespace

// ------------------------------------------------------------- evaluator --

namespace {

/// The engine the single-plan constructor measures: the tiled host kernel
/// under the caller's host-execution flags.
std::shared_ptr<const engine::DedispEngine> default_tuning_engine(
    const HostTuningOptions& options) {
  engine::EngineOptions engine_options;
  engine_options.cpu.vectorize = options.vectorize;
  engine_options.cpu.threads = options.threads;
  return engine::make_engine(engine::kDefaultEngineId, engine_options);
}

}  // namespace

HostKernelEvaluator::HostKernelEvaluator(const dedisp::Plan& plan,
                                         const HostTuningOptions& options,
                                         std::uint64_t seed)
    : HostKernelEvaluator(default_tuning_engine(options), plan, options,
                          seed) {}

HostKernelEvaluator::HostKernelEvaluator(
    std::shared_ptr<const engine::DedispEngine> engine,
    const dedisp::Plan& plan, const HostTuningOptions& options,
    std::uint64_t seed)
    : engine_(std::move(engine)),
      plan_(plan),
      options_(options),
      input_(plan.channels(),
             plan.in_samples() + engine_->capabilities().input_padding),
      output_(plan.dms(), plan.out_samples()) {
  DDMC_REQUIRE(options_.repetitions > 0, "need at least one timed run");
  Rng rng(seed);
  for (std::size_t ch = 0; ch < input_.rows(); ++ch) {
    for (auto& v : input_.row(ch)) v = rng.next_float(-1.0f, 1.0f);
  }
}

ConfigEvaluator::Measurement HostKernelEvaluator::measure(
    const engine::EngineConfig& config, double incumbent_seconds) {
  ++measurements_;
  for (std::size_t i = 0; i < options_.warmup_runs; ++i) {
    ++calls_;
    engine_->execute(plan_, config, input_.cview(), output_.view());
  }
  Measurement m;
  double total = 0.0;
  const auto reps = static_cast<double>(options_.repetitions);
  for (std::size_t i = 0; i < options_.repetitions; ++i) {
    ++calls_;
    Stopwatch clock;
    engine_->execute(plan_, config, input_.cview(), output_.view());
    total += clock.seconds();
    ++m.repetitions;
    // Even if every remaining repetition took zero time, the mean over the
    // full repetition count would already exceed the incumbent: this config
    // cannot win, stop burning time on it.
    if (total / reps > incumbent_seconds &&
        m.repetitions < options_.repetitions) {
      m.aborted = true;
      break;
    }
  }
  m.seconds = total / static_cast<double>(m.repetitions);
  m.lower_bound_seconds = m.aborted ? total / reps : m.seconds;
  return m;
}

std::string HostKernelEvaluator::key(const engine::EngineConfig& config) {
  return engine_->config_key(plan_, config);
}

// ------------------------------------------------------------ exhaustive --

StrategyResult ExhaustiveSearch::search_impl(
    const dedisp::Plan& plan, const std::vector<engine::AxisSpec>& axes,
    const std::vector<engine::EngineConfig>& candidates,
    ConfigEvaluator& evaluator, double race_bound) const {
  (void)axes;
  (void)race_bound;  // the full population is the point of this strategy
  DDMC_REQUIRE(!candidates.empty(), "no candidate configurations");
  StrategyResult result;
  result.candidates = candidates.size();
  result.timings.reserve(candidates.size());
  for (const engine::EngineConfig& cfg : candidates) {
    const auto m = evaluator.measure(cfg, ConfigEvaluator::kNoIncumbent);
    ++result.evaluated;
    result.timings.push_back(to_timing(plan, cfg, m.seconds));
  }
  finalize(result);
  return result;
}

// ---------------------------------------------------------------- random --

StrategyResult RandomSearch::search_impl(
    const dedisp::Plan& plan, const std::vector<engine::AxisSpec>& axes,
    const std::vector<engine::EngineConfig>& candidates,
    ConfigEvaluator& evaluator, double race_bound) const {
  (void)axes;
  (void)race_bound;  // the sampled population feeds the Chebyshev bound
  DDMC_REQUIRE(!candidates.empty(), "no candidate configurations");
  DDMC_REQUIRE(samples_ > 0, "RandomSearch needs at least one sample");
  StrategyResult result;
  result.candidates = candidates.size();

  // Partial Fisher–Yates: the first n slots of `order` become a uniform
  // sample without replacement, deterministically from the seed.
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed_);
  const std::size_t n = std::min(samples_, candidates.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.next_below(order.size() - i));
    std::swap(order[i], order[j]);
  }

  result.timings.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const engine::EngineConfig& cfg = candidates[order[i]];
    const auto m = evaluator.measure(cfg, ConfigEvaluator::kNoIncumbent);
    ++result.evaluated;
    result.timings.push_back(to_timing(plan, cfg, m.seconds));
  }
  finalize(result);
  return result;
}

// --------------------------------------------------- coordinate descent --

std::optional<std::size_t> CoordinateDescent::first_probe(
    const std::vector<engine::EngineConfig>& candidates) const {
  if (candidates.empty()) return std::nullopt;
  Rng rng(seed_);
  return static_cast<std::size_t>(rng.next_below(candidates.size()));
}

StrategyResult CoordinateDescent::search_impl(
    const dedisp::Plan& plan, const std::vector<engine::AxisSpec>& axes,
    const std::vector<engine::EngineConfig>& candidates,
    ConfigEvaluator& evaluator, double race_bound) const {
  DDMC_REQUIRE(!candidates.empty(), "no candidate configurations");
  StrategyResult result;
  result.candidates = candidates.size();

  // Membership is by the evaluator's dedup key (the engine's config_key),
  // so an axis move that lands on a config whose execution we already
  // measured under a different encoding resolves to that measurement
  // instead of a duplicate timing.
  std::map<std::string, std::size_t> by_key;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    by_key.emplace(evaluator.key(candidates[i]), i);
  }

  // Per-axis ladders: the engine's declared values, extended with any
  // value the candidate list actually uses (caller-supplied candidates
  // may sit off the declared ladder).
  std::vector<std::vector<std::int64_t>> ladders(axes.size());
  for (std::size_t a = 0; a < axes.size(); ++a) {
    std::set<std::int64_t> values(axes[a].values.begin(),
                                  axes[a].values.end());
    for (const engine::EngineConfig& cfg : candidates) {
      values.insert(cfg.get(axes[a].name, axes[a].default_value));
    }
    ladders[a].assign(values.begin(), values.end());
  }

  // Memo: candidate index -> last measurement, so no execution is timed
  // twice — unless an earlier early-abort proved too little. An aborted
  // entry only records a *floor* on the true mean; when a later restart
  // asks whether the config beats a threshold above that floor, the
  // question is genuinely open and the config is re-measured against the
  // new threshold.
  struct Memoized {
    double seconds = 0.0;
    double lower_bound = 0.0;
    bool aborted = false;
  };
  std::map<std::size_t, Memoized> memo;

  // Measure candidate i against \p threshold (the current point of the
  // descent asking the question).
  auto measure_index = [&](std::size_t i, double threshold) -> Memoized {
    auto it = memo.find(i);
    if (it != memo.end() &&
        (!it->second.aborted || it->second.lower_bound >= threshold)) {
      return it->second;
    }
    const auto m = evaluator.measure(candidates[i], threshold);
    ++result.evaluated;
    if (it != memo.end()) --result.evaluated;  // re-measure, not a new config
    Memoized entry{m.seconds, m.lower_bound_seconds, m.aborted};
    if (m.aborted) {
      if (it == memo.end()) ++result.aborted;
    } else {
      if (it != memo.end() && it->second.aborted) --result.aborted;
      result.timings.push_back(to_timing(plan, candidates[i], m.seconds));
    }
    memo.insert_or_assign(i, entry);
    return entry;
  };

  // One hill-climb from the best of `probes` fresh seeded probes; restarts
  // rerun it to escape local optima, sharing rng, memo and stats. The race
  // bound is the incumbent every descent starts from: only a config that
  // completes under it becomes a point, so with no bound (infinity) the
  // first probe always does.
  Rng rng(seed_);
  std::size_t best_index = candidates.size();
  double best_seconds = race_bound;
  const std::size_t probes =
      std::max<std::size_t>(1, std::min(probes_, candidates.size()));

  auto descend_once = [&] {
    std::size_t cur = candidates.size();
    double cur_seconds = race_bound;
    std::size_t floor_index = 0;
    double floor = ConfigEvaluator::kNoIncumbent;
    for (std::size_t p = 0; p < probes; ++p) {
      const auto i =
          static_cast<std::size_t>(rng.next_below(candidates.size()));
      const Memoized m = measure_index(i, cur_seconds);
      if (!m.aborted && m.seconds < cur_seconds) {
        cur = i;
        cur_seconds = m.seconds;
      }
      if (m.lower_bound < floor) {
        floor_index = i;
        floor = m.lower_bound;
      }
    }
    // No probe got under the race bound: climb from the most promising
    // one. The bound stays the point's time, so the first round below
    // either moves onto a config under it or ends the descent.
    if (cur == candidates.size()) cur = floor_index;

    // Cycle the axes; line-search each along its ladder while improving.
    for (std::size_t round = 0; round < max_rounds_; ++round) {
      bool improved = false;
      for (std::size_t a = 0; a < axes.size(); ++a) {
        const std::vector<std::int64_t>& ladder = ladders[a];
        if (ladder.size() < 2) continue;
        for (int dir : {+1, -1}) {
          bool moved = true;
          while (moved) {
            moved = false;
            const std::int64_t cur_value =
                candidates[cur].get(axes[a].name, axes[a].default_value);
            const auto pos = static_cast<std::size_t>(
                std::lower_bound(ladder.begin(), ladder.end(), cur_value) -
                ladder.begin());
            // Step outward along the ladder until a value yields a valid
            // candidate (intermediate values may be invalid for this plan
            // with the other axes fixed).
            for (std::size_t step = 1;; ++step) {
              const std::ptrdiff_t j =
                  static_cast<std::ptrdiff_t>(pos) +
                  dir * static_cast<std::ptrdiff_t>(step);
              if (j < 0 || j >= static_cast<std::ptrdiff_t>(ladder.size())) {
                break;
              }
              engine::EngineConfig neighbor = candidates[cur];
              neighbor.set(axes[a].name,
                           ladder[static_cast<std::size_t>(j)]);
              const auto it = by_key.find(evaluator.key(neighbor));
              if (it == by_key.end()) continue;  // invalid; keep stepping
              const Memoized m = measure_index(it->second, cur_seconds);
              if (!m.aborted && m.seconds < cur_seconds) {
                cur = it->second;
                cur_seconds = m.seconds;
                improved = true;
                moved = true;  // keep walking this direction from here
              }
              break;  // measured (or rejected) the nearest valid neighbor
            }
          }
        }
      }
      if (!improved) break;
    }
    if (cur_seconds < best_seconds) {
      best_index = cur;
      best_seconds = cur_seconds;
    }
  };

  for (std::size_t start = 0; start < 1 + restarts_; ++start) {
    descend_once();
    // A first descent that got nothing under the race bound prunes the
    // entrant: restarts would only time more configs that cannot win.
    if (best_index == candidates.size()) break;
  }
  result.pruned = best_index == candidates.size();
  DDMC_ENSURE(!result.pruned || race_bound < ConfigEvaluator::kNoIncumbent,
              "coordinate descent failed to measure a starting point");

  finalize(result);
  if (result.pruned) {
    const auto lowest = std::min_element(
        memo.begin(), memo.end(), [](const auto& a, const auto& b) {
          return a.second.lower_bound < b.second.lower_bound;
        });
    result.best = to_timing(plan, candidates[lowest->first],
                            lowest->second.lower_bound);
  }
  return result;
}

std::unique_ptr<SearchStrategy> make_strategy(StrategyKind kind,
                                              std::size_t random_samples,
                                              std::uint64_t seed) {
  switch (kind) {
    case StrategyKind::kExhaustive:
      return std::make_unique<ExhaustiveSearch>();
    case StrategyKind::kRandom:
      return std::make_unique<RandomSearch>(random_samples, seed);
    case StrategyKind::kCoordinateDescent:
      return std::make_unique<CoordinateDescent>(seed);
  }
  throw invalid_argument("unknown strategy kind");
}

}  // namespace ddmc::tuner
