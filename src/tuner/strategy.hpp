#pragma once
/// \file strategy.hpp
/// \brief Guided search strategies over the measured configuration space.
///
/// The paper's method is exhaustive: every meaningful configuration is
/// timed and the fastest kept (§IV-A). That is minutes of CPU time for a
/// full host sweep — too slow for a streaming session that wants to
/// self-tune at startup. Sclocco et al.'s follow-up work and Novotný et
/// al. both observe that the optima live in a small structured region of
/// the space, so a guided search recovers a near-optimal configuration at
/// a fraction of the sweep cost. This module separates the two concerns:
///
///  - a ConfigEvaluator measures one configuration (the real
///    HostKernelEvaluator times a DedispEngine; tests plug in
///    deterministic synthetic evaluators);
///  - a SearchStrategy decides *which* configurations to measure:
///    ExhaustiveSearch (the paper's method), RandomSearch (N sampled
///    configs, quality bounded via Chebyshev over the sampled population)
///    and CoordinateDescent (hill-climb each declared axis with
///    early-abort repetitions that stop timing a config as soon as its
///    partial mean proves it cannot beat the incumbent).
///
/// A search may run as one entrant of an engine race (tune_guided,
/// tuning_cache.hpp). The race passes its best completed seconds so far as
/// a *race bound*: CoordinateDescent aborts every measurement against
/// min(current point, race bound) and gives up on an entrant that cannot
/// get under the bound (StrategyResult::pruned). ExhaustiveSearch and
/// RandomSearch ignore the bound and keep their full populations.
///
/// Strategies are engine-agnostic: they walk whatever axes the engine
/// declares (engine::AxisSpec) over whatever candidates it enumerates, and
/// rank by *measured seconds* — the only scale on which configurations of
/// different engines are comparable. GFLOP/s is derived for display.
///
/// Strategies measure each distinct execution at most once: membership and
/// memoization are keyed by ConfigEvaluator::key(), which the real
/// evaluator delegates to the engine's config_key() — so axis moves that
/// collapse onto an already-measured execution are free.

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/array2d.hpp"
#include "common/statistics.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/plan.hpp"
#include "engine/engine_config.hpp"

namespace ddmc::engine {
class DedispEngine;
}  // namespace ddmc::engine

namespace ddmc::tuner {

/// How a HostKernelEvaluator measures (repetitions and warm-up runs per
/// config) and the host-execution flags of the engine it builds when none
/// is given.
struct HostTuningOptions {
  std::size_t repetitions = 3;   ///< timed runs per configuration (paper: 10)
  std::size_t warmup_runs = 1;   ///< untimed cache-warming runs
  bool vectorize = true;         ///< SIMD engine; false sweeps the scalar loop
  std::size_t threads = 0;       ///< 0 = machine-sized pool
};

/// Measurement backend: times one configuration on one plan.
class ConfigEvaluator {
 public:
  struct Measurement {
    /// Mean seconds over the *completed* repetitions. When aborted, this is
    /// an optimistic estimate of a config already proven slower than the
    /// incumbent, not a final figure.
    double seconds = 0.0;
    /// Proven floor on the true mean: equal to `seconds` for a completed
    /// measurement; for an aborted one, the partial total divided by the
    /// full repetition count (the bound that triggered the abort). A
    /// config whose floor exceeds a threshold can be rejected against that
    /// threshold without re-measuring.
    double lower_bound_seconds = 0.0;
    std::size_t repetitions = 0;  ///< repetitions actually timed
    bool aborted = false;         ///< stopped early against the incumbent
  };

  virtual ~ConfigEvaluator() = default;

  /// Measure \p config. \p incumbent_seconds is the best mean seen so far
  /// (infinity disables early abort): implementations may stop timing once
  /// the repetitions already spent prove the mean over the full repetition
  /// count must exceed the incumbent.
  virtual Measurement measure(const engine::EngineConfig& config,
                              double incumbent_seconds) = 0;

  /// Deduplication key of \p config: two configs with equal keys run the
  /// identical execution, so strategies time only one of them. The real
  /// evaluator delegates to the engine's config_key().
  virtual std::string key(const engine::EngineConfig& config) {
    return config.encode();
  }

  static constexpr double kNoIncumbent =
      std::numeric_limits<double>::infinity();
};

/// The real evaluator: wall-clock timing of a DedispEngine, one shared
/// deterministic input/output pair for the whole search (exactly the
/// measurement loop of the paper's method). The input is sized for the
/// engine's declared input_padding, and GFLOP/s is always credited on
/// plan.total_flop(), so measurements of *different* engines on one plan
/// rank them by wall time.
class HostKernelEvaluator : public ConfigEvaluator {
 public:
  /// Measure the default tiled host engine under \p options.
  HostKernelEvaluator(const dedisp::Plan& plan,
                      const HostTuningOptions& options,
                      std::uint64_t seed = 42);

  /// Measure \p engine (any registry engine).
  HostKernelEvaluator(std::shared_ptr<const engine::DedispEngine> engine,
                      const dedisp::Plan& plan,
                      const HostTuningOptions& options,
                      std::uint64_t seed = 42);

  Measurement measure(const engine::EngineConfig& config,
                      double incumbent_seconds) override;

  std::string key(const engine::EngineConfig& config) override;

  std::size_t measurements() const { return measurements_; }
  /// Engine calls made so far, warm-ups included: what the measurements
  /// cost.
  std::size_t calls() const { return calls_; }

 private:
  std::shared_ptr<const engine::DedispEngine> engine_;
  const dedisp::Plan& plan_;
  HostTuningOptions options_;
  Array2D<float> input_;
  Array2D<float> output_;
  std::size_t measurements_ = 0;
  std::size_t calls_ = 0;
};

/// One completed measurement: an engine-native config and its timing.
struct ConfigTiming {
  engine::EngineConfig config;
  double seconds = 0.0;  ///< mean of the timed repetitions
  double gflops = 0.0;   ///< paper metric on the mean time (display only)
};

/// Outcome of one strategy run over one candidate space.
struct StrategyResult {
  /// The candidate with the lowest measured seconds — *wall time*, not
  /// GFLOP/s, decides: on one plan the two rank identically within one
  /// engine, but seconds is the scale that stays comparable across
  /// engines (and across differently-credited cache entries).
  ConfigTiming best;
  std::size_t candidates = 0;  ///< size of the (deduplicated) search space
  std::size_t evaluated = 0;   ///< distinct configs timed (incl. aborted)
  std::size_t aborted = 0;     ///< of which stopped by early abort
  StatsSummary stats;          ///< over GFLOP/s of the completed timings
  std::vector<ConfigTiming> timings;  ///< completed measurements only
  /// Chebyshev upper bound on the probability that a uniformly guessed
  /// configuration performs at least as far above the population mean as
  /// the found optimum (the paper's guessing argument, §IV-C).
  double chebyshev_p = 1.0;
  /// Nothing completed under the race bound: the entrant cannot win the
  /// race. `best` is then the measured config with the lowest proven floor,
  /// its seconds that floor — a lower bound, not a tuned optimum.
  bool pruned = false;
};

/// A search policy over a fixed candidate list. \p axes is the engine's
/// declared parameterization (CoordinateDescent walks their ladders;
/// space-sampling strategies ignore it). Candidates must already be valid
/// for the plan and deduplicated (engines enumerate them so); strategies
/// never re-measure a configuration they have seen.
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;
  virtual std::string name() const = 0;

  /// Search \p candidates. \p race_bound is the best seconds another race
  /// entrant already completed (infinity outside a race); strategies that
  /// honour it stop as soon as they prove this engine cannot beat it.
  StrategyResult search(
      const dedisp::Plan& plan, const std::vector<engine::AxisSpec>& axes,
      const std::vector<engine::EngineConfig>& candidates,
      ConfigEvaluator& evaluator,
      double race_bound = ConfigEvaluator::kNoIncumbent) const {
    return search_impl(plan, axes, candidates, evaluator, race_bound);
  }

  /// Index into \p candidates of the config this strategy measures first.
  /// A race times one call of it per entrant and searches the fastest
  /// first, so the bound is tight early. nullopt for strategies that ignore
  /// the race bound: their order cannot save them anything.
  virtual std::optional<std::size_t> first_probe(
      const std::vector<engine::EngineConfig>& candidates) const {
    (void)candidates;
    return std::nullopt;
  }

 protected:
  virtual StrategyResult search_impl(
      const dedisp::Plan& plan, const std::vector<engine::AxisSpec>& axes,
      const std::vector<engine::EngineConfig>& candidates,
      ConfigEvaluator& evaluator, double race_bound) const = 0;
};

/// The paper's method: measure every candidate, keep the fastest. Retains
/// the full population (histograms, SNR-of-optimum, Chebyshev).
class ExhaustiveSearch : public SearchStrategy {
 public:
  std::string name() const override { return "exhaustive"; }

 protected:
  StrategyResult search_impl(
      const dedisp::Plan& plan, const std::vector<engine::AxisSpec>& axes,
      const std::vector<engine::EngineConfig>& candidates,
      ConfigEvaluator& evaluator, double race_bound) const override;
};

/// Measure \p samples candidates drawn uniformly without replacement
/// (seeded, deterministic). The sampled population's statistics bound the
/// chance that an unseen configuration beats the sampled optimum by the
/// same margin (StrategyResult::chebyshev_p).
class RandomSearch : public SearchStrategy {
 public:
  explicit RandomSearch(std::size_t samples, std::uint64_t seed = 42)
      : samples_(samples), seed_(seed) {}

  std::string name() const override { return "random"; }

 protected:
  StrategyResult search_impl(
      const dedisp::Plan& plan, const std::vector<engine::AxisSpec>& axes,
      const std::vector<engine::EngineConfig>& candidates,
      ConfigEvaluator& evaluator, double race_bound) const override;

 private:
  std::size_t samples_;
  std::uint64_t seed_;
};

/// Hill-climb each declared axis in turn: from the best of `probes` seeded
/// random probes of the space, line-search every axis along its ladder of
/// values, moving while the measured time improves, until a full round
/// over all axes finds nothing better. Every measurement passes
/// min(current point, race bound) to the evaluator as the abort threshold
/// (infinity until a lone search has a point), so hopeless configs are
/// abandoned after a partial repetition count (early abort). `restarts` additional descents from fresh seeded
/// probes escape local optima; all restarts share the measurement memo, so
/// re-entering an explored basin costs nothing.
///
/// Against a finite race bound a config must complete *under the bound* to
/// become a point of the descent. When no probe does, the descent climbs
/// one axis round from the probe with the lowest proven floor; when that
/// round completes nothing under the bound either, the search stops,
/// skips its restarts and reports the entrant as pruned. With no bound the
/// measurement sequence is that of a lone search.
class CoordinateDescent : public SearchStrategy {
 public:
  explicit CoordinateDescent(std::uint64_t seed = 42,
                             std::size_t probes = 6,
                             std::size_t max_rounds = 16,
                             std::size_t restarts = 2)
      : seed_(seed),
        probes_(probes),
        max_rounds_(max_rounds),
        restarts_(restarts) {}

  std::string name() const override { return "coordinate-descent"; }

  /// The first of the seeded probes.
  std::optional<std::size_t> first_probe(
      const std::vector<engine::EngineConfig>& candidates) const override;

 protected:
  StrategyResult search_impl(
      const dedisp::Plan& plan, const std::vector<engine::AxisSpec>& axes,
      const std::vector<engine::EngineConfig>& candidates,
      ConfigEvaluator& evaluator, double race_bound) const override;

 private:
  std::uint64_t seed_;
  std::size_t probes_;
  std::size_t max_rounds_;
  std::size_t restarts_;
};

/// Factory used by the cache-guided entry point and the strategy bench.
enum class StrategyKind { kExhaustive, kRandom, kCoordinateDescent };

std::unique_ptr<SearchStrategy> make_strategy(StrategyKind kind,
                                              std::size_t random_samples = 64,
                                              std::uint64_t seed = 42);

}  // namespace ddmc::tuner
