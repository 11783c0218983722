#include "tuner/tuning_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <random>
#include <sstream>
#include <tuple>

#include "common/expect.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "engine/registry.hpp"
#include "resilience/error.hpp"
#include "resilience/fault_injection.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"
#include "tuner/results_io.hpp"

namespace ddmc::tuner {

namespace {

std::string format_double(double v) {
  std::ostringstream ss;
  ss.precision(17);
  ss << v;
  return ss.str();
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream ss(text);
  while (std::getline(ss, part, sep)) parts.push_back(part);
  return parts;
}

/// "key=value" field accessor over parts[1..] — parts[0] is the free-form
/// observation name and must never be mistaken for a key, even when it
/// happens to look like one (e.g. an observation named "ch=12").
std::optional<std::string> field(const std::vector<std::string>& parts,
                                 const std::string& key) {
  for (std::size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].rfind(key + "=", 0) == 0) {
      return parts[i].substr(key.size() + 1);
    }
  }
  return std::nullopt;
}

/// The observation name is free-form user input headed for two layered
/// text formats: the '|'-delimited signature inside a comma-delimited
/// results_io CSV cell. Map every delimiter to '_' so no name can corrupt
/// a cache file the library itself writes. (Lossy, but the name is
/// informational — the numeric fields are the key.)
std::string sanitize_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ',' || c == '|' || c == '\n' || c == '\r') c = '_';
  }
  if (out.empty()) out = "_";  // decode treats an empty name as malformed
  return out;
}

std::optional<double> parse_double_opt(const std::string& s) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<std::size_t> parse_size_opt(const std::string& s) {
  const auto v = parse_double_opt(s);
  if (!v || *v < 0.0) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

/// Log of a positive ratio; zero-vs-zero counts as equal, zero-vs-nonzero
/// as a large move (a plan with no DM spread is genuinely far from one
/// with thousands of trials).
double log_ratio(double a, double b) {
  constexpr double kEps = 1e-9;
  return std::log(std::max(a, kEps) / std::max(b, kEps));
}

ResultRow to_result_row(const CacheEntry& entry) {
  ResultRow row;
  row.device = entry.host.encode();
  row.observation = entry.plan.encode();
  row.dms = entry.plan.dms;
  row.config = entry.config;
  row.gflops = entry.gflops;
  row.seconds = entry.seconds;
  row.snr = 0.0;
  row.evaluated = entry.evaluated;
  row.pruned = entry.pruned;
  return row;
}

CacheEntry from_result_row(const ResultRow& row, const std::string& path) {
  const auto host = HostSignature::decode(row.device);
  const auto plan = PlanSignature::decode(row.observation);
  DDMC_REQUIRE(host.has_value() && plan.has_value(),
               "tuning cache '" + path +
                   "' row is not a cache signature (device='" + row.device +
                   "', observation='" + row.observation +
                   "'); this looks like a plain results file");
  CacheEntry entry;
  entry.host = *host;
  entry.plan = *plan;
  entry.config = row.config;
  entry.gflops = row.gflops;
  entry.seconds = row.seconds;
  entry.evaluated = row.evaluated;
  entry.pruned = row.pruned;
  return entry;
}

}  // namespace

// ------------------------------------------------------------ signatures --

HostSignature HostSignature::of(const engine::DedispEngine& engine) {
  HostSignature sig;
  sig.engine_id = engine.id();
  sig.variant = engine.variant();
  sig.threads = engine.options().cpu.threads;
  sig.epoch = engine.capabilities().epoch;
  return sig;
}

HostSignature HostSignature::of(const dedisp::CpuKernelOptions& options) {
  engine::EngineOptions engine_options;
  engine_options.cpu = options;
  return of(*engine::make_engine(engine::kDefaultEngineId, engine_options));
}

std::string HostSignature::encode() const {
  return engine_id + "|" + variant + "|t" + std::to_string(threads) +
         "|staged" + (epoch > 0 ? "|e" + std::to_string(epoch) : "");
}

std::optional<HostSignature> HostSignature::decode(const std::string& text) {
  auto parts = split(text, '|');
  // An epoch part is last and only follows the engine-axis form.
  std::size_t epoch = 0;
  if (parts.size() == 5) {
    if (parts[4].size() < 2 || parts[4][0] != 'e') return std::nullopt;
    const auto e = parse_size_opt(parts[4].substr(1));
    if (!e) return std::nullopt;
    epoch = *e;
    parts.pop_back();
  }
  // Legacy three-part form ("variant|tN|staged") predates the engine axis:
  // everything it describes ran the tiled host engine.
  if (parts.size() != 3 && parts.size() != 4) return std::nullopt;
  const std::size_t base = parts.size() - 3;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].empty()) return std::nullopt;
  }
  if (parts[base + 1].size() < 2 || parts[base + 1][0] != 't') {
    return std::nullopt;
  }
  const auto threads = parse_size_opt(parts[base + 1].substr(1));
  if (!threads) return std::nullopt;
  if (parts[base + 2] != "staged" && parts[base + 2] != "direct") {
    return std::nullopt;
  }
  HostSignature sig;
  sig.engine_id = base == 1 ? parts[0] : std::string(engine::kDefaultEngineId);
  sig.variant = parts[base];
  // A direct row timed a kernel that never staged: no engine runs it now.
  if (parts[base + 2] == "direct") sig.variant += "~direct";
  sig.threads = *threads;
  sig.epoch = epoch;
  return sig;
}

PlanSignature PlanSignature::of(const dedisp::Plan& plan) {
  const sky::Observation& obs = plan.observation();
  PlanSignature sig;
  sig.observation = sanitize_name(obs.name());
  sig.channels = plan.channels();
  sig.out_samples = plan.out_samples();
  sig.dms = plan.dms();
  sig.sampling_rate = obs.sampling_rate();
  sig.dm_first = obs.dm_first();
  sig.dm_step = obs.dm_step();
  return sig;
}

std::string PlanSignature::encode() const {
  return sanitize_name(observation) + "|ch=" + std::to_string(channels) +
         "|sps=" + format_double(sampling_rate) +
         "|out=" + std::to_string(out_samples) +
         "|dms=" + std::to_string(dms) + "|dm0=" + format_double(dm_first) +
         "|ddm=" + format_double(dm_step);
}

std::optional<PlanSignature> PlanSignature::decode(const std::string& text) {
  const auto parts = split(text, '|');
  if (parts.size() != 7 || parts[0].empty()) return std::nullopt;
  const auto ch = field(parts, "ch");
  const auto sps = field(parts, "sps");
  const auto out = field(parts, "out");
  const auto dms_field = field(parts, "dms");
  const auto dm0 = field(parts, "dm0");
  const auto ddm = field(parts, "ddm");
  if (!ch || !sps || !out || !dms_field || !dm0 || !ddm) return std::nullopt;
  PlanSignature sig;
  sig.observation = parts[0];
  const auto channels = parse_size_opt(*ch);
  const auto rate = parse_double_opt(*sps);
  const auto out_samples = parse_size_opt(*out);
  const auto dms = parse_size_opt(*dms_field);
  const auto dm_first = parse_double_opt(*dm0);
  const auto dm_step = parse_double_opt(*ddm);
  if (!channels || !rate || !out_samples || !dms || !dm_first || !dm_step) {
    return std::nullopt;
  }
  sig.channels = *channels;
  sig.sampling_rate = *rate;
  sig.out_samples = *out_samples;
  sig.dms = *dms;
  sig.dm_first = *dm_first;
  sig.dm_step = *dm_step;
  return sig;
}

double plan_distance(const PlanSignature& a, const PlanSignature& b) {
  const double d_ch =
      log_ratio(static_cast<double>(a.channels), static_cast<double>(b.channels));
  const double d_sps = log_ratio(a.sampling_rate, b.sampling_rate);
  const double d_out = log_ratio(static_cast<double>(a.out_samples),
                                 static_cast<double>(b.out_samples));
  const double d_dms =
      log_ratio(static_cast<double>(a.dms), static_cast<double>(b.dms));
  // The DM *span* (step × trials) sets the delay spread, which is what the
  // kernel's memory behaviour actually feels.
  const double d_span = log_ratio(a.dm_step * static_cast<double>(a.dms),
                                  b.dm_step * static_cast<double>(b.dms));
  return d_ch * d_ch + d_sps * d_sps + d_out * d_out + d_dms * d_dms +
         d_span * d_span;
}

// ----------------------------------------------------------------- cache --

TuningCache::TuningCache(std::string path) : path_(std::move(path)) {
  DDMC_REQUIRE(!path_.empty(), "file-backed cache needs a path");
  load();
}

void TuningCache::load() {
  std::ifstream is(path_);
  if (!is.good() || is.peek() == std::ifstream::traits_type::eof()) {
    return;  // missing or empty file: empty cache
  }
  // A corrupt or partially-written cache must never stop a tuned run from
  // starting: the cache is an optimization, and every entry is recomputable
  // by measurement. Quarantine the damaged file aside (so the evidence
  // survives for diagnosis and the next save() cannot be blocked by it),
  // warn, and start empty.
  std::vector<CacheEntry> loaded;
  try {
    DDMC_FAILPOINT("tuning_cache.load");
    for (const ResultRow& row : load_results(is)) {
      loaded.push_back(from_result_row(row, path_));
    }
  } catch (const std::exception& e) {
    is.close();  // release the handle before renaming the file
    const std::string quarantine = path_ + ".quarantined";
    std::string disposition = "quarantined to '" + quarantine + "'";
    if (std::rename(path_.c_str(), quarantine.c_str()) != 0) {
      disposition = "left in place (quarantine rename failed)";
    }
    std::cerr << "ddmc: tuning cache '" << path_ << "' is unreadable ("
              << e.what() << "); " << disposition
              << ", starting with an empty cache\n";
    return;
  }
  entries_ = std::move(loaded);
}

std::size_t TuningCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<CacheEntry> TuningCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

std::optional<CacheEntry> TuningCache::find_exact(
    const HostSignature& host, const PlanSignature& plan) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const CacheEntry& entry : entries_) {
    if (entry.host == host && entry.plan == plan) return entry;
  }
  return std::nullopt;
}

std::optional<CacheEntry> TuningCache::find_nearest(
    const HostSignature& host, const dedisp::Plan& plan, double max_distance,
    const std::function<bool(const engine::EngineConfig&)>& usable) const {
  const PlanSignature target = PlanSignature::of(plan);
  std::lock_guard<std::mutex> lock(mutex_);
  std::optional<CacheEntry> best;
  double best_distance = max_distance;
  for (const CacheEntry& entry : entries_) {
    // A pruned entry's config was never tuned, so it has nothing to lend.
    if (entry.host != host || entry.pruned) continue;
    const double d = plan_distance(entry.plan, target);
    if (d > best_distance || (best && d >= best_distance)) continue;
    if (usable && !usable(entry.config)) {
      continue;  // not valid for the target plan; try the next-closest
    }
    best = entry;
    best_distance = d;
  }
  return best;
}

void TuningCache::store(const CacheEntry& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  bool replaced = false;
  for (CacheEntry& existing : entries_) {
    if (existing.host == entry.host && existing.plan == entry.plan) {
      existing = entry;
      replaced = true;
      break;
    }
  }
  if (!replaced) entries_.push_back(entry);
  save_locked();
}

void TuningCache::save() const {
  std::lock_guard<std::mutex> lock(mutex_);
  save_locked();
}

void TuningCache::save_locked() const {
  if (path_.empty()) return;
  // Write-to-temp + atomic rename: a results CSV must never be observable
  // half-written — two workers' interleaved appends were exactly the
  // corruption mode this replaces. The temp name embeds the instance
  // address (distinct caches in this process) *and* a per-process random
  // token (two processes running the same binary can place objects at the
  // same address), so no two writers share a temp file; the rename itself
  // is atomic per POSIX.
  static const unsigned process_token = std::random_device{}();
  const std::string tmp =
      path_ + ".tmp." + std::to_string(process_token) + "." +
      std::to_string(reinterpret_cast<std::uintptr_t>(this));
  {
    DDMC_FAILPOINT("tuning_cache.save");
    std::ofstream os(tmp);
    DDMC_REQUIRE(os.good(), "cannot write tuning cache: " + tmp);
    std::vector<ResultRow> rows;
    rows.reserve(entries_.size());
    for (const CacheEntry& entry : entries_) {
      rows.push_back(to_result_row(entry));
    }
    save_results(os, rows);
    os.flush();
    DDMC_REQUIRE(os.good(), "short write to tuning cache: " + tmp);
  }
  // The "tuning_cache.rename" failpoint simulates a failed rename (short
  // device, crossed filesystems) without touching the real file, so the
  // cleanup branch — remove the temp, keep the old cache intact, throw a
  // retryable error — stays testable.
  const bool rename_failed =
      resilience::FaultInjector::instance().triggered("tuning_cache.rename") ||
      std::rename(tmp.c_str(), path_.c_str()) != 0;
  if (rename_failed) {
    std::remove(tmp.c_str());
    throw resilience::TransientError("cannot replace tuning cache: " + path_);
  }
}

// ---------------------------------------------------------- tune_guided --

namespace {

using Source = GuidedTuningOutcome::Source;

const char* source_label(Source source) {
  switch (source) {
    case Source::kCacheHit: return "hit";
    case Source::kTransfer: return "transfer";
    case Source::kSearch: return "search";
  }
  return "?";
}

/// Outcomes rank by measured wall seconds; a non-positive figure means
/// unmeasured and never wins.
double rank(double seconds) {
  return seconds > 0.0 ? seconds : std::numeric_limits<double>::infinity();
}

/// One race entrant and what the cache already knows about it.
struct Contender {
  std::shared_ptr<const engine::DedispEngine> engine;
  HostSignature host;
  std::optional<CacheEntry> exact;    ///< usable exact entry, maybe pruned
  std::optional<CacheEntry> nearest;  ///< transfer source, never pruned
  std::vector<engine::EngineConfig> candidates;  ///< filled when searched
  double seed_seconds = 0.0;  ///< one timed call of its first probe

  /// The order the race resolves contenders in. Cache answers come first:
  /// they set the race bound without measuring. Searches come next, and
  /// pruned entries last, because only the final bound tells whether
  /// another entrant still beats them.
  int stage() const {
    if (exact) return exact->pruned ? 2 : 0;
    return nearest ? 0 : 1;
  }
};

/// Time one call of every searching contender's first probe, so the race
/// can search the fastest first. The calls share one deterministic input
/// sized for the widest padding. Each runs on a fresh engine instance that
/// is dropped straight after, so the race never holds more than one
/// engine's scratch at a time.
void time_seeds(const dedisp::Plan& plan, const SearchStrategy& strategy,
                const engine::EngineOptions& engine_options,
                std::uint64_t seed, const std::vector<Contender*>& searching) {
  if (!strategy.first_probe(searching.front()->candidates)) return;
  std::size_t padding = 0;
  for (const Contender* c : searching) {
    padding = std::max(padding, c->engine->capabilities().input_padding);
  }
  Array2D<float> input(plan.channels(), plan.in_samples() + padding);
  Array2D<float> output(plan.dms(), plan.out_samples());
  Rng rng(seed);
  for (std::size_t ch = 0; ch < input.rows(); ++ch) {
    for (auto& v : input.row(ch)) v = rng.next_float(-1.0f, 1.0f);
  }
  for (Contender* c : searching) {
    const engine::EngineConfig& probe =
        c->candidates[*strategy.first_probe(c->candidates)];
    const auto engine = engine::make_engine(c->engine->id(), engine_options);
    telemetry::TraceSpan span("tuner.seed");
    span.arg("engine", engine->id());
    const Stopwatch clock;
    engine->execute(plan, probe, input.cview(), output.view());
    c->seed_seconds = clock.seconds();
    span.arg("ms", c->seed_seconds * 1e3);
  }
}

/// Resolve one contender against \p race_bound, the best seconds the race
/// has completed so far (infinity before any): exact hit, pruned hit,
/// nearest-neighbor transfer or a search under the bound, stored for next
/// time. \p validate_transfers re-measures a transferred config once on
/// the *target* plan (and stores the result): a transfer's stored figure
/// was measured on a different plan, which is a fine 0-measurement answer
/// when one engine tunes alone, but ranking engines against each other by
/// figures from different plans could crown the wrong engine — e.g. the
/// subband engine's effective GFLOP/s scales with the source plan's
/// flop-reduction ratio, which gcd adaptation may collapse on the target
/// plan. The returned outcome's race holds the contender's own row.
GuidedTuningOutcome resolve(const dedisp::Plan& plan, TuningCache& cache,
                            const GuidedTuningOptions& options,
                            const SearchStrategy& strategy, Contender& c,
                            double race_bound, bool validate_transfers) {
  const engine::DedispEngine& engine = *c.engine;
  const PlanSignature target = PlanSignature::of(plan);
  telemetry::TraceSpan span("tuner.tune");
  span.arg("engine", engine.id());

  GuidedTuningOutcome outcome;
  outcome.engine_id = engine.id();
  GuidedTuningOutcome::Entrant row;
  row.engine_id = engine.id();
  row.threads = engine.threads();
  std::size_t calls = 0;  // engine calls this entrant's measurements made
  // One ladder resolution = one outcome sample: the hit/transfer/search mix
  // over a session is the cache's effectiveness, scrape-able as
  // ddmc.tuner.outcomes_total{source=...}.
  const auto finish = [&](Source source, bool pruned) {
    outcome.source = source;
    row.source = source;
    row.config = outcome.config;
    row.seconds = outcome.seconds;
    row.pruned = pruned;
    row.configs_evaluated = outcome.configs_evaluated;
    outcome.race.push_back(row);
    auto& registry = telemetry::MetricsRegistry::instance();
    registry
        .counter("ddmc.tuner.outcomes_total",
                 {{"engine", engine.id()}, {"source", source_label(source)}})
        ->increment();
    registry
        .counter("ddmc.tuner.configs_evaluated_total",
                 {{"engine", engine.id()}})
        ->add(static_cast<double>(outcome.configs_evaluated));
    span.arg("source", source_label(source))
        .arg("threads", row.threads)
        .arg("pruned", std::size_t{pruned})
        .arg("bound_ms", pruned ? row.seconds * 1e3
                         : std::isfinite(race_bound) ? race_bound * 1e3
                                                     : 0.0)
        .arg("evaluated", outcome.configs_evaluated)
        .arg("calls", calls);
    return std::move(outcome);  // every path returns straight after
  };

  if (c.exact && !c.exact->pruned) {
    outcome.config = c.exact->config;
    outcome.seconds = c.exact->seconds;
    outcome.gflops = c.exact->gflops;
    outcome.transfer_distance = 0.0;
    return finish(Source::kCacheHit, false);
  }
  // A pruned entry still answers while the race holds a time at or under
  // the bound that pruned it: this engine cannot win that race.
  if (c.exact && race_bound <= c.exact->seconds) {
    outcome.config = c.exact->config;
    outcome.seconds = c.exact->seconds;
    outcome.transfer_distance = 0.0;
    return finish(Source::kCacheHit, true);
  }
  if (c.nearest) {
    outcome.config = c.nearest->config;
    outcome.seconds = c.nearest->seconds;
    outcome.gflops = c.nearest->gflops;
    outcome.transfer_distance = plan_distance(c.nearest->plan, target);
    if (validate_transfers) {
      HostKernelEvaluator evaluator(c.engine, plan, options.host,
                                    options.seed);
      const auto m =
          evaluator.measure(outcome.config, ConfigEvaluator::kNoIncumbent);
      calls = evaluator.calls();
      outcome.seconds = m.seconds;
      outcome.gflops = plan.total_flop() / m.seconds * 1e-9;
      outcome.configs_evaluated = 1;
      CacheEntry entry;
      entry.host = c.host;
      entry.plan = target;
      entry.config = outcome.config;
      entry.gflops = outcome.gflops;
      entry.seconds = m.seconds;
      entry.evaluated = 1;
      cache.store(entry);  // next cross-engine call is an exact hit
    }
    return finish(Source::kTransfer, false);
  }

  if (c.candidates.empty()) c.candidates = engine.config_space(plan);
  DDMC_REQUIRE(!c.candidates.empty(),
               "engine '" + engine.id() +
                   "' enumerated no candidate configurations for this plan");
  HostKernelEvaluator evaluator(c.engine, plan, options.host, options.seed);
  StrategyResult searched = strategy.search(
      plan, engine.config_axes(plan), c.candidates, evaluator, race_bound);
  calls = evaluator.calls();

  CacheEntry entry;
  entry.host = c.host;
  entry.plan = target;
  entry.config = searched.best.config;
  entry.evaluated = searched.evaluated;
  entry.pruned = searched.pruned;
  // A pruned search's best is only a floor: what it proved is that the
  // engine loses to the bound, so the bound is what gets stored.
  entry.seconds = searched.pruned ? race_bound : searched.best.seconds;
  entry.gflops = searched.pruned ? 0.0 : searched.best.gflops;
  cache.store(entry);

  outcome.config = entry.config;
  outcome.seconds = entry.seconds;
  outcome.gflops = entry.gflops;
  outcome.configs_evaluated = searched.evaluated;
  outcome.search = std::move(searched);
  return finish(Source::kSearch, entry.pruned);
}

}  // namespace

GuidedTuningOutcome tune_guided(const dedisp::Plan& plan, TuningCache& cache,
                                const GuidedTuningOptions& options) {
  const std::vector<std::string> engines =
      options.engines.empty()
          ? std::vector<std::string>{engine::kDefaultEngineId}
          : options.engines;
  engine::EngineOptions engine_options = options.engine_options;
  engine_options.cpu.vectorize = options.host.vectorize;
  engine_options.cpu.threads = options.host.threads;
  const auto strategy =
      make_strategy(options.strategy, options.random_samples, options.seed);
  const PlanSignature target = PlanSignature::of(plan);

  // What the cache knows about every entrant. Only the engine can judge
  // its configs: the same predicate gates the exact hit (a stale or
  // hand-seeded entry must not crash the ladder — an unusable hit falls
  // through to transfer/search) and the nearest-neighbor scan. A pruned
  // entry's config was never adopted, so its usability does not matter.
  std::vector<Contender> contenders(engines.size());
  for (std::size_t i = 0; i < engines.size(); ++i) {
    Contender& c = contenders[i];
    c.engine = engine::make_engine(engines[i], engine_options);
    c.host = HostSignature::of(*c.engine);
    const auto usable = [&](const engine::EngineConfig& config) {
      try {
        c.engine->validate_config(plan, config);
        return true;
      } catch (const config_error&) {
        return false;
      }
    };
    if (auto hit = cache.find_exact(c.host, target);
        hit && (hit->pruned || usable(hit->config))) {
      c.exact = std::move(hit);
    }
    if ((!c.exact || c.exact->pruned) && options.allow_transfer) {
      c.nearest = cache.find_nearest(c.host, plan,
                                     options.max_transfer_distance, usable);
    }
  }

  // The race is decided on *measured wall seconds* — engines' GFLOP/s
  // figures may credit different flop counts (stored entries, the subband
  // engine's flop reduction), so the derived metric can rank in the wrong
  // order while seconds cannot. Figures must come from this plan for the
  // comparison to hold, which is why multi-engine runs validate
  // transferred configs with one measurement.
  std::vector<Contender*> order;
  std::vector<Contender*> searching;
  for (Contender& c : contenders) {
    order.push_back(&c);
    if (c.stage() == 1) {
      c.candidates = c.engine->config_space(plan);
      searching.push_back(&c);
    }
  }
  if (searching.size() > 1) {
    time_seeds(plan, *strategy, engine_options, options.seed, searching);
  }
  // Ties keep the caller's engine order (contenders' address order).
  std::sort(order.begin(), order.end(),
            [](const Contender* a, const Contender* b) {
              return std::tuple(a->stage(), a->seed_seconds, a) <
                     std::tuple(b->stage(), b->seed_seconds, b);
            });

  const bool validate_transfers = engines.size() > 1;
  std::optional<GuidedTuningOutcome> best;
  std::vector<GuidedTuningOutcome::Entrant> race;
  std::size_t evaluated = 0;
  for (Contender* c : order) {
    const double race_bound =
        best ? rank(best->seconds) : ConfigEvaluator::kNoIncumbent;
    GuidedTuningOutcome outcome = resolve(plan, cache, options, *strategy, *c,
                                          race_bound, validate_transfers);
    // A resolved engine's scratch is freed before the next one runs.
    c->engine.reset();
    evaluated += outcome.configs_evaluated;
    race.push_back(outcome.race.front());
    if (!race.back().pruned &&
        (!best || rank(outcome.seconds) < rank(best->seconds))) {
      best = std::move(outcome);
    }
  }
  DDMC_ENSURE(best.has_value(), "every race entrant was pruned");
  best->configs_evaluated = evaluated;
  best->race = std::move(race);
  return std::move(*best);
}

}  // namespace ddmc::tuner
