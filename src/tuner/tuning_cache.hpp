#pragma once
/// \file tuning_cache.hpp
/// \brief Persistent cache of tuned configurations, keyed by host and plan
/// signatures, with nearest-neighbor transfer across plans.
///
/// The paper's tuples — "the optimal configuration … for every combination
/// of platform, observational setup and input instance" (§IV-A) — are worth
/// keeping: Sclocco et al.'s follow-up shows tuned configurations transfer
/// across observational setups, so a cache answers most tuning requests
/// without measuring anything. The lookup ladder of tune_guided:
///
///   1. exact hit   — same host signature, same plan signature: reuse the
///                    stored config, zero measurements;
///   2. transfer    — same host signature, *closest* cached plan by
///                    log-space distance over (channels, samples/s, output
///                    samples, DMs, DM span) whose config validates against
///                    the requested plan: reuse its config, zero
///                    measurements;
///   3. guided search — fall back to a SearchStrategy (CoordinateDescent
///                    by default) over the engine's declared config space,
///                    and store the winner for next time.
///
/// Several engines race with one incumbent. Cache answers resolve first
/// and set the race bound (the best seconds completed so far) for free.
/// The engines left to search are each timed once on the config their
/// strategy would probe first (CoordinateDescent only; the other
/// strategies keep their full populations) and searched fastest first,
/// every measurement aborting against the race bound. An engine that
/// cannot get under the bound is *pruned*: it is stored flagged as pruned
/// with the bound that pruned it, never as a tuned optimum. A pruned entry
/// answers a warm race with 0 measurements while another entrant still
/// beats its bound, is never a transfer source, and is a miss anywhere
/// else — a single-engine tune of that engine searches again.
///
/// Persistence is layered on results_io's v4 CSV: the host signature is
/// encoded in the `device` column, the plan signature in the
/// `observation` column, the engine-native config in the `config` column
/// and the pruned flag in the `pruned` column, so a cache file is an
/// ordinary results file that the existing diagnostics (schema line,
/// column counts, v2 and v3 migration) already cover.

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dedisp/cpu_kernel.hpp"
#include "dedisp/kernel_config.hpp"
#include "dedisp/plan.hpp"
#include "engine/engine.hpp"
#include "tuner/strategy.hpp"

namespace ddmc::tuner {

/// What the tuned numbers were measured *on*: the registry engine id (a
/// first-class tuning axis — platform choice is itself a tuning decision),
/// its execution variant (the compiled SIMD backend, the scalar loop, a
/// device preset), the thread count and the engine's epoch
/// (EngineCapabilities::epoch). Configs tuned
/// under a different engine do not transfer — an AVX optimum says little
/// about the scalar loop, and nothing about the subband split — so every
/// cache operation filters on this first.
struct HostSignature {
  std::string engine_id = engine::kDefaultEngineId;  ///< registry id
  std::string variant;     ///< DedispEngine::variant() of the measured run
  std::size_t threads = 0; ///< CpuKernelOptions::threads (0 = machine pool)
  std::size_t epoch = 0;   ///< EngineCapabilities::epoch of the engine

  /// Signature of \p engine as configured (id, variant and thread count
  /// from its options, epoch from its capabilities).
  static HostSignature of(const engine::DedispEngine& engine);

  /// Signature of the default cpu_tiled engine under \p options.
  static HostSignature of(const dedisp::CpuKernelOptions& options);

  /// "engine_id|variant|t<threads>|staged|e<epoch>" — the cache's `device`
  /// column; epoch 0 omits the last part, so an unbumped engine's rows read
  /// as they did before epochs existed. The fourth part is a legacy field:
  /// it named a staging mode when staging was an option, and is always
  /// written as `staged`. A row written with `direct` there was measured
  /// with staging switched off on every tile, an execution that no longer
  /// exists: it decodes with the variant "<variant>~direct", which no
  /// engine reports, so it never resolves. decode() also accepts the
  /// legacy three-part "variant|t<threads>|staged" form (caches written
  /// before the engine axis existed), which maps to the cpu_tiled engine.
  /// Both shorter forms decode as epoch 0.
  std::string encode() const;
  static std::optional<HostSignature> decode(const std::string& text);

  friend bool operator==(const HostSignature&, const HostSignature&) =
      default;
};

/// The instance parameters a tuned config depends on: channel count,
/// sampling time, output window, and the trial-DM grid.
struct PlanSignature {
  std::string observation;  ///< setup name (informational, not a key field)
  std::size_t channels = 0;
  std::size_t out_samples = 0;
  std::size_t dms = 0;
  double sampling_rate = 0.0;  ///< samples per second (1 / sampling time)
  double dm_first = 0.0;
  double dm_step = 0.0;

  static PlanSignature of(const dedisp::Plan& plan);

  /// "name|ch=…|sps=…|out=…|dms=…|dm0=…|ddm=…" — the `observation` column.
  std::string encode() const;
  static std::optional<PlanSignature> decode(const std::string& text);

  friend bool operator==(const PlanSignature&, const PlanSignature&) =
      default;
};

/// Squared log-space distance between two plan signatures over (channels,
/// sampling rate, output samples, DMs, DM span). Log-space because every
/// quantity matters multiplicatively: 512→1024 channels is as big a move
/// as 1024→2048.
double plan_distance(const PlanSignature& a, const PlanSignature& b);

/// One cached tuple. The config is engine-native: named axis=value pairs
/// that only the entry's engine (host.engine_id) interprets — a kernel
/// shape for the tiled engines, a channel split for the subband engine.
struct CacheEntry {
  HostSignature host;
  PlanSignature plan;
  engine::EngineConfig config;
  double gflops = 0.0;
  double seconds = 0.0;
  std::size_t evaluated = 0;  ///< configs the producing search measured
  /// The engine lost a race without getting under its bound: `seconds` is
  /// that bound, `config` the most promising config it measured, `gflops`
  /// 0. Its true time is only known to exceed `seconds`.
  bool pruned = false;
};

/// In-memory or file-backed store of tuned tuples. File-backed caches load
/// eagerly at construction and rewrite the file on every store (caches are
/// small — one row per (host, plan) pair).
///
/// Thread-safe for concurrent lookups and stores on one instance: the
/// sharded executor's workers tune per-shard plans against a shared cache,
/// so every operation holds an internal mutex, and the file is rewritten
/// via a temp file + atomic rename — a concurrent reader (or a crash
/// mid-write) sees either the old or the new complete file, never an
/// interleaved/truncated CSV. Distinct *processes* writing one path still
/// last-writer-win whole files, but can no longer corrupt them.
class TuningCache {
 public:
  /// In-memory cache (tests, one-process pipelines).
  TuningCache() = default;

  /// File-backed cache at \p path. A missing file is an empty cache. A
  /// malformed (corrupt, partially written, wrong-schema) one is
  /// *quarantined*: renamed aside to "<path>.quarantined" with a stderr
  /// warning carrying the results_io diagnostics, and the cache starts
  /// empty — a damaged cache file must never prevent a tuned run from
  /// starting, since every entry is recomputable by measurement.
  explicit TuningCache(std::string path);

  const std::string& path() const { return path_; }
  std::size_t size() const;
  /// Snapshot of the current entries (copied under the lock).
  std::vector<CacheEntry> entries() const;

  /// Exact hit: same host signature and plan signature.
  std::optional<CacheEntry> find_exact(const HostSignature& host,
                                       const PlanSignature& plan) const;

  /// Nearest-neighbor transfer: the unpruned entry with the same host
  /// signature closest to \p plan (plan_distance ≤ \p max_distance) whose
  /// config passes \p usable (callers pass the engine's validate_config;
  /// an empty predicate accepts everything). The cache itself cannot judge
  /// a config's validity — only the engine that declares the axes can.
  /// Exact unpruned hits are also found by this.
  std::optional<CacheEntry> find_nearest(
      const HostSignature& host, const dedisp::Plan& plan,
      double max_distance = kDefaultMaxTransferDistance,
      const std::function<bool(const engine::EngineConfig&)>& usable =
          {}) const;

  /// Insert or replace the entry with \p entry's (host, plan) key; rewrites
  /// the backing file when file-backed.
  void store(const CacheEntry& entry);

  /// Rewrite the backing file now (no-op for in-memory caches).
  void save() const;

  /// Transfer radius: generous enough to cover e.g. a 16× DM-count change
  /// (log²16 ≈ 7.7) but not an entirely different telescope in every axis.
  static constexpr double kDefaultMaxTransferDistance = 12.0;

 private:
  void load();
  void save_locked() const;

  std::string path_;
  std::vector<CacheEntry> entries_;
  mutable std::mutex mutex_;
};

/// Options of the cache-guided tuning entry point.
struct GuidedTuningOptions {
  /// Registry ids of the engines to tune over. One id reproduces the
  /// classic single-engine ladder; several make the engine itself a search
  /// axis — each engine resolves through its own hit → transfer → search
  /// ladder and the fastest result wins (platform choice as a tuning
  /// decision). Empty means "the caller decides": consumers (the
  /// pipeline, sharded and streaming layers) substitute their configured
  /// engine, and a bare tune_guided call substitutes the default engine.
  std::vector<std::string> engines;
  /// Measurement knobs (repetitions, host-execution flags, threads) — also
  /// the source of the host signature.
  HostTuningOptions host;
  /// Factory knobs beyond the host flags for engines that need them (the
  /// subband split, the quantization window); the cpu field is overridden
  /// from \p host.
  engine::EngineOptions engine_options;
  /// Strategy for the search fallback.
  StrategyKind strategy = StrategyKind::kCoordinateDescent;
  std::size_t random_samples = 64;  ///< for StrategyKind::kRandom
  std::uint64_t seed = 42;
  /// Allow answering a miss from the closest cached plan.
  bool allow_transfer = true;
  double max_transfer_distance = TuningCache::kDefaultMaxTransferDistance;
};

/// Where a guided tuning's config came from.
struct GuidedTuningOutcome {
  enum class Source { kCacheHit, kTransfer, kSearch };

  /// One raced engine: what it ran and why it won or lost.
  struct Entrant {
    std::string engine_id;
    /// Its tuned (or reused) config; for a pruned entrant the most
    /// promising config it measured.
    engine::EngineConfig config;
    /// Worker threads its calls ran on (DedispEngine::threads()): the
    /// tuning thread count for the threaded engines, 1 for the others.
    std::size_t threads = 1;
    /// Measured or stored seconds; for a pruned entrant the race bound
    /// that pruned it, which its own time is only known to exceed.
    double seconds = 0.0;
    Source source = Source::kSearch;
    bool pruned = false;
    std::size_t configs_evaluated = 0;
  };

  Source source = Source::kSearch;
  /// Registry id of the winning engine (the engine axis of the search).
  /// The consumer that requested the tuning *adopts* this engine — it may
  /// differ from the engine the consumer was constructed with.
  std::string engine_id = engine::kDefaultEngineId;
  engine::EngineConfig config;
  /// Measured wall seconds (search), or the stored figure of the reused
  /// entry (hit/transfer — measured on the *source* plan, an estimate
  /// here). This — not GFLOP/s — is what ranks engines against each other:
  /// seconds is the only scale still comparable when entries credit
  /// different flop counts. Non-positive means unmeasured and never wins
  /// a multi-engine race.
  double seconds = 0.0;
  /// The paper's GFLOP/s figure on the same measurement, for display.
  double gflops = 0.0;
  std::size_t configs_evaluated = 0;  ///< 0 on a hit or transfer
  /// Distance of the transfer source (0 for exact hits, unset for search).
  std::optional<double> transfer_distance;
  /// Full search result when source == kSearch.
  std::optional<StrategyResult> search;
  /// Every entrant, in the order the race resolved them (cache answers,
  /// then searches fastest seed first, then pruned entries); the winner is
  /// the unpruned row with the lowest seconds.
  std::vector<Entrant> race;
};

/// Tune-on-first-use: for every engine in \p options.engines (the default
/// engine when empty), answer from \p cache when possible (exact hit, then
/// nearest-neighbor transfer), otherwise run the configured guided search
/// over the engine's declared config space against the race bound, and
/// store the result under its (engine, host, plan) signature — pruned
/// when the engine could not beat the bound. The unpruned outcome with
/// the lowest measured seconds is returned. Engines without tunable knobs
/// race as single-candidate entries (their empty config). The returned
/// config always validates against \p plan on the returned engine.
GuidedTuningOutcome tune_guided(const dedisp::Plan& plan, TuningCache& cache,
                                const GuidedTuningOptions& options = {});

}  // namespace ddmc::tuner
