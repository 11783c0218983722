/// The paper's tuning claim measured on this host (§IV-A, Figs. 13–14): on
/// the instance ladder (`sky::paper_instances`) of Apertif and LOFAR, tune
/// every tunable engine per instance by wall-clock measurement and compare
/// the tuned config with the best *fixed* config, chosen by
/// `tuner::best_fixed_config`'s rule (the config valid on every instance
/// that maximizes the summed GFLOP/s) applied to the measured table.
///
/// The search runs over each engine's *ladder*: every point of its
/// declared ladders that it accepts, before the engines' pruning (for the
/// tiled engines the paper's four axes × channel_block × unroll, for
/// subband and fdmt the divisor ladders of the split under the default
/// split's accuracy cap), one config per config_key. Each row then says
/// whether the winners are in the engine's pruned `config_space()` — the
/// candidates a race measures — and what the best config of that space
/// loses to the winner.
///
/// Method per (observation, engine, threads, instance):
///  1. Screen: one warm-up and one timed call per config. Exhaustive when
///     a seeded sample of 16 configs prices the whole ladder under
///     --budget-s, else `tuner::CoordinateDescent` with restarts (the
///     strategy `tune_guided` searches with). The fixed candidates (the
///     configs of the smallest instance's ladder) are screened on every
///     instance.
///  2. Refine: the screened configs within 1.25× of the fastest (at most
///     12) and the fixed config are timed --reps more times, interleaved
///     call by call; every figure is the median and min of those calls.
///  The tuned config is the finalist with the lowest median. A finalist is
///  a *winner* when its min is at or under the tuned median (within the
///  measured spread); tuning *beats* the fixed config when the fixed
///  config's min is above the tuned median.
///
/// At --threads (> 1) the study runs the threaded engines on the
/// --threaded-dms subset and compares with the 1-thread fixed config.
///
///   ./bench_host_tuning [--observations apertif,lofar] [--max-dms 256]
///       [--out-samples 1000] [--engines cpu_tiled,cpu_tiled_u8,subband,fdmt]
///       [--reps 7] [--budget-s 90] [--threads 4] [--threaded-dms 32,256]
///       [--json BENCH_host_tuning.json]

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>

#include "bench_common.hpp"
#include "common/random.hpp"
#include "common/statistics.hpp"
#include "common/timer.hpp"
#include "dedisp/fdmt.hpp"
#include "dedisp/subband.hpp"
#include "engine/registry.hpp"
#include "tuner/strategy.hpp"

namespace {

using namespace ddmc;
using engine::EngineConfig;

std::vector<std::string> parse_list(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

bool is_tiled(const std::string& id) {
  return id == "cpu_tiled" || id == "cpu_tiled_u8";
}

/// The tiled engines' ladder before pruning: the default ladder's four
/// paper axes under the 1024 work-item cap, crossed with every channel
/// block below the channel count and every unroll, one config per kernel.
std::vector<EngineConfig> tiled_ladder(const engine::DedispEngine& eng,
                                       const dedisp::Plan& plan) {
  const dedisp::SearchSpace space = dedisp::default_search_space();
  std::vector<EngineConfig> out;
  std::set<std::string> seen;
  for (std::size_t wt : space.wi_time) {
    for (std::size_t wd : space.wi_dm) {
      if (wt * wd > 1024) continue;
      for (std::size_t et : space.elem_time) {
        if (plan.out_samples() % (wt * et) != 0) continue;
        for (std::size_t ed : space.elem_dm) {
          if (plan.dms() % (wd * ed) != 0) continue;
          for (std::size_t cb : space.channel_block) {
            if (cb >= plan.channels() && cb != 0) continue;
            for (std::size_t un : space.unroll) {
              const EngineConfig cfg = engine::encode_kernel_config(
                  dedisp::KernelConfig{wt, wd, et, ed, cb, un});
              if (seen.insert(eng.config_key(plan, cfg)).second) {
                out.push_back(cfg);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

/// The split engines' ladder before pruning: every point of their declared
/// axes whose smearing bound stays within the default split's.
std::vector<EngineConfig> split_ladder(const engine::DedispEngine& eng,
                                       const dedisp::Plan& plan) {
  const dedisp::SubbandConfig def = dedisp::SubbandConfig{}.adapted_to(plan);
  const bool fdmt = eng.id() == "fdmt";
  const auto error = [&](const dedisp::SubbandConfig& split) {
    return fdmt ? dedisp::fdmt_max_delay_error(plan, split)
                : dedisp::subband_max_delay_error(plan, split);
  };
  const std::vector<engine::AxisSpec> axes = eng.config_axes(plan);
  const std::vector<std::int64_t> blocks =
      fdmt ? axes[2].values : std::vector<std::int64_t>{0};
  std::vector<EngineConfig> out;
  std::set<std::string> seen;
  for (const std::int64_t sb : axes[0].values) {
    for (const std::int64_t cs : axes[1].values) {
      const dedisp::SubbandConfig split{static_cast<std::size_t>(sb),
                                        static_cast<std::size_t>(cs)};
      if (error(split) > error(def)) continue;
      for (const std::int64_t blk : blocks) {
        EngineConfig cfg;
        cfg.set("subbands", sb).set("coarse_step", cs);
        if (fdmt) cfg.set("block", blk);
        if (seen.insert(eng.config_key(plan, cfg)).second) out.push_back(cfg);
      }
    }
  }
  return out;
}

/// Times one engine on one plan: a memo of screened configs (the
/// evaluator the strategies call) and repeated timed calls for the refine
/// pass. Every engine call is counted, warm-ups included.
class Timer final : public tuner::ConfigEvaluator {
 public:
  Timer(std::shared_ptr<const engine::DedispEngine> eng,
        const dedisp::Plan& plan)
      : engine_(std::move(eng)),
        plan_(plan),
        input_(plan.channels(),
               plan.in_samples() + engine_->capabilities().input_padding),
        output_(plan.dms(), plan.out_samples()) {
    Rng rng(42);
    for (std::size_t ch = 0; ch < input_.rows(); ++ch) {
      for (auto& v : input_.row(ch)) v = rng.next_float(-1.0f, 1.0f);
    }
  }

  Measurement measure(const EngineConfig& config, double) override {
    const std::string k = key(config);
    auto it = screened_.find(k);
    if (it == screened_.end()) {
      call(config);  // warm-up
      it = screened_.emplace(k, Screened{config, call(config)}).first;
    }
    Measurement m;
    m.seconds = m.lower_bound_seconds = it->second.seconds;
    m.repetitions = 1;
    return m;
  }
  std::string key(const EngineConfig& config) override {
    return engine_->config_key(plan_, config);
  }

  /// One timed call.
  double call(const EngineConfig& config) {
    ++calls_;
    const Stopwatch clock;
    engine_->execute(plan_, config, input_.cview(), output_.view());
    return clock.seconds();
  }

  struct Screened {
    EngineConfig config;
    double seconds = 0.0;
  };
  const std::map<std::string, Screened>& screened() const {
    return screened_;
  }
  std::size_t calls() const { return calls_; }

 private:
  std::shared_ptr<const engine::DedispEngine> engine_;
  dedisp::Plan plan_;
  Array2D<float> input_;
  Array2D<float> output_;
  std::map<std::string, Screened> screened_;
  std::size_t calls_ = 0;
};

/// Median and min of a refined config's timed calls.
struct Timing {
  EngineConfig config;
  std::string key;
  double median_s = 0.0;
  double min_s = 0.0;
  bool in_space = false;
};

bench::JsonObject timing_json(const Timing& t) {
  return bench::JsonObject()
      .set("config", t.config.encode())
      .set("key", t.key)
      .set("median_ms", t.median_s * 1e3)
      .set("min_ms", t.min_s * 1e3)
      .set("in_space", t.in_space);
}

struct Instance {
  dedisp::Plan plan;
  std::vector<EngineConfig> ladder;
  std::set<std::string> space_keys;  ///< the engine's config_space()
  std::size_t space_size = 0;
  std::unique_ptr<Timer> timer;
  bool exhaustive = true;
  std::vector<Timing> finalists;  ///< refined, fastest median first
  std::optional<Timing> fixed;
};

struct StudyOptions {
  std::size_t reps = 7;
  double budget_s = 90.0;
};

/// Screen \p inst's ladder: exhaustively when a seeded sample prices it
/// under the budget, else by coordinate descent with restarts.
void screen(const engine::DedispEngine& eng, Instance& inst,
            const StudyOptions& options) {
  std::vector<std::size_t> order(inst.ladder.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(7);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    std::swap(order[i], order[i + rng.next_below(order.size() - i)]);
  }
  const std::size_t sample = std::min<std::size_t>(16, order.size());
  double sampled = 0.0;
  for (std::size_t i = 0; i < sample; ++i) {
    sampled += inst.timer
                   ->measure(inst.ladder[order[i]],
                             tuner::ConfigEvaluator::kNoIncumbent)
                   .seconds;
  }
  const double estimate = 2.0 * sampled / static_cast<double>(sample) *
                          static_cast<double>(inst.ladder.size());
  inst.exhaustive = estimate <= options.budget_s;
  if (inst.exhaustive) {
    tuner::ExhaustiveSearch().search(inst.plan, {}, inst.ladder, *inst.timer);
    return;
  }
  std::vector<engine::AxisSpec> axes;
  if (is_tiled(eng.id())) {
    std::vector<dedisp::KernelConfig> shapes;
    for (const EngineConfig& c : inst.ladder) {
      shapes.push_back(engine::decode_kernel_config(c));
    }
    axes = engine::kernel_config_axes(shapes);
  } else {
    axes = eng.config_axes(inst.plan);
  }
  tuner::CoordinateDescent(42, 6, 16, 4)
      .search(inst.plan, axes, inst.ladder, *inst.timer);
}

/// Time the finalists (the screened configs within 1.25× of the fastest,
/// at most 12) and \p fixed: one warm-up pass, then options.reps timed
/// passes, interleaved call by call.
void refine(Instance& inst, const std::optional<EngineConfig>& fixed,
            const StudyOptions& options) {
  std::vector<const Timer::Screened*> ranked;
  for (const auto& [key, s] : inst.timer->screened()) ranked.push_back(&s);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto* a, const auto* b) { return a->seconds < b->seconds; });
  std::vector<EngineConfig> configs;
  for (const auto* s : ranked) {
    if (configs.size() == 12 || s->seconds > 1.25 * ranked.front()->seconds) {
      break;
    }
    configs.push_back(s->config);
  }
  std::optional<std::size_t> fixed_index;
  if (fixed) {
    const std::string k = inst.timer->key(*fixed);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (inst.timer->key(configs[i]) == k) fixed_index = i;
    }
    if (!fixed_index) {
      fixed_index = configs.size();
      configs.push_back(*fixed);
    }
  }
  std::vector<std::vector<double>> samples(configs.size());
  for (const EngineConfig& c : configs) inst.timer->call(c);
  for (std::size_t r = 0; r < options.reps; ++r) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      samples[i].push_back(inst.timer->call(configs[i]));
    }
  }
  std::vector<Timing> timings;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    Timing t;
    t.config = configs[i];
    t.key = inst.timer->key(configs[i]);
    t.median_s = percentile(samples[i], 50.0);
    t.min_s = *std::min_element(samples[i].begin(), samples[i].end());
    t.in_space = inst.space_keys.count(t.key) > 0;
    timings.push_back(t);
  }
  if (fixed_index) inst.fixed = timings[*fixed_index];
  std::sort(timings.begin(), timings.end(),
            [](const Timing& a, const Timing& b) {
              return a.median_s < b.median_s;
            });
  inst.finalists = std::move(timings);
}

/// tuner::best_fixed_config's rule on the measured table: among the
/// configs of the smallest instance's ladder that every instance's ladder
/// holds, the one with the largest summed GFLOP/s (screen times).
std::optional<EngineConfig> best_fixed(std::vector<Instance>& instances) {
  if (instances.size() < 2) return std::nullopt;
  std::vector<std::set<std::string>> ladder_keys;
  for (Instance& inst : instances) {
    ladder_keys.emplace_back();
    for (const EngineConfig& c : inst.ladder) {
      ladder_keys.back().insert(inst.timer->key(c));
    }
  }
  std::optional<EngineConfig> best;
  double best_total = 0.0;
  for (const EngineConfig& c : instances.front().ladder) {
    double total = 0.0;
    bool everywhere = true;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      Instance& inst = instances[i];
      if (!ladder_keys[i].count(inst.timer->key(c))) {
        everywhere = false;
        break;
      }
      const double s =
          inst.timer->measure(c, tuner::ConfigEvaluator::kNoIncumbent).seconds;
      total += inst.plan.total_flop() / s * 1e-9;
    }
    if (everywhere && (!best || total > best_total)) {
      best = c;
      best_total = total;
    }
  }
  return best;
}

struct Study {
  std::string observation;
  std::string engine;
  std::size_t threads = 1;
  std::optional<EngineConfig> fixed;
  std::string fixed_rule;
  std::vector<Instance> instances;
};

Study run_study(const sky::Observation& obs, const std::string& id,
                std::size_t threads, const std::vector<std::size_t>& dms,
                std::size_t out_samples,
                const std::optional<EngineConfig>& given_fixed,
                const StudyOptions& options) {
  Study study;
  study.observation = obs.name();
  study.engine = id;
  study.threads = threads;
  engine::EngineOptions engine_options;
  engine_options.cpu.threads = threads;
  for (const std::size_t d : dms) {
    Instance inst{dedisp::Plan::with_output_samples(obs, d, out_samples)};
    const auto eng = engine::make_engine(id, engine_options);
    inst.ladder = is_tiled(id) ? tiled_ladder(*eng, inst.plan)
                               : split_ladder(*eng, inst.plan);
    const std::vector<EngineConfig> space = eng->config_space(inst.plan);
    inst.space_size = space.size();
    for (const EngineConfig& c : space) {
      inst.space_keys.insert(eng->config_key(inst.plan, c));
    }
    inst.timer = std::make_unique<Timer>(eng, inst.plan);
    const Stopwatch clock;
    screen(*eng, inst, options);
    std::cerr << "  " << obs.name() << " " << id << " " << threads
              << "T " << d << " DMs: ladder " << inst.ladder.size()
              << ", space " << inst.space_size << ", screened "
              << inst.timer->screened().size() << " ("
              << (inst.exhaustive ? "exhaustive" : "guided") << ") in "
              << TextTable::num(clock.seconds(), 1) << " s\n";
    study.instances.push_back(std::move(inst));
  }
  if (threads > 1) {
    study.fixed = given_fixed;
    study.fixed_rule = "the 1-thread ladder's fixed config";
  } else {
    study.fixed = best_fixed(study.instances);
    study.fixed_rule = "max summed GFLOP/s over the ladder";
  }
  for (Instance& inst : study.instances) {
    std::optional<EngineConfig> fixed;
    if (study.fixed) {
      try {
        engine::make_engine(id)->validate_config(inst.plan, *study.fixed);
        fixed = study.fixed;
      } catch (const config_error&) {
      }
    }
    refine(inst, fixed, options);
  }
  return study;
}

std::string ms(double s) { return TextTable::num(s * 1e3, 3); }

/// The row of \p inst: tuned and fixed with spread, and what the pruned
/// space keeps of the winners.
bench::JsonObject report(const Study& study, const Instance& inst,
                         TextTable& table) {
  const Timing& tuned = inst.finalists.front();
  bench::JsonArray winners;
  std::size_t winners_in_space = 0;
  std::size_t winner_count = 0;
  for (const Timing& t : inst.finalists) {
    if (t.min_s > tuned.median_s) continue;
    winners.add(timing_json(t));
    ++winner_count;
    winners_in_space += t.in_space;
  }
  const Timing* space_best = nullptr;
  for (const Timing& t : inst.finalists) {
    if (t.in_space) {
      space_best = &t;
      break;
    }
  }
  bench::JsonObject row;
  row.set("dms", inst.plan.dms())
      .set("out_samples", inst.plan.out_samples())
      .set("search", inst.exhaustive ? "exhaustive" : "guided")
      .set("ladder", inst.ladder.size())
      .set("space", inst.space_size)
      .set("screened", inst.timer->screened().size())
      .set("calls", inst.timer->calls())
      .set_raw("tuned", timing_json(tuned).dump())
      .set_raw("winners", winners.dump())
      .set("winners_in_space", winners_in_space);
  row.set_raw("space_best",
              space_best ? timing_json(*space_best).dump() : "null");
  std::string vs_fixed = "-";
  std::string beats = "-";
  if (inst.fixed) {
    const bool wins = inst.fixed->min_s > tuned.median_s;
    row.set_raw("fixed", timing_json(*inst.fixed).dump())
        .set("tuned_speedup", inst.fixed->median_s / tuned.median_s)
        .set("tuning_beats_fixed", wins);
    vs_fixed = TextTable::num(inst.fixed->median_s / tuned.median_s, 2);
    beats = wins ? "yes" : "no";
  }
  table.add_row(
      {study.observation, study.engine, std::to_string(study.threads),
       std::to_string(inst.plan.dms()), inst.exhaustive ? "exh" : "guided",
       std::to_string(inst.ladder.size()) + "/" +
           std::to_string(inst.space_size),
       tuned.config.encode(), ms(tuned.median_s) + "/" + ms(tuned.min_s),
       inst.fixed ? ms(inst.fixed->median_s) + "/" + ms(inst.fixed->min_s)
                  : "-",
       vs_fixed, beats,
       std::to_string(winners_in_space) + "/" + std::to_string(winner_count),
       space_best ? TextTable::num(space_best->median_s / tuned.median_s, 2)
                  : "-"});
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_host_tuning",
          "tuned vs best fixed config on the paper's instance ladder, and "
          "whether the engines' pruned spaces keep the winners");
  cli.add_option("observations", "setups to study (apertif, lofar)",
                 "apertif,lofar");
  cli.add_option("max-dms", "largest instance of the 2, 4, ... DM ladder",
                 "256");
  cli.add_option("out-samples", "output samples per instance", "1000");
  cli.add_option("engines", "tunable engines to study",
                 "cpu_tiled,cpu_tiled_u8,subband,fdmt");
  cli.add_option("reps", "timed calls per finalist config", "7");
  cli.add_option("budget-s",
                 "estimated screen seconds above which an instance is "
                 "searched by coordinate descent instead of exhaustively",
                 "90");
  cli.add_option("threads", "thread count of the threaded leg", "4");
  cli.add_option("threaded-dms",
                 "instances of the threaded leg (empty: no threaded leg)",
                 "32,256");
  cli.add_option("json", "write machine-readable results to this path", "");
  if (!cli.parse(argc, argv)) return 0;

  StudyOptions options;
  options.reps = static_cast<std::size_t>(cli.get_int("reps"));
  options.budget_s = cli.get_double("budget-s");
  DDMC_REQUIRE(options.reps > 0, "--reps must be positive");
  const auto out = static_cast<std::size_t>(cli.get_int("out-samples"));
  const std::vector<std::size_t> ladder =
      sky::paper_instances(static_cast<std::size_t>(cli.get_int("max-dms")));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  std::vector<std::size_t> threaded_dms;
  for (const std::string& d : parse_list(cli.get("threaded-dms"))) {
    threaded_dms.push_back(static_cast<std::size_t>(std::stoul(d)));
  }

  std::vector<sky::Observation> observations;
  for (const std::string& name : parse_list(cli.get("observations"))) {
    DDMC_REQUIRE(name == "apertif" || name == "lofar",
                 "--observations takes apertif and lofar");
    observations.push_back(name == "apertif" ? sky::apertif() : sky::lofar());
  }

  TextTable table({"obs", "engine", "thr", "DMs", "search", "ladder/space",
                   "tuned config", "tuned ms med/min", "fixed ms med/min",
                   "tuned/fixed", "beats", "winners in space",
                   "space best/tuned"});
  bench::JsonArray studies;
  std::size_t rows = 0, beaten = 0, kept = 0;
  for (const sky::Observation& obs : observations) {
    for (const std::string& id : parse_list(cli.get("engines"))) {
      DDMC_REQUIRE(engine::make_engine(id)->capabilities().tunable,
                   "engine '" + id + "' is not tunable");
      std::vector<Study> legs;
      legs.push_back(run_study(obs, id, 1, ladder, out, std::nullopt, options));
      if (!threaded_dms.empty() && threads > 1 &&
          engine::make_engine(id)->capabilities().threaded) {
        legs.push_back(run_study(obs, id, threads, threaded_dms, out,
                                 legs.front().fixed, options));
      }
      for (const Study& study : legs) {
        bench::JsonArray instances;
        for (const Instance& inst : study.instances) {
          instances.add(report(study, inst, table));
          ++rows;
          beaten += inst.fixed && inst.fixed->min_s >
                                      inst.finalists.front().median_s;
          kept += inst.finalists.front().in_space;
        }
        studies.add(
            bench::JsonObject()
                .set("observation", study.observation)
                .set("engine", study.engine)
                .set("threads", study.threads)
                .set("fixed_rule", study.fixed_rule)
                .set("fixed_config",
                     study.fixed ? study.fixed->encode() : std::string("-"))
                .set_raw("instances", instances.dump()));
      }
    }
  }
  std::cout << "== tuned vs fixed on the instance ladder, " << out
            << " output samples, engine variant " << simd::backend_name()
            << " ==\n"
            << "(ms med/min over " << options.reps
            << " interleaved calls; beats: the fixed config's fastest call "
               "is slower than the tuned median)\n";
  table.print(std::cout);
  std::cout << "\ntuning beats the fixed config on " << beaten << " of "
            << rows << " rows; the tuned winner is in the pruned space on "
            << kept << " of " << rows << "\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    bench::JsonObject root;
    root.set("bench", "bench_host_tuning")
        .set_raw("host", bench::host_description().dump())
        .set("reps", options.reps)
        .set("budget_s", options.budget_s)
        .set("out_samples", out)
        .set("rows", rows)
        .set("tuning_beats_fixed", beaten)
        .set("winner_in_space", kept)
        .set_raw("studies", studies.dump());
    bench::write_json_file(json_path, root);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
