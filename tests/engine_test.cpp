// Tests for the unified engine abstraction (src/engine/): registry
// semantics (unknown ids name the alternatives, double registration is
// rejected), the capability matrix, and the properties the capabilities
// promise — bitwise engines match the reference on randomized plans,
// the subband engine stays within its smearing bound, every
// streaming-capable engine streams bitwise-identically to its batch run,
// every sharding-capable engine shards bitwise-identically, and
// tune_guided searches *across* engines with the engine id persisted in
// the tuning cache. The workspace tests pin the engines that keep buffers
// between calls: concurrent calls each get their own, and a repeated call
// allocates no large block.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/random.hpp"
#include "common/simd.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/fdmt.hpp"
#include "dedisp/quantize.hpp"
#include "dedisp/subband.hpp"
#include "engine/registry.hpp"
#include "pipeline/dedisperser.hpp"
#include "pipeline/sharding.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/supervisor.hpp"
#include "stream/streaming_dedisperser.hpp"
#include "telemetry/tracing.hpp"
#include "test_util.hpp"
#include "tuner/tuning_cache.hpp"

// ------------------------------------------------- allocation accounting --
//
// This binary replaces the global allocation functions so the workspace
// tests can count the large blocks an engine call allocates. Counting is
// off unless a test turns it on; every allocation is plain malloc /
// aligned_alloc either way. Every form is replaced, the std::nothrow_t
// ones included: library code that takes scratch through a nothrow new
// (std::stable_sort's temporary buffer) frees it through a replaced
// delete, and a sanitizer build reports a mismatch when the two come from
// different allocators.

namespace {

constexpr std::size_t kLargeAllocationBytes = 64 * 1024;
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_large_allocations{0};

void note_allocation(std::size_t bytes) {
  if (bytes >= kLargeAllocationBytes &&
      g_count_allocations.load(std::memory_order_relaxed)) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t bytes) {
  note_allocation(bytes);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t bytes, std::align_val_t align) {
  note_allocation(bytes);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((bytes == 0 ? 1 : bytes) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return allocate(bytes); }
void* operator new[](std::size_t bytes) { return allocate(bytes); }
void* operator new(std::size_t bytes, std::align_val_t align) {
  return allocate_aligned(bytes, align);
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return allocate_aligned(bytes, align);
}
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return allocate(bytes);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t bytes, const std::nothrow_t& tag) noexcept {
  return operator new(bytes, tag);
}
void* operator new(std::size_t bytes, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(bytes, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t bytes, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(bytes, align, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ddmc::engine {
namespace {

using dedisp::KernelConfig;
using dedisp::Plan;
using testing::expect_same_matrix;
using testing::mini_obs;
using testing::tiled_config;

const char* const kBuiltins[] = {"cpu_baseline", "cpu_tiled",
                                 "cpu_tiled_u8", "fdmt",
                                 "reference",    "subband"};

/// Per-engine tolerance of the differential harness: 0 means "bitwise".
/// Engines with bitwise_exact = false document an error bound instead —
/// the quantization bound for cpu_tiled_u8, the [-1, 1]-input smearing
/// bound for subband, the smearing + FFT-roundoff bound for fdmt — and
/// the harness enforces that bound.
double equivalence_bound(const DedispEngine& engine,
                         const dedisp::Plan& plan) {
  if (engine.capabilities().bitwise_exact) return 0.0;
  if (engine.id() == "cpu_tiled_u8") {
    return dedisp::quantization_error_bound(plan, engine.options().quant);
  }
  if (engine.id() == "fdmt") {
    return dedisp::fdmt_error_bound(plan, engine.options().subband,
                                    /*max_abs=*/1.0);
  }
  // subband on inputs in [-1, 1]: a shifted channel read changes that
  // channel's contribution by at most 2.
  return 2.0 * static_cast<double>(plan.channels());
}

/// Input with \p slack columns beyond the plan's minimum, so engines with
/// input_padding read real samples instead of zero padding.
Array2D<float> padded_input(const Plan& plan, std::size_t slack,
                            std::uint64_t seed = 7) {
  Array2D<float> in(plan.channels(), plan.in_samples() + slack);
  Rng rng(seed);
  for (std::size_t ch = 0; ch < in.rows(); ++ch) {
    for (auto& v : in.row(ch)) v = rng.next_float(-1.0f, 1.0f);
  }
  return in;
}

Array2D<float> run_engine(const DedispEngine& engine, const Plan& plan,
                          const KernelConfig& config,
                          ConstView2D<float> in) {
  Array2D<float> out(plan.dms(), plan.out_samples());
  engine.execute(plan, tiled_config(config), in, out.view());
  return out;
}

/// Minimal downstream engine: forwards to the reference implementation but
/// reports its own identity — the registry enforces that an engine's id()
/// matches its registration key (the tuning cache keys on it).
class NamedForwardingEngine final : public DedispEngine {
 public:
  NamedForwardingEngine(std::string id, const EngineOptions& options)
      : id_(std::move(id)), inner_(make_engine("reference", options)) {}
  const std::string& id() const override { return id_; }
  const EngineCapabilities& capabilities() const override {
    return inner_->capabilities();
  }
  const EngineOptions& options() const override { return inner_->options(); }
  std::string variant() const override { return inner_->variant(); }
  std::vector<EngineConfig> config_space(const Plan& plan) const override {
    return inner_->config_space(plan);
  }
  EngineRun execute_impl(const Plan& plan, const EngineConfig& config,
                         ConstView2D<float> in,
                         View2D<float> out) const override {
    return inner_->execute(plan, config, in, out);
  }

 private:
  std::string id_;
  std::shared_ptr<const DedispEngine> inner_;
};

EngineRegistry::Factory forwarding_factory(const std::string& id) {
  return [id](const EngineOptions& options) {
    return std::make_shared<const NamedForwardingEngine>(id, options);
  };
}

// ---------------------------------------------------------------- registry --

TEST(EngineRegistry, ListsTheBuiltinEnginesSorted) {
  const std::vector<std::string> ids = EngineRegistry::instance().ids();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  for (const char* id : kBuiltins) {
    EXPECT_TRUE(EngineRegistry::instance().contains(id)) << id;
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
  }
  // The paper's functional device simulator is not an execution path.
  EXPECT_FALSE(EngineRegistry::instance().contains("ocl_sim"));
}

TEST(EngineRegistry, UnknownIdNamesTheAlternatives) {
  try {
    make_engine("gpu_cuda");
    FAIL() << "unknown engine id was accepted";
  } catch (const invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gpu_cuda"), std::string::npos);
    for (const char* id : kBuiltins) {
      EXPECT_NE(what.find(id), std::string::npos)
          << "error should list '" << id << "': " << what;
    }
  }
}

TEST(EngineRegistry, RejectsDoubleRegistration) {
  const std::string id = "engine_test_dummy";
  EngineRegistry::instance().add(id, forwarding_factory(id));
  EXPECT_TRUE(EngineRegistry::instance().contains(id));
  try {
    EngineRegistry::instance().add(id, forwarding_factory(id));
    FAIL() << "double registration was accepted";
  } catch (const invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("already registered"),
              std::string::npos);
  }
}

TEST(EngineRegistry, RejectsEmptyIdAndNullFactory) {
  EXPECT_THROW(
      EngineRegistry::instance().add("", forwarding_factory("")),
      invalid_argument);
  EXPECT_THROW(
      EngineRegistry::instance().add("engine_test_null", nullptr),
      invalid_argument);
}

TEST(EngineRegistry, RejectsAFactoryWhoseEngineReportsAnotherId) {
  // The id is the tuning cache's engine axis: a factory that hands back an
  // engine reporting a different id (the wrap-a-builtin-without-overriding
  // mistake) would share the builtin's cached optima. create() enforces
  // the invariant.
  const std::string id = "engine_test_liar";
  EngineRegistry::instance().add(id, [](const EngineOptions& options) {
    return make_engine("reference", options);  // reports id "reference"
  });
  try {
    make_engine(id);
    FAIL() << "id-mismatched engine was accepted";
  } catch (const invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(id), std::string::npos) << what;
    EXPECT_NE(what.find("reference"), std::string::npos) << what;
  }
}

// ------------------------------------------------------------ capabilities --

TEST(EngineCapabilities, MatrixMatchesTheContract) {
  const auto caps = [](const char* id) {
    return make_engine(id)->capabilities();
  };

  const EngineCapabilities tiled = caps("cpu_tiled");
  EXPECT_TRUE(tiled.supports_sharding);
  EXPECT_TRUE(tiled.supports_streaming);
  EXPECT_TRUE(tiled.bitwise_exact);
  EXPECT_TRUE(tiled.tunable);
  EXPECT_EQ(tiled.input_padding, 0u);
  EXPECT_EQ(tiled.input_element_bytes, sizeof(float));

  // Full capability coverage minus bitwise exactness: the quantized engine
  // shards, streams and tunes like cpu_tiled, declares 1-byte samples and
  // a documented error bound instead of bitwise equality.
  const EngineCapabilities u8 = caps("cpu_tiled_u8");
  EXPECT_TRUE(u8.supports_sharding);
  EXPECT_TRUE(u8.supports_streaming);
  EXPECT_FALSE(u8.bitwise_exact);
  EXPECT_TRUE(u8.tunable);
  EXPECT_EQ(u8.input_padding, 0u);
  EXPECT_EQ(u8.input_element_bytes, 1u);

  const EngineCapabilities baseline = caps("cpu_baseline");
  EXPECT_TRUE(baseline.supports_sharding);
  EXPECT_TRUE(baseline.supports_streaming);
  EXPECT_TRUE(baseline.bitwise_exact);
  EXPECT_FALSE(baseline.tunable);

  const EngineCapabilities reference = caps("reference");
  EXPECT_TRUE(reference.supports_sharding);
  EXPECT_TRUE(reference.supports_streaming);
  EXPECT_TRUE(reference.bitwise_exact);
  EXPECT_FALSE(reference.tunable);

  // The subband engine now declares its own axes (subbands, coarse_step):
  // tunable through the engine-native config space, still not shardable.
  // Both its stages run the tiled kernel, so it runs on the kernel's
  // workers like the tiled engines.
  const EngineCapabilities subband = caps("subband");
  EXPECT_FALSE(subband.supports_sharding);
  EXPECT_TRUE(subband.supports_streaming);
  EXPECT_FALSE(subband.bitwise_exact);
  EXPECT_TRUE(subband.tunable);
  EXPECT_EQ(subband.input_padding, 2u);
  EXPECT_TRUE(subband.threaded);
  EngineOptions scalar;
  scalar.cpu.vectorize = false;
  EXPECT_EQ(make_engine("subband", scalar)->variant(), "scalar");
  EXPECT_EQ(make_engine("subband")->variant(),
            make_engine("cpu_tiled")->variant());

  // The Fourier-domain engine shards (per-shard phase tables compose from
  // the sliced delay tables) and tunes, but does not stream — a chunk
  // window would need a fresh transform per chunk — and is approximate by
  // construction: float FFT roundoff plus (for coarse splits) the same
  // two-stage smearing as subband, documented via fdmt_error_bound.
  const EngineCapabilities fdmt = caps("fdmt");
  EXPECT_TRUE(fdmt.supports_sharding);
  EXPECT_FALSE(fdmt.supports_streaming);
  EXPECT_FALSE(fdmt.bitwise_exact);
  EXPECT_TRUE(fdmt.tunable);
  EXPECT_EQ(fdmt.input_padding, 0u);
  EXPECT_EQ(fdmt.input_element_bytes, sizeof(float));
  EXPECT_FALSE(fdmt.threaded);
}

TEST(EngineCapabilities, VariantsAreSignatureSafe) {
  // The variant feeds the '|'-delimited host signature inside a
  // comma-delimited CSV cell; it must never contain either delimiter.
  for (const char* id : kBuiltins) {
    const std::string variant = make_engine(id)->variant();
    EXPECT_FALSE(variant.empty()) << id;
    EXPECT_EQ(variant.find('|'), std::string::npos) << id;
    EXPECT_EQ(variant.find(','), std::string::npos) << id;
  }
}

/// FNV-1a over \p text(cfg) + '\n' for every config of \p space, in order.
template <typename Text>
std::uint64_t fingerprint(const std::vector<EngineConfig>& space, Text text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const EngineConfig& cfg : space) {
    for (const char c : text(cfg) + "\n") {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

/// "name=default:v,v,… name=…" over \p axes, in declaration order.
std::string describe_axes(const std::vector<AxisSpec>& axes) {
  std::string out;
  for (const AxisSpec& axis : axes) {
    if (!out.empty()) out += ' ';
    out += axis.name + "=" + std::to_string(axis.default_value) + ":";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      out += (i == 0 ? "" : ",") + std::to_string(axis.values[i]);
    }
  }
  return out;
}

TEST(EngineConfigSpace, TiledSpacesArePinned) {
  // The tiled engines' candidate spaces and declared axes, order included,
  // on the benchmark workloads' plans and the strategy bench's. A change
  // here changes which configs every race and sweep measures. The spaces
  // are pruned to the kernels that can win (tiles of at least 128
  // samples, channel blocks of at most 128 channels; bench_host_tuning's
  // ladder study), so the untuned 1x1 shape is no candidate any more.
  struct Pin {
    sky::Observation obs;
    std::size_t dms;
    std::size_t out_samples;
    std::size_t size;
    std::uint64_t fingerprint;
    const char* axes;
  };
  const Pin pins[] = {
      // tune_cold
      {sky::apertif(), 32, 1000, 432, 0xb8aee01fa1d0f17bull,
       "channel_block=0:32,128 "
       "unroll=1:1,2,4 "
       "elem_dm=1:1,2,4,8 "
       "elem_time=1:25,50 "
       "wi_time=1:4,10,20 "
       "wi_dm=1:1,2,4,8,16,32"},
      // apertif_rt
      {sky::apertif(), 256, 2000, 816, 0xc88cc9283542a905ull,
       "channel_block=0:32,128 "
       "unroll=1:1,2,4 "
       "elem_dm=1:1,2,4,8 "
       "elem_time=1:20,25,50 "
       "wi_time=1:4,8,10,20,100 "
       "wi_dm=1:1,2,4,8,16,32"},
      // lofar_rt
      {sky::lofar(), 64, 20000, 816, 0xe8c7b3a159310eb1ull,
       "channel_block=0:0 "
       "unroll=1:1,2,4 "
       "elem_dm=1:1,2,4,8 "
       "elem_time=1:20,25,32,50 "
       "wi_time=1:4,8,10,16,20,25,50,100,125,200,1000 "
       "wi_dm=1:1,2,4,8,16,32"},
      // apertif_lowlat
      {sky::apertif(), 32, 400, 216, 0x248d32657826d2e9ull,
       "channel_block=0:32,128 "
       "unroll=1:1,2,4 "
       "elem_dm=1:1,2,4,8 "
       "elem_time=1:50 "
       "wi_time=1:4,8 "
       "wi_dm=1:1,2,4,8,16,32"},
      // bench_tuner_strategies
      {sky::apertif(), 16, 2000, 498, 0x93a08f1647c74f4bull,
       "channel_block=0:32,128 "
       "unroll=1:1,2,4 "
       "elem_dm=1:1,2,4,8 "
       "elem_time=1:20,25,50 "
       "wi_time=1:4,8,10,20,100 "
       "wi_dm=1:1,2,4,8,16"},
  };
  for (const Pin& pin : pins) {
    const Plan plan =
        Plan::with_output_samples(pin.obs, pin.dms, pin.out_samples);
    for (const char* id : {"cpu_tiled", "cpu_tiled_u8"}) {
      SCOPED_TRACE(std::string(id) + " " + pin.obs.name() + " " +
                   std::to_string(pin.dms) + "x" +
                   std::to_string(pin.out_samples));
      const auto engine = make_engine(id);
      const std::vector<EngineConfig> space = engine->config_space(plan);
      if (!dedisp::runs_register_tile({})) {
        // One-lane builds run every register tile as the scalar loop, so
        // the space is the scalar loop's; the pins hold for the others.
        EngineOptions scalar;
        scalar.cpu.vectorize = false;
        EXPECT_EQ(space, make_engine(id, scalar)->config_space(plan));
        continue;
      }
      EXPECT_EQ(space.size(), pin.size);
      EXPECT_EQ(fingerprint(space, [](const EngineConfig& c) {
                  return c.encode();
                }),
                pin.fingerprint);
      // Every candidate is a kernel that can win; the untuned 1x1 shape is
      // not raced but still runs: it is adapt_kernel_config's fallback.
      for (const EngineConfig& cfg : space) {
        const KernelConfig k = decode_kernel_config(cfg);
        EXPECT_GE(k.tile_time(), 128u) << cfg.to_string();
        EXPECT_LE(k.effective_channel_block(plan), 128u) << cfg.to_string();
      }
      EXPECT_FALSE(std::count(space.begin(), space.end(), EngineConfig{}));
      EXPECT_NO_THROW(engine->validate_config(plan, EngineConfig{}));
      const std::string u8_axis =
          std::string(id) == "cpu_tiled_u8" ? " quant_window=8:8" : "";
      EXPECT_EQ(describe_axes(engine->config_axes(plan)), pin.axes + u8_axis);
    }
  }
  // Execution keys, vectorized and scalar, on the tune_cold plan.
  const Plan plan = Plan::with_output_samples(sky::apertif(), 32, 1000);
  for (const bool vectorize : {true, false}) {
    EngineOptions options;
    options.cpu.vectorize = vectorize;
    const auto engine = make_engine("cpu_tiled", options);
    const std::vector<EngineConfig> space = engine->config_space(plan);
    const bool register_tile = dedisp::runs_register_tile(options.cpu);
    EXPECT_EQ(space.size(), register_tile ? 432u : 48u);
    EXPECT_EQ(fingerprint(space,
                          [&](const EngineConfig& c) {
                            return engine->config_key(plan, c);
                          }),
              register_tile ? 0x7e075a215f7f9987ull : 0x043816274708b9ffull);
  }
}

TEST(EngineConfigSpace, TwoStageSpacesArePinned) {
  // Inside the accuracy cap, subband races only the splits that model at
  // most 2.5x the cheapest split's FLOPs (subband_flop), and fdmt the ones
  // within 1.5x (fdmt_flop) at blocks of at least 2048 bins. On the
  // tune_cold plan that leaves 8 of 47 subband splits and 6 of 32 fdmt
  // splits × 2 blocks.
  const Plan plan = Plan::with_output_samples(sky::apertif(), 32, 1000);
  const std::vector<EngineConfig> subband =
      make_engine("subband")->config_space(plan);
  EXPECT_EQ(subband.size(), 8u);
  const std::vector<EngineConfig> fdmt =
      make_engine("fdmt")->config_space(plan);
  EXPECT_EQ(fdmt.size(), 12u);
  for (const EngineConfig& cfg : fdmt) {
    EXPECT_GE(cfg.get("block", 0), 2048) << cfg.to_string();
  }
  // The configured default split is the coarsest the accuracy cap allows
  // and stays a candidate of both.
  EngineConfig split;
  split.set("subbands", 32).set("coarse_step", 16);
  EXPECT_TRUE(std::count(subband.begin(), subband.end(), split));
  EngineConfig fdmt_split = split;
  fdmt_split.set("block", 2048);
  EXPECT_TRUE(std::count(fdmt.begin(), fdmt.end(), fdmt_split));
}

TEST(EngineConfigSpace, PrunedSpacesHoldTheLadderStudysWinners) {
  // The recorded ladder study (BENCH_host_tuning.json) lists, per
  // instance, the winners: the configs whose fastest call was at or under
  // the best config's median. Pruning may drop a winner that ties another
  // (a 125-sample tile on Apertif at 64 trials ran 4.19 ms against a
  // 200-sample tile's 4.22 ms) but must keep a winner of every instance.
  // Tiled keys name register-tile kernels, which one-lane builds do not
  // run.
  std::ifstream file(std::string(DDMC_SOURCE_DIR) + "/BENCH_host_tuning.json");
  ASSERT_TRUE(file.good());
  std::stringstream text;
  text << file.rdbuf();
  const json::Value recorded = json::parse(text.str());
  const json::Value& studies = recorded.at("studies");
  ASSERT_GT(studies.size(), 0u);
  std::size_t rows = 0, tuned_kept = 0;
  for (std::size_t i = 0; i < studies.size(); ++i) {
    const json::Value& study = studies.at(i);
    const std::string& id = study.at("engine").as_string();
    if (id.starts_with("cpu_tiled") && !dedisp::runs_register_tile({})) {
      continue;
    }
    const auto engine = make_engine(id);
    const json::Value& instances = study.at("instances");
    for (std::size_t j = 0; j < instances.size(); ++j) {
      const json::Value& row = instances.at(j);
      const Plan plan = Plan::with_output_samples(
          study.at("observation").as_string() == "LOFAR" ? sky::lofar()
                                                         : sky::apertif(),
          static_cast<std::size_t>(row.at("dms").as_number()),
          static_cast<std::size_t>(row.at("out_samples").as_number()));
      std::set<std::string> keys;
      for (const EngineConfig& cfg : engine->config_space(plan)) {
        keys.insert(engine->config_key(plan, cfg));
      }
      const json::Value& winners = row.at("winners");
      bool kept = false;
      for (std::size_t w = 0; w < winners.size(); ++w) {
        kept = kept || keys.count(winners.at(w).at("key").as_string()) > 0;
      }
      EXPECT_TRUE(kept) << id << " " << plan.dms() << " trials, "
                        << study.at("threads").as_number() << " threads";
      ++rows;
      tuned_kept += keys.count(row.at("tuned").at("key").as_string());
    }
  }
  // All but the two tied winners above are candidates themselves.
  if (dedisp::runs_register_tile({})) EXPECT_GE(tuned_kept + 2, rows);

  // tune_cold's winner today, and the streaming workloads' pinned configs
  // (bench/ddmc_bench/workloads.cpp, copied): each still validates and is
  // a candidate of its engine's pruned space.
  struct Pinned {
    sky::Observation obs;
    std::size_t dms;
    std::size_t out_samples;
    const char* engine;
    const char* config;
  };
  const Pinned pinned[] = {
      {sky::apertif(), 32, 1000, "subband", "coarse_step=16;subbands=32"},
      {sky::apertif(), 256, 2000, "cpu_tiled",
       "channel_block=32;elem_dm=8;elem_time=50;unroll=4;wi_dm=16;wi_time=8"},
      {sky::lofar(), 64, 20000, "cpu_tiled_u8",
       "elem_time=50;unroll=4;wi_dm=4;wi_time=50"},
      {sky::apertif(), 32, 400, "cpu_tiled",
       "channel_block=32;elem_dm=8;elem_time=50;unroll=4;wi_dm=4;wi_time=4"},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(std::string(p.engine) + " " + p.config);
    const Plan plan = Plan::with_output_samples(p.obs, p.dms, p.out_samples);
    const auto engine = make_engine(p.engine);
    const std::optional<EngineConfig> config = EngineConfig::decode(p.config);
    ASSERT_TRUE(config.has_value());
    EXPECT_NO_THROW(engine->validate_config(plan, *config));
    if (std::string_view(p.engine).starts_with("cpu_tiled") &&
        !dedisp::runs_register_tile({})) {
      continue;
    }
    std::set<std::string> keys;
    for (const EngineConfig& cfg : engine->config_space(plan)) {
      keys.insert(engine->config_key(plan, cfg));
    }
    EXPECT_TRUE(keys.count(engine->config_key(plan, *config)));
  }
}

TEST(EngineCapabilities, ConfigSpaceMatchesTunability) {
  const Plan plan = testing::mini_plan(8, 64);
  for (const char* id : kBuiltins) {
    const auto engine = make_engine(id);
    const std::vector<EngineConfig> space = engine->config_space(plan);
    ASSERT_FALSE(space.empty()) << id;
    if (engine->capabilities().tunable) {
      EXPECT_GT(space.size(), 1u) << id;
    } else {
      EXPECT_EQ(space.size(), 1u) << id;
    }
    for (const EngineConfig& cfg : space) {
      EXPECT_NO_THROW(engine->validate_config(plan, cfg))
          << id << " " << cfg.to_string();
    }
  }
}

TEST(EngineCapabilities, DeclaredAxesAreEngineNative) {
  const Plan plan = testing::mini_plan(8, 64);

  // The tiled engines declare the six kernel axes.
  const auto tiled_axes = make_engine("cpu_tiled")->config_axes(plan);
  std::set<std::string> tiled_names;
  for (const AxisSpec& axis : tiled_axes) tiled_names.insert(axis.name);
  for (const char* name : kKernelAxisNames) {
    EXPECT_TRUE(tiled_names.count(name)) << name;
  }

  // The subband engine declares its own two knobs — the paper's point that
  // profitable axes are kernel-specific — and none of the tile axes.
  const auto subband_axes = make_engine("subband")->config_axes(plan);
  std::set<std::string> subband_names;
  for (const AxisSpec& axis : subband_axes) {
    subband_names.insert(axis.name);
    EXPECT_GT(axis.values.size(), 0u) << axis.name;
  }
  EXPECT_EQ(subband_names,
            (std::set<std::string>{"subbands", "coarse_step"}));

  // The fdmt engine declares the subband split axes plus its Fourier-bin
  // cache-blocking width — again engine-native, no tile axes.
  const auto fdmt_axes = make_engine("fdmt")->config_axes(plan);
  std::set<std::string> fdmt_names;
  for (const AxisSpec& axis : fdmt_axes) {
    fdmt_names.insert(axis.name);
    EXPECT_GT(axis.values.size(), 0u) << axis.name;
  }
  EXPECT_EQ(fdmt_names,
            (std::set<std::string>{"subbands", "coarse_step", "block"}));

  // The u8 engine rides the kernel axes plus its quantization window.
  const auto u8_axes = make_engine("cpu_tiled_u8")->config_axes(plan);
  std::set<std::string> u8_names;
  for (const AxisSpec& axis : u8_axes) u8_names.insert(axis.name);
  EXPECT_TRUE(u8_names.count("quant_window"));
  EXPECT_TRUE(u8_names.count("wi_time"));

  // Non-tunable engines declare nothing.
  EXPECT_TRUE(make_engine("reference")->config_axes(plan).empty());
  EXPECT_TRUE(make_engine("cpu_baseline")->config_axes(plan).empty());
}

TEST(EngineConfigValidation, UnknownAxisNamesTheEngineAndAxis) {
  const Plan plan = testing::mini_plan(8, 64);
  // A tile axis is meaningless to subband; a split axis is meaningless to
  // cpu_tiled. Both reject with the engine and axis named.
  try {
    make_engine("subband")->validate_config(
        plan, EngineConfig{}.set("wi_time", 4));
    FAIL() << "subband accepted a kernel axis";
  } catch (const config_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("subband"), std::string::npos) << what;
    EXPECT_NE(what.find("wi_time"), std::string::npos) << what;
  }
  EXPECT_THROW(make_engine("cpu_tiled")->validate_config(
                   plan, EngineConfig{}.set("subbands", 4)),
               config_error);
  // The empty config is valid for every engine (its untuned defaults).
  for (const char* id : kBuiltins) {
    EXPECT_NO_THROW(make_engine(id)->validate_config(plan, EngineConfig{}))
        << id;
  }
}

TEST(EngineConfigValidation, SubbandRejectsNonDivisorSplits) {
  const Plan plan = testing::mini_plan(8, 64);
  const auto engine = make_engine("subband");
  try {
    engine->validate_config(plan, EngineConfig{}.set("subbands", 3));
    FAIL() << "subband accepted a non-divisor split";
  } catch (const config_error& e) {
    EXPECT_NE(std::string(e.what()).find("subbands"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(
      engine->validate_config(plan, EngineConfig{}.set("coarse_step", 3)),
      config_error);
  EXPECT_NO_THROW(engine->validate_config(
      plan, EngineConfig{}.set("subbands", 4).set("coarse_step", 2)));
}

TEST(EngineConfigValidation, FdmtRejectsForeignAxesAndBadValues) {
  const Plan plan = testing::mini_plan(8, 64);
  const auto engine = make_engine("fdmt");
  // A tile axis is not part of the fdmt parameterization: the rejection
  // names the engine and the axis, like every other engine's.
  try {
    engine->validate_config(plan, EngineConfig{}.set("wi_time", 4));
    FAIL() << "fdmt accepted a kernel axis";
  } catch (const config_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fdmt"), std::string::npos) << what;
    EXPECT_NE(what.find("wi_time"), std::string::npos) << what;
  }
  EXPECT_THROW(engine->validate_config(plan, EngineConfig{}.set("subbands", 3)),
               config_error);
  EXPECT_THROW(
      engine->validate_config(plan, EngineConfig{}.set("coarse_step", 3)),
      config_error);
  EXPECT_THROW(engine->validate_config(plan, EngineConfig{}.set("block", 0)),
               config_error);
  EXPECT_NO_THROW(engine->validate_config(
      plan,
      EngineConfig{}.set("subbands", 4).set("coarse_step", 2).set("block",
                                                                  512)));
}

// ------------------------------------------------------------- equivalence --

TEST(EngineEquivalence, BitwiseEnginesMatchTheReference) {
  const Plan plan = testing::mini_plan(8, 64);
  const Array2D<float> in = padded_input(plan, 0);
  const Array2D<float> expected =
      run_engine(*make_engine("reference"), plan, KernelConfig{1, 1, 1, 1},
                 in.cview());

  for (const char* id : kBuiltins) {
    const auto engine = make_engine(id);
    if (!engine->capabilities().bitwise_exact) continue;
    for (const KernelConfig& cfg :
         {KernelConfig{1, 1, 1, 1}, KernelConfig{8, 2, 4, 2}}) {
      SCOPED_TRACE(std::string(id) + " " + cfg.to_string());
      expect_same_matrix(expected,
                         run_engine(*engine, plan, cfg, in.cview()));
    }
  }
}

TEST(EngineEquivalence, SubbandStaysWithinItsSmearingBoundOnARamp) {
  // On a linear ramp, shifting a channel read by e samples changes its
  // contribution by exactly e, so |subband − reference| per element is
  // bounded by channels × (delay error + rounding slack). This is the
  // engine-level tolerance contract behind bitwise_exact = false.
  const Plan plan = testing::mini_plan(8, 64);
  Array2D<float> in(plan.channels(), plan.in_samples() + 2);
  for (std::size_t ch = 0; ch < in.rows(); ++ch) {
    for (std::size_t t = 0; t < in.cols(); ++t) {
      in(ch, t) = static_cast<float>(t);
    }
  }
  const Array2D<float> expected = run_engine(
      *make_engine("reference"), plan, KernelConfig{1, 1, 1, 1}, in.cview());

  EngineOptions options;
  options.subband = dedisp::SubbandConfig{4, 4};
  const auto engine = make_engine("subband", options);
  const Array2D<float> got =
      run_engine(*engine, plan, KernelConfig{1, 1, 1, 1}, in.cview());
  const double bound =
      static_cast<double>(plan.channels()) *
      (static_cast<double>(dedisp::subband_max_delay_error(
           plan, dedisp::SubbandConfig{4, 4})) +
       2.0);
  for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
    for (std::size_t t = 0; t < plan.out_samples(); ++t) {
      ASSERT_LE(std::abs(got(dm, t) - expected(dm, t)), bound)
          << "dm=" << dm << " t=" << t;
    }
  }
}

TEST(EngineEquivalence, U8StaysWithinItsQuantizationBound) {
  // quantize → dedisperse lands within the documented error bound of the
  // float reference: C channels × half a quantization step (+ accumulation
  // rounding slack), for both the default window and a custom one — and
  // across tiled configs, which must not change the quantized result.
  const Plan plan = testing::mini_plan(8, 64);
  const Array2D<float> in = padded_input(plan, 0);
  const Array2D<float> expected = run_engine(
      *make_engine("reference"), plan, KernelConfig{1, 1, 1, 1}, in.cview());

  for (const float window : {8.0f, 1.0f}) {
    EngineOptions options;
    options.quant = dedisp::QuantizationParams{-window, window};
    const auto engine = make_engine("cpu_tiled_u8", options);
    const double bound =
        dedisp::quantization_error_bound(plan, options.quant);
    SCOPED_TRACE("window=" + std::to_string(window));
    const Array2D<float> first = run_engine(
        *engine, plan, KernelConfig{1, 1, 1, 1}, in.cview());
    for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
      for (std::size_t t = 0; t < plan.out_samples(); ++t) {
        ASSERT_LE(std::abs(first(dm, t) - expected(dm, t)), bound)
            << "dm=" << dm << " t=" << t;
      }
    }
    // The quantized engine is deterministic across its own tile shapes:
    // the codes sum exactly, so every config is bitwise equal to the 1×1
    // run (only vs the float reference is it approximate).
    for (const KernelConfig& cfg :
         {KernelConfig{8, 2, 4, 2}, KernelConfig{16, 1, 2, 4, 4, 2}}) {
      SCOPED_TRACE(cfg.to_string());
      expect_same_matrix(first, run_engine(*engine, plan, cfg, in.cview()));
    }
  }
}

TEST(EngineEquivalence, U8ClampsSamplesOutsideTheQuantizationWindow) {
  // Values beyond [lo, hi] saturate like an ADC instead of wrapping: a
  // narrow window on a bright input still yields outputs within the bound
  // of the *clamped* reference signal.
  const dedisp::QuantizationParams quant{-1.0f, 1.0f};
  EXPECT_EQ(quant.quantize(50.0f), 255u);
  EXPECT_EQ(quant.quantize(-50.0f), 0u);
  EXPECT_EQ(quant.quantize(quant.lo), 0u);
  EXPECT_EQ(quant.quantize(quant.hi), 255u);
  // Round-trip of in-window values stays within half a step.
  for (const float x : {-1.0f, -0.73f, 0.0f, 0.2f, 0.999f}) {
    EXPECT_LE(std::abs(quant.dequantize(quant.quantize(x)) - x),
              0.5f * quant.scale() + 1e-6f)
        << x;
  }
}

TEST(EngineEquivalence, QuantizerMapsNaNToCodeZeroAndKeepsFiniteCodes) {
  // Regression: NaN used to fail both clamp comparisons and reach
  // static_cast<std::uint8_t>(NaN), which is undefined behaviour. It now
  // lands on code 0, like −inf, and no other input changes its code.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const dedisp::QuantizationParams quant :
       {dedisp::QuantizationParams{}, dedisp::QuantizationParams{-1.0f, 1.0f},
        dedisp::QuantizationParams{-3.5f, 100.0f}}) {
    SCOPED_TRACE("window [" + std::to_string(quant.lo) + ", " +
                 std::to_string(quant.hi) + "]");
    EXPECT_EQ(quant.quantize(nan), 0u);
    EXPECT_EQ(quant.quantize(-nan), 0u);
    EXPECT_EQ(quant.quantize(-inf), 0u);
    EXPECT_EQ(quant.quantize(inf), 255u);

    // The previous clamp order, defined for every non-NaN input.
    auto old_code = [&](float x) {
      float t = (x - quant.lo) / quant.scale() + 0.5f;
      t = t < 0.0f ? 0.0f : t;
      t = t > 255.0f ? 255.0f : t;
      return static_cast<std::uint8_t>(t);
    };
    std::size_t checked = 0;
    auto expect_unchanged = [&](float x) {
      ++checked;
      if (quant.quantize(x) != old_code(x)) {
        ADD_FAILURE() << "code changed for x = " << x;
      }
    };
    // Every code boundary, densely: 2^18 points across the window and one
    // window-width beyond either end.
    const float width = quant.hi - quant.lo;
    for (std::size_t i = 0; i <= (1u << 18); ++i) {
      expect_unchanged(quant.lo - width +
                       3.0f * width * static_cast<float>(i) / (1u << 18));
    }
    // Every binade: a strided walk over all finite float bit patterns,
    // denormals, ±0 and ±FLT_MAX included.
    for (std::uint64_t bits = 0; bits <= 0xffffffffu; bits += 40961) {
      const float x = std::bit_cast<float>(static_cast<std::uint32_t>(bits));
      if (std::isfinite(x)) expect_unchanged(x);
    }
    for (const float x : {0.0f, -0.0f, std::numeric_limits<float>::max(),
                          std::numeric_limits<float>::lowest(),
                          std::numeric_limits<float>::denorm_min()}) {
      expect_unchanged(x);
    }
    EXPECT_GT(checked, 300000u);
  }
}

TEST(EngineEquivalence, FdmtStaysWithinItsDocumentedBound) {
  // The engine-level tolerance contract behind fdmt's bitwise_exact =
  // false: on inputs in [-1, 1], |fdmt − reference| per element is bounded
  // by fdmt_error_bound for the split the engine actually ran — across
  // exact and smearing splits, and across block widths (a pure scheduling
  // knob that must not change which bound applies).
  const Plan plan = testing::mini_plan(8, 64);
  const Array2D<float> in = padded_input(plan, 0);
  const Array2D<float> expected = run_engine(
      *make_engine("reference"), plan, KernelConfig{1, 1, 1, 1}, in.cview());

  for (const dedisp::SubbandConfig split :
       {dedisp::SubbandConfig{8, 4}, dedisp::SubbandConfig{4, 4},
        dedisp::SubbandConfig{2, 8}}) {
    EngineOptions options;
    options.subband = split;
    const auto engine = make_engine("fdmt", options);
    const double bound = dedisp::fdmt_error_bound(plan, split);
    for (const std::int64_t block : {std::int64_t{16}, std::int64_t{8192}}) {
      SCOPED_TRACE("subbands=" + std::to_string(split.subbands) +
                   " coarse_step=" + std::to_string(split.coarse_step) +
                   " block=" + std::to_string(block));
      Array2D<float> out(plan.dms(), plan.out_samples());
      engine->execute(plan, EngineConfig{}.set("block", block), in.cview(),
                      out.view());
      for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
        for (std::size_t t = 0; t < plan.out_samples(); ++t) {
          ASSERT_LE(std::abs(out(dm, t) - expected(dm, t)), bound)
              << "dm=" << dm << " t=" << t;
        }
      }
    }
  }
}

TEST(EngineEquivalence, FdmtExactSplitIsRoundoffOnly) {
  // With one channel per subband and no delay-table smearing the composed
  // phase shifts equal the exact per-trial delays, so the bound collapses
  // to pure float-FFT roundoff — orders of magnitude below the smearing
  // term 2·channels. This pins the documented error model: the smearing
  // term vanishes exactly when fdmt_max_delay_error is zero.
  const Plan plan = testing::mini_plan(8, 64);
  const dedisp::SubbandConfig exact{plan.channels(), 1};
  EXPECT_EQ(dedisp::fdmt_max_delay_error(plan, exact), 0);
  const double bound = dedisp::fdmt_error_bound(plan, exact);
  EXPECT_LT(bound, 0.1);  // no 2·channels smearing term

  const Array2D<float> in = padded_input(plan, 0);
  const Array2D<float> expected = run_engine(
      *make_engine("reference"), plan, KernelConfig{1, 1, 1, 1}, in.cview());
  EngineOptions options;
  options.subband = exact;
  Array2D<float> out(plan.dms(), plan.out_samples());
  make_engine("fdmt", options)
      ->execute(plan, EngineConfig{}, in.cview(), out.view());
  for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
    for (std::size_t t = 0; t < plan.out_samples(); ++t) {
      ASSERT_LE(std::abs(out(dm, t) - expected(dm, t)), bound)
          << "dm=" << dm << " t=" << t;
    }
  }
}

TEST(EngineTraffic, FdmtReportsItsTransformFlopsNotThePlanCredit) {
  // PR-9 convention: EngineRun::flop is the engine's *algorithmic* count.
  // The fdmt transform does asymptotically less arithmetic than the
  // brute-force plan credit, and the wrapper must preserve the engine's
  // own stamp instead of overwriting it with the analytic model (the
  // plan's canonical FLOPs stay the display/GFLOP-s denominator).
  const Plan plan = testing::mini_plan(8, 64);
  const Array2D<float> in = padded_input(plan, 0);
  Array2D<float> out(plan.dms(), plan.out_samples());

  const auto engine = make_engine("fdmt");
  const EngineRun run =
      engine->execute(plan, EngineConfig{}, in.cview(), out.view());
  dedisp::FdmtConfig cfg;
  cfg.split = engine->options().subband;
  EXPECT_DOUBLE_EQ(run.flop, dedisp::fdmt_flop(plan, cfg.adapted_to(plan)));

  // The brute-force engines keep the plan's canonical analytic count.
  const EngineRun tiled = make_engine("cpu_tiled")->execute(
      plan, EngineConfig{}, in.cview(), out.view());
  EXPECT_DOUBLE_EQ(tiled.flop, 2.0 * static_cast<double>(plan.channels()) *
                                   static_cast<double>(plan.dms()) *
                                   static_cast<double>(plan.out_samples()));
}

TEST(EngineEquivalence, SubbandZeroPadsInputsWithoutPaddingColumns) {
  // An input with exactly in_samples columns is staged into a zero-padded
  // copy: the result must equal running the engine on an input that
  // carries two explicit zero columns.
  const Plan plan = testing::mini_plan(8, 64);
  Array2D<float> with_zeros = padded_input(plan, 2);
  for (std::size_t ch = 0; ch < with_zeros.rows(); ++ch) {
    with_zeros(ch, plan.in_samples()) = 0.0f;
    with_zeros(ch, plan.in_samples() + 1) = 0.0f;
  }
  const ConstView2D<float> bare(with_zeros.cview().data(), plan.channels(),
                                plan.in_samples(), with_zeros.pitch());

  const auto engine = make_engine("subband");
  const KernelConfig cfg{1, 1, 1, 1};
  expect_same_matrix(run_engine(*engine, plan, cfg, with_zeros.cview()),
                     run_engine(*engine, plan, cfg, bare));
}

TEST(EngineEquivalence, SubbandAdaptsItsSplitToThePlanByGcd) {
  // The default split (32 subbands, coarse step 16) does not divide a
  // mini plan; the engine collapses both by gcd instead of rejecting.
  const Plan plan = testing::mini_plan(6, 40);  // 8 channels, 6 trials
  const Array2D<float> in = padded_input(plan, 2);
  EXPECT_NO_THROW(run_engine(*make_engine("subband"), plan,
                             KernelConfig{1, 1, 1, 1}, in.cview()));
}

/// Randomized cross-engine differential sweep: every engine against the
/// reference over random plan shapes.
TEST(EngineEquivalenceSlowTier, RandomizedPlansAndConfigs) {
  Rng rng(20260730);
  for (int round = 0; round < 12; ++round) {
    const std::size_t channels = 4u << rng.next_below(2);       // 4 or 8
    const std::size_t dms = 4u + 2u * rng.next_below(5);        // 4..12
    const std::size_t out = 24u + 8u * rng.next_below(8);       // 24..80
    const Plan plan =
        Plan::with_output_samples(mini_obs(channels), dms, out);
    const Array2D<float> in = padded_input(plan, 2, 1000 + round);
    SCOPED_TRACE("round " + std::to_string(round) + ": ch=" +
                 std::to_string(channels) + " dms=" + std::to_string(dms) +
                 " out=" + std::to_string(out));

    const Array2D<float> expected =
        run_engine(*make_engine("reference"), plan, KernelConfig{1, 1, 1, 1},
                   in.cview());
    for (const char* id : kBuiltins) {
      const auto engine = make_engine(id);
      SCOPED_TRACE(id);
      const Array2D<float> got = run_engine(
          *engine, plan, KernelConfig{1, 1, 1, 1}, in.cview());
      const double bound = equivalence_bound(*engine, plan);
      if (bound == 0.0) {
        expect_same_matrix(expected, got);
      } else {
        for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
          for (std::size_t t = 0; t < plan.out_samples(); ++t) {
            ASSERT_LE(std::abs(got(dm, t) - expected(dm, t)), bound)
                << "dm=" << dm << " t=" << t;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------- streaming --

TEST(EngineStreaming, EveryStreamingEngineMatchesItsBatchRun) {
  // The capability promise: a session fed *exactly the batch input* (no
  // extra padding columns — what any producer mirroring the batch shape
  // sends) emits, concatenated, exactly the batch output of the same
  // engine on that input — bitwise, including the subband engine: full
  // chunks carry its input_padding as real samples via the widened
  // chunker overlap, and the final flush zero-pads exactly like the
  // batch run does. total_out = 80 also covers the boundary where the
  // last nominally-full chunk cannot complete its padded window and is
  // flushed as a full-length partial instead.
  //
  // Every path a chunk can take runs: inline and pipelined sessions,
  // ragged feeds and blocks large enough for the zero-copy path (a sync
  // session dedisperses the borrowed block, an async one loads it into
  // its chunker), a supervised session that retries one chunk and skips
  // another, and one degraded to subband mid-stream. For cpu_tiled_u8
  // every chunk but a sync session's borrowed window reads the chunker's
  // codes — the flush chunk too, under its adapted config. A session that
  // cannot degrade keeps code windows alone, so its windows and its flush
  // exist only as codes; one that can degrade keeps float windows too,
  // for the chunks it runs degraded. The trace shows where the engine
  // quantized: a borrowed window only.
  enum class Fault { kNone, kRetryAndSkip, kDegrade };
  struct Case {
    const char* name;
    std::size_t chunk;
    bool async;
    bool block;  // one push of the whole input, else 17/3-column feeds
    Fault fault = Fault::kNone;
  };
  const Case cases[] = {
      {"ragged sync", 40, false, false},
      {"ragged async", 40, true, false},
      {"block sync", 20, false, true},
      {"block async", 20, true, true},
      {"retry+skip sync", 20, false, false, Fault::kRetryAndSkip},
      {"retry+skip async", 20, true, false, Fault::kRetryAndSkip},
      {"degrade sync", 20, false, false, Fault::kDegrade},
      {"degrade async", 20, true, false, Fault::kDegrade},
  };
  const sky::Observation obs = mini_obs();
  const std::size_t dms = 6;
  for (const std::size_t total_out : {std::size_t{90}, std::size_t{80}}) {
    const Plan batch_plan = Plan::with_output_samples(obs, dms, total_out);
    const Array2D<float> in = padded_input(batch_plan, 0);
    const Array2D<float> fallback =
        run_engine(*make_engine("subband"), batch_plan,
                   KernelConfig{1, 1, 1, 1}, in.cview());

    // kBuiltins, not ids(): other suites register deliberately broken
    // engines under engine_test_* names in the process-global registry.
    for (const std::string id : kBuiltins) {
      const auto engine = make_engine(id);
      if (!engine->capabilities().supports_streaming) continue;
      const Array2D<float> expected = run_engine(
          *engine, batch_plan, KernelConfig{1, 1, 1, 1}, in.cview());
      for (const Case& c : cases) {
        if (c.fault == Fault::kDegrade && id == "subband") continue;
        SCOPED_TRACE(id + " total_out=" + std::to_string(total_out) + " " +
                     c.name);
        stream::StreamingOptions options;
        options.engine = id;
        options.async = c.async;
        resilience::FaultSpec spec;
        if (c.fault == Fault::kRetryAndSkip) {
          // Chunk 0 passes; chunk 1 fails both attempts and is skipped;
          // chunk 2 fails once and its retry succeeds.
          options.supervision.enabled = true;
          options.supervision.max_chunk_retries = 1;
          options.supervision.degrade_after = 0;
          spec.skip = 1;
          spec.max_fires = 3;
        } else if (c.fault == Fault::kDegrade) {
          // Chunk 1 fails and is skipped, which degrades the session:
          // every later chunk runs on subband.
          options.supervision.enabled = true;
          options.supervision.max_chunk_retries = 0;
          options.supervision.degrade_after = 1;
          options.supervision.degrade_engine = "subband";
          spec.context = 1;
          spec.max_fires = 0;
        }
        std::optional<resilience::ScopedFault> fault;
        if (c.fault != Fault::kNone) fault.emplace("stream.chunk", spec);
        telemetry::Tracer::instance().clear();
        telemetry::Tracer::instance().set_enabled(true);

        struct Delivered {
          std::size_t index, first, out;
        };
        std::vector<Delivered> delivered;
        Array2D<float> streamed(dms, total_out);
        stream::StreamingDedisperser session(
            batch_plan.with_chunk(c.chunk), EngineConfig{},
            [&](const stream::StreamChunk& chunk) {
              for (std::size_t dm = 0; dm < dms; ++dm) {
                for (std::size_t t = 0; t < chunk.out_samples; ++t) {
                  streamed(dm, chunk.first_sample + t) = chunk.output(dm, t);
                }
              }
              delivered.push_back(
                  {chunk.index, chunk.first_sample, chunk.out_samples});
            },
            options);
        std::size_t offset = 0;
        std::size_t step = c.block ? in.cols() : 17;
        while (offset < in.cols()) {
          const std::size_t n = std::min(step, in.cols() - offset);
          session.push(ConstView2D<float>(&in.cview()(0, offset), in.rows(),
                                          n, in.pitch()));
          offset += n;
          if (!c.block) step = step == 17 ? 3 : 17;
        }
        session.close();
        fault.reset();
        telemetry::Tracer::instance().set_enabled(false);
        if (id == "cpu_tiled_u8") {
          std::size_t quantized = 0;
          for (const telemetry::TraceEvent& e :
               telemetry::Tracer::instance().events()) {
            quantized += std::string(e.name) == "u8.quantize";
          }
          if (c.block && !c.async) {
            EXPECT_GT(quantized, 0u);
          } else {
            EXPECT_EQ(quantized, 0u);
          }
        }
        telemetry::Tracer::instance().clear();

        // Every chunk but a skipped one arrives, in order, each starting
        // where the chunk before it ended, and together they cover the
        // batch output — the widened overlap must not eat trailing output.
        const bool skips = c.fault != Fault::kNone;
        std::size_t next = 0;
        for (std::size_t k = 0; k < delivered.size(); ++k) {
          if (skips && k == 1) next += c.chunk;  // chunk 1 was skipped
          EXPECT_EQ(delivered[k].index, skips && k >= 1 ? k + 1 : k);
          EXPECT_EQ(delivered[k].first, next);
          next = delivered[k].first + delivered[k].out;
        }
        EXPECT_EQ(next, total_out);
        if (!skips) {
          expect_same_matrix(expected, streamed);
          continue;
        }
        const resilience::StreamHealth health = session.health();
        EXPECT_EQ(health.chunks_skipped, 1u);
        EXPECT_EQ(health.degraded, c.fault == Fault::kDegrade);
        if (c.fault == Fault::kRetryAndSkip) {
          EXPECT_EQ(health.chunks_retried, 2u);  // the skip retried too
        }
        const auto matches = [&](const Array2D<float>& want,
                                 const Delivered& d) {
          for (std::size_t dm = 0; dm < dms; ++dm) {
            for (std::size_t t = d.first; t < d.first + d.out; ++t) {
              if (want(dm, t) != streamed(dm, t)) return false;
            }
          }
          return true;
        };
        for (const Delivered& d : delivered) {
          SCOPED_TRACE("chunk " + std::to_string(d.index));
          if (c.fault != Fault::kDegrade || d.index < 2) {
            EXPECT_TRUE(matches(expected, d));
          } else if (c.async && d.index == 2) {
            // The compute stage may start chunk 2 before the skip of chunk
            // 1, which degrades the session, is delivered: chunk 2 may run
            // on the session engine. It starts chunk 3 only once that
            // delivery is done, so every later chunk runs degraded.
            EXPECT_TRUE(matches(expected, d) || matches(fallback, d));
          } else {
            EXPECT_TRUE(matches(fallback, d));
          }
        }
      }
    }
  }
}

TEST(EngineStreaming, MultiBeamSubbandSessionHonorsTheConfiguredSplit) {
  // Regression: a multi-beam chunk path once rebuilt its per-beam engines
  // from the cpu knobs alone, silently dropping StreamingOptions::subband
  // and computing with the default split.
  const sky::Observation obs = mini_obs();
  const std::size_t dms = 8;
  const std::size_t total_out = 80;
  const Plan batch_plan = Plan::with_output_samples(obs, dms, total_out);
  const Plan chunk_plan = batch_plan.with_chunk(32);
  const dedisp::SubbandConfig split{2, 2};  // != gcd-adapted default {8, 8}

  EngineOptions engine_options;
  engine_options.subband = split;
  const Array2D<float> in = padded_input(batch_plan, 0);
  const Array2D<float> expected =
      run_engine(*make_engine("subband", engine_options), batch_plan,
                 KernelConfig{1, 1, 1, 1}, in.cview());

  testing::BeamCollector streamed(2, dms, total_out);
  stream::StreamingOptions options;
  options.engine = "subband";
  options.subband = split;
  options.beams = 2;
  stream::StreamingDedisperser session(chunk_plan, EngineConfig{},
                                       std::ref(streamed), options);
  session.push(testing::stack_beams({in, in}).cview());
  session.close();
  for (std::size_t b = 0; b < 2; ++b) {
    SCOPED_TRACE("beam " + std::to_string(b));
    expect_same_matrix(expected, streamed.totals[b]);
  }
}

TEST(EngineStreaming, NonStreamableEngineIsRejectedWithTheCapabilityName) {
  // A multi-beam session gates on the same capability as a single-beam
  // one (see the fdmt test below).
  const Plan chunk_plan = testing::mini_plan(4, 32);
  stream::StreamingOptions options;
  options.engine = "fdmt";
  options.beams = 2;
  try {
    stream::StreamingDedisperser session(chunk_plan, EngineConfig{}, nullptr,
                                         options);
    FAIL() << "streaming session accepted an engine without "
              "supports_streaming";
  } catch (const invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("supports_streaming"), std::string::npos) << what;
    EXPECT_NE(what.find("fdmt"), std::string::npos) << what;
  }
}

TEST(EngineStreaming, FdmtRejectsStreamingWithTheCapabilityName) {
  // fdmt transforms whole channels up front, so a chunk-window session is
  // an undeclared capability: requesting it fails fast with the capability
  // and the engine named, exactly like every other capability gate.
  const Plan chunk_plan = testing::mini_plan(4, 32);
  stream::StreamingOptions options;
  options.engine = "fdmt";
  try {
    stream::StreamingDedisperser session(chunk_plan, EngineConfig{},
                                         nullptr, options);
    FAIL() << "streaming session accepted fdmt";
  } catch (const invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("supports_streaming"), std::string::npos) << what;
    EXPECT_NE(what.find("fdmt"), std::string::npos) << what;
  }
}

// ----------------------------------------------------------------- sharding --

TEST(EngineSharding, CapableEnginesShardConsistently) {
  const Plan plan = Plan::with_output_samples(mini_obs(), 12, 60);
  const Array2D<float> in = padded_input(plan, 0);
  const Array2D<float> reference = run_engine(
      *make_engine("reference"), plan, KernelConfig{1, 1, 1, 1}, in.cview());

  // kBuiltins, not ids(): other suites register deliberately broken
  // engines under engine_test_* names in the process-global registry.
  for (const std::string id : kBuiltins) {
    const auto engine = make_engine(id);
    if (!engine->capabilities().supports_sharding) continue;
    SCOPED_TRACE(id);
    const Array2D<float> expected =
        run_engine(*engine, plan, KernelConfig{1, 1, 1, 1}, in.cview());
    // The deterministic engines (bitwise or not — the u8 engine's exact
    // integer sums shard bitwise too) reproduce their batch run exactly
    // across shard counts. fdmt keeps its split on every shard (it shards
    // on its coarse step), but a shard transforms its own, shorter input
    // span, so its FFT length and with it the roundoff differ from the
    // batch run: each shard is held to the engine's documented reference
    // bound — still the capability promise, since the bound is what the
    // batch run guarantees as well.
    const double bound =
        id == "fdmt" ? equivalence_bound(*engine, plan) : 0.0;
    const EngineConfig whole = engine->adapt_config(plan, EngineConfig{});
    for (std::size_t workers : {1u, 2u, 3u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      pipeline::ShardedOptions options;
      options.workers = workers;
      options.engine = id;
      const pipeline::ShardedDedisperser sharded(
          plan, EngineConfig{}, options);
      // Every shard runs the split (or tile) the whole plan runs: 12
      // trials cut on fdmt's adapted coarse step of 4 give an 8-trial
      // shard at two workers, which re-adapting the default step of 16
      // would have run at a step of 8.
      for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
        SCOPED_TRACE("shard " + std::to_string(i));
        EXPECT_EQ(engine->adapt_config(sharded.shard_plan(i),
                                       sharded.shard_config(i)),
                  whole);
      }
      const Array2D<float> got = sharded.dedisperse(in.cview());
      if (bound == 0.0) {
        expect_same_matrix(expected, got);
      } else {
        for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
          for (std::size_t t = 0; t < plan.out_samples(); ++t) {
            ASSERT_LE(std::abs(got(dm, t) - reference(dm, t)), bound)
                << "dm=" << dm << " t=" << t;
          }
        }
      }
    }
  }
}

TEST(EngineSharding, NonShardableEngineIsRejectedWithTheCapabilityName) {
  const Plan plan = testing::mini_plan(8, 64);
  pipeline::ShardedOptions options;
  options.workers = 2;
  options.engine = "subband";
  try {
    const pipeline::ShardedDedisperser sharded(plan, EngineConfig{},
                                               options);
    FAIL() << "sharded executor accepted an engine without supports_sharding";
  } catch (const invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("supports_sharding"), std::string::npos) << what;
    EXPECT_NE(what.find("subband"), std::string::npos) << what;
  }
}

// -------------------------------------------------------- cross-engine tune --

tuner::GuidedTuningOptions fast_tuning() {
  tuner::GuidedTuningOptions options;
  options.engines = {"cpu_tiled", "subband"};
  options.host.repetitions = 1;
  options.host.warmup_runs = 0;
  options.host.threads = 1;
  options.strategy = tuner::StrategyKind::kRandom;
  options.random_samples = 3;
  return options;
}

TEST(EngineTuning, TuneGuidedSearchesAcrossEngines) {
  const Plan plan = testing::mini_plan(8, 64);
  tuner::TuningCache cache;
  const tuner::GuidedTuningOptions options = fast_tuning();

  const tuner::GuidedTuningOutcome cold =
      tuner::tune_guided(plan, cache, options);
  EXPECT_EQ(cold.source, tuner::GuidedTuningOutcome::Source::kSearch);
  EXPECT_TRUE(cold.engine_id == "cpu_tiled" || cold.engine_id == "subband")
      << cold.engine_id;
  EXPECT_GT(cold.configs_evaluated, 0u);
  EXPECT_NO_THROW(
      make_engine(cold.engine_id)->validate_config(plan, cold.config));

  // Both engines' ladders were resolved and stored under their own ids.
  std::set<std::string> stored;
  for (const tuner::CacheEntry& entry : cache.entries()) {
    stored.insert(entry.host.engine_id);
  }
  EXPECT_EQ(stored, (std::set<std::string>{"cpu_tiled", "subband"}));

  // A warm rerun answers the whole cross-engine comparison from the cache:
  // zero measurements, same winner.
  const tuner::GuidedTuningOutcome warm =
      tuner::tune_guided(plan, cache, options);
  EXPECT_EQ(warm.source, tuner::GuidedTuningOutcome::Source::kCacheHit);
  EXPECT_EQ(warm.configs_evaluated, 0u);
  EXPECT_EQ(warm.engine_id, cold.engine_id);
  EXPECT_EQ(warm.config, cold.config);
}

TEST(EngineTuning, EngineIdPersistsInTheCacheFile) {
  const Plan plan = testing::mini_plan(8, 64);
  const std::string path =
      ::testing::TempDir() + "ddmc_engine_cache_test.csv";
  std::remove(path.c_str());
  const tuner::GuidedTuningOptions options = fast_tuning();
  {
    tuner::TuningCache cache(path);
    tuner::tune_guided(plan, cache, options);
  }
  tuner::TuningCache reloaded(path);
  ASSERT_EQ(reloaded.size(), 2u);
  std::set<std::string> stored;
  for (const tuner::CacheEntry& entry : reloaded.entries()) {
    stored.insert(entry.host.engine_id);
    EXPECT_EQ(entry.host.encode().find(entry.host.engine_id + "|"), 0u);
  }
  EXPECT_EQ(stored, (std::set<std::string>{"cpu_tiled", "subband"}));
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- traffic --

TEST(EngineTraffic, ReportedBytesFollowTheDeclaredElementSize) {
  // Same plan, same work — but the quantized engine streams 1-byte input
  // samples, and every traffic consumer must see that, not sizeof(float).
  const Plan plan = testing::mini_plan(8, 64);
  const Array2D<float> in = padded_input(plan, 0);
  Array2D<float> out(plan.dms(), plan.out_samples());
  const EngineConfig cfg;

  const EngineRun f32 =
      make_engine("cpu_tiled")->execute(plan, cfg, in.cview(), out.view());
  const EngineRun u8 =
      make_engine("cpu_tiled_u8")->execute(plan, cfg, in.cview(), out.view());

  const double c = static_cast<double>(plan.channels());
  const double i = static_cast<double>(plan.in_samples());
  const double d = static_cast<double>(plan.dms());
  const double o = static_cast<double>(plan.out_samples());
  EXPECT_DOUBLE_EQ(f32.bytes, 4.0 * c * i + 4.0 * d * o);
  EXPECT_DOUBLE_EQ(u8.bytes, 1.0 * c * i + 4.0 * d * o);
  EXPECT_DOUBLE_EQ(f32.flop, u8.flop);  // same arithmetic, fewer bytes
  EXPECT_LT(u8.bytes, f32.bytes);

  // Session aggregation consumes the stamped element-size-aware numbers.
  SessionTraffic traffic;
  traffic.add(f32, plan);
  traffic.add(u8, plan);
  EXPECT_DOUBLE_EQ(traffic.bytes, f32.bytes + u8.bytes);
  EXPECT_DOUBLE_EQ(traffic.flop, f32.flop + u8.flop);
}

// ---------------------------------------------------------- config validity --

TEST(EngineConfig, UnsupportedUnrollHintsFailFast) {
  // The tiled kernel compiles exactly the {1,2,4,8} unroll instantiations
  // (dedisp::compiled_register_extent); any other hint used to fall back
  // silently, measuring the un-unrolled loop under the wrong label and
  // poisoning the tuning cache. Validation now rejects it at every entry
  // point.
  const Plan plan = testing::mini_plan(8, 64);
  for (const std::size_t bad : {std::size_t{0}, std::size_t{3},
                                std::size_t{5}, std::size_t{6},
                                std::size_t{7}, std::size_t{16}}) {
    KernelConfig cfg{1, 1, 1, 1};
    cfg.unroll = bad;
    SCOPED_TRACE("unroll=" + std::to_string(bad));
    EXPECT_THROW(cfg.validate(plan), config_error);
    pipeline::Dedisperser dd =
        pipeline::Dedisperser::with_output_samples(mini_obs(), 8, 64,
                                                   "cpu_tiled");
    EXPECT_THROW(dd.set_config(tiled_config(cfg)), config_error);
  }
  // No engine offers an unsupported hint to the tuner (absent axes decode
  // to their neutral defaults, which are supported).
  for (const char* id : kBuiltins) {
    for (const EngineConfig& cfg : make_engine(id)->config_space(plan)) {
      const KernelConfig kc = decode_kernel_config(cfg);
      EXPECT_TRUE(simd::is_supported_unroll(kc.unroll))
          << id << " " << cfg.to_string();
    }
  }
}

TEST(EngineTuning, U8EngineIdRoundTripsThroughTheCacheFile) {
  // The engine id is a cache-signature axis: racing cpu_tiled against
  // cpu_tiled_u8 stores one ladder per id, survives a file round-trip and
  // answers the warm rerun without measuring.
  const Plan plan = testing::mini_plan(8, 64);
  const std::string path =
      ::testing::TempDir() + "ddmc_engine_u8_cache_test.csv";
  std::remove(path.c_str());
  tuner::GuidedTuningOptions options = fast_tuning();
  options.engines = {"cpu_tiled", "cpu_tiled_u8"};
  std::string cold_winner;
  {
    tuner::TuningCache cache(path);
    const tuner::GuidedTuningOutcome cold =
        tuner::tune_guided(plan, cache, options);
    EXPECT_EQ(cold.source, tuner::GuidedTuningOutcome::Source::kSearch);
    EXPECT_TRUE(cold.engine_id == "cpu_tiled" ||
                cold.engine_id == "cpu_tiled_u8")
        << cold.engine_id;
    cold_winner = cold.engine_id;
  }
  tuner::TuningCache reloaded(path);
  ASSERT_EQ(reloaded.size(), 2u);
  std::set<std::string> stored;
  for (const tuner::CacheEntry& entry : reloaded.entries()) {
    stored.insert(entry.host.engine_id);
    EXPECT_EQ(entry.host.encode().find(entry.host.engine_id + "|"), 0u);
  }
  EXPECT_EQ(stored, (std::set<std::string>{"cpu_tiled", "cpu_tiled_u8"}));
  const tuner::GuidedTuningOutcome warm =
      tuner::tune_guided(plan, reloaded, options);
  EXPECT_EQ(warm.source, tuner::GuidedTuningOutcome::Source::kCacheHit);
  EXPECT_EQ(warm.configs_evaluated, 0u);
  EXPECT_EQ(warm.engine_id, cold_winner);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- workspaces --

/// The engines that keep working buffers between calls.
const char* const kWorkspaceEngines[] = {"fdmt", "subband", "cpu_tiled_u8"};

EngineOptions single_threaded() {
  EngineOptions options;
  options.cpu.threads = 1;
  return options;
}

TEST(EngineWorkspace, ConcurrentCallsOnTwoShapesMatchSequentialCalls) {
  // One engine instance, four threads, two plan shapes interleaved: each
  // call must borrow a workspace no other call is writing, so every
  // output is bitwise what a lone sequential call produces.
  const Plan plans[2] = {Plan::with_output_samples(mini_obs(64), 16, 400),
                         Plan::with_output_samples(mini_obs(64), 24, 272)};
  const Array2D<float> inputs[2] = {padded_input(plans[0], 2, 3),
                                    padded_input(plans[1], 2, 4)};
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCallsPerThread = 6;
  for (const char* id : kWorkspaceEngines) {
    SCOPED_TRACE(id);
    const auto engine = make_engine(id, single_threaded());
    std::vector<Array2D<float>> expected;
    for (std::size_t p = 0; p < 2; ++p) {
      const auto fresh = make_engine(id, single_threaded());
      expected.push_back(run_engine(*fresh, plans[p], KernelConfig{},
                                    inputs[p].cview()));
    }
    std::vector<std::vector<Array2D<float>>> outputs(kThreads);
    std::vector<std::thread> workers;
    std::atomic<std::size_t> ready{0};
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (std::size_t k = 0; k < kCallsPerThread; ++k) {
          const std::size_t p = (t + k) % 2;
          outputs[t].push_back(run_engine(*engine, plans[p], KernelConfig{},
                                          inputs[p].cview()));
        }
      });
    }
    for (auto& w : workers) w.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(outputs[t].size(), kCallsPerThread);
      for (std::size_t k = 0; k < kCallsPerThread; ++k) {
        expect_same_matrix(expected[(t + k) % 2], outputs[t][k]);
      }
    }
  }
}

TEST(EnginePool, ConcurrentCallersShareOneEnginesPool) {
  // Each threaded engine resolves its pool once: three workers here, which
  // four callers' executions share. Every output equals the inline one.
  const Plan plan = Plan::with_output_samples(mini_obs(64), 16, 256);
  const Array2D<float> in = padded_input(plan, 2, 11);
  const KernelConfig config{8, 2, 4, 2};  // 32 tiles; ignored by the rest
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kCallsPerCaller = 3;
  for (const char* id :
       {"cpu_tiled", "cpu_tiled_u8", "subband", "cpu_baseline"}) {
    SCOPED_TRACE(id);
    EngineOptions three;
    three.cpu.threads = 3;
    const auto engine = make_engine(id, three);
    ASSERT_TRUE(engine->capabilities().threaded);
    EXPECT_EQ(engine->threads(), 3u);
    const Array2D<float> expected =
        run_engine(*make_engine(id, single_threaded()), plan, config,
                   in.cview());
    std::vector<std::vector<Array2D<float>>> outputs(kCallers);
    std::vector<std::thread> callers;
    std::atomic<std::size_t> ready{0};
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        ready.fetch_add(1);
        while (ready.load() < kCallers) std::this_thread::yield();
        for (std::size_t k = 0; k < kCallsPerCaller; ++k) {
          outputs[c].push_back(run_engine(*engine, plan, config, in.cview()));
        }
      });
    }
    for (auto& caller : callers) caller.join();
    for (std::size_t c = 0; c < kCallers; ++c) {
      ASSERT_EQ(outputs[c].size(), kCallsPerCaller);
      for (const Array2D<float>& out : outputs[c]) {
        expect_same_matrix(expected, out);
      }
    }
  }
}

TEST(EngineWorkspace, RepeatedCallAllocatesNoLargeBlock) {
  // Apertif-sized channels so every kept buffer is well above the 64 KiB
  // threshold: the fdmt spectra, the subband stage-1 plane and the u8
  // byte plane. The first call sizes the engine's workspace; the second,
  // identical call must find everything in place.
  const Plan plan = Plan::with_output_samples(sky::apertif(), 16, 512);
  const Array2D<float> in = padded_input(plan, 2);
  Array2D<float> out(plan.dms(), plan.out_samples());
  for (const char* id : kWorkspaceEngines) {
    SCOPED_TRACE(id);
    const auto engine = make_engine(id, single_threaded());
    engine->execute(plan, EngineConfig{}, in.cview(), out.view());
    g_large_allocations.store(0);
    g_count_allocations.store(true);
    engine->execute(plan, EngineConfig{}, in.cview(), out.view());
    g_count_allocations.store(false);
    EXPECT_EQ(g_large_allocations.load(), 0u);
  }
  // The accounting itself works: a fresh engine's first call allocates.
  const auto fresh = make_engine("fdmt", single_threaded());
  g_large_allocations.store(0);
  g_count_allocations.store(true);
  fresh->execute(plan, EngineConfig{}, in.cview(), out.view());
  g_count_allocations.store(false);
  EXPECT_GT(g_large_allocations.load(), 0u);
}

TEST(EngineWorkspace, MultiBeamSessionChunkAllocatesNoLargeBlock) {
  // A multi-beam streaming session allocates its windows and its B·dms
  // output buffer once: a full chunk after the first finds the engine's
  // workspace (the u8 byte plane) and every buffer in place.
  const Plan batch = Plan::with_output_samples(sky::apertif(), 16, 3 * 128);
  const Plan chunk = batch.with_chunk(128);
  const Array2D<float> in = padded_input(batch, 0);
  const Array2D<float> stacked = testing::stack_beams({in, in});
  stream::StreamingOptions options;
  options.engine = "cpu_tiled_u8";
  options.cpu.threads = 1;
  options.async = false;
  options.beams = 2;
  std::size_t calls = 0;
  stream::StreamingDedisperser session(
      chunk, EngineConfig{}, [&](const stream::StreamChunk&) { ++calls; },
      options);
  const auto columns = [&](std::size_t from, std::size_t to) {
    return ConstView2D<float>(&stacked.cview()(0, from), stacked.rows(),
                              to - from, stacked.pitch());
  };
  const std::size_t first = chunk.in_samples();
  session.push(columns(0, first));  // chunk 0 sizes everything
  ASSERT_EQ(calls, 2u);
  g_large_allocations.store(0);
  g_count_allocations.store(true);
  session.push(columns(first, first + 128));  // chunk 1
  g_count_allocations.store(false);
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(g_large_allocations.load(), 0u);
}

TEST(EngineWorkspace, StableSortScratchGoesThroughTheReplacedAllocator) {
  // std::stable_sort asks for a temporary buffer of half the range through
  // the nothrow operator new and hands it back through operator delete.
  // Under ASan a nothrow new left unreplaced is the sanitizer's own, so
  // the replaced delete's free() of that 128 KiB buffer fails here with
  // alloc-dealloc-mismatch. The count shows the buffer came from this
  // binary's allocator.
  std::vector<std::pair<int, int>> values(32 * 1024);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = {static_cast<int>((i * 7919) % 97), static_cast<int>(i)};
  }
  g_large_allocations.store(0);
  g_count_allocations.store(true);
  std::stable_sort(values.begin(), values.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  g_count_allocations.store(false);
  EXPECT_GT(g_large_allocations.load(), 0u);
  for (std::size_t i = 1; i < values.size(); ++i) {
    ASSERT_TRUE(values[i - 1].first < values[i].first ||
                (values[i - 1].first == values[i].first &&
                 values[i - 1].second < values[i].second))
        << "order or stability broken at " << i;
  }
}

// ------------------------------------------------------------- dedisperser --

TEST(EngineDedisperser, SelectsAnyRegisteredEngineByName) {
  // The high-level API takes a registry id, not an enum: an engine added
  // by downstream code is immediately usable.
  const std::string id = "engine_test_alias";
  if (!EngineRegistry::instance().contains(id)) {
    EngineRegistry::instance().add(id, forwarding_factory(id));
  }
  pipeline::Dedisperser dd =
      pipeline::Dedisperser::with_output_samples(mini_obs(), 8, 64, id);
  pipeline::Dedisperser ref =
      pipeline::Dedisperser::with_output_samples(mini_obs(), 8, 64,
                                                 "reference");
  const Array2D<float> in = padded_input(dd.plan(), 0);
  expect_same_matrix(ref.dedisperse(in.cview()), dd.dedisperse(in.cview()));
}

}  // namespace
}  // namespace ddmc::engine
