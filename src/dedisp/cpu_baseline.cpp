#include "dedisp/cpu_baseline.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace ddmc::dedisp {

namespace {

/// Dedisperse one trial over samples [t0, t1), 8 samples at a time. The
/// chunk loop bodies are independent across lanes, which is exactly the
/// shape auto-vectorizers turn into packed AVX adds.
void process_block(const Plan& plan, ConstView2D<float> in,
                   View2D<float> out, std::size_t dm, std::size_t t0,
                   std::size_t t1) {
  const sky::DelayTable& delays = plan.delays();
  const std::size_t channels = plan.channels();
  constexpr std::size_t kLanes = 8;

  std::size_t t = t0;
  for (; t + kLanes <= t1; t += kLanes) {
    float acc[kLanes] = {};
    for (std::size_t ch = 0; ch < channels; ++ch) {
      const auto shift = static_cast<std::size_t>(delays.delay(dm, ch));
      const float* src = &in(ch, t + shift);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        acc[lane] += src[lane];
      }
    }
    float* dst = &out(dm, t);
    for (std::size_t lane = 0; lane < kLanes; ++lane) dst[lane] = acc[lane];
  }
  // Scalar tail for block lengths that are not a multiple of 8.
  for (; t < t1; ++t) {
    float acc = 0.0f;
    for (std::size_t ch = 0; ch < channels; ++ch) {
      const auto shift = static_cast<std::size_t>(delays.delay(dm, ch));
      acc += in(ch, t + shift);
    }
    out(dm, t) = acc;
  }
}

}  // namespace

void dedisperse_cpu_baseline(const Plan& plan, ConstView2D<float> in,
                             View2D<float> out,
                             const CpuBaselineOptions& options,
                             ThreadPool* pool) {
  DDMC_REQUIRE(in.rows() == plan.channels(), "input rows != channels");
  DDMC_REQUIRE(in.cols() >= plan.in_samples(), "input too short");
  DDMC_REQUIRE(out.rows() == plan.dms(), "output rows != trial DMs");
  DDMC_REQUIRE(out.cols() >= plan.out_samples(), "output too short");
  DDMC_REQUIRE(options.time_block > 0, "time block must be positive");

  const std::size_t samples = plan.out_samples();
  const std::size_t blocks_per_dm = ceil_div(samples, options.time_block);
  const std::size_t total = plan.dms() * blocks_per_dm;

  auto run_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t unit = begin; unit < end; ++unit) {
      const std::size_t dm = unit / blocks_per_dm;
      const std::size_t block = unit % blocks_per_dm;
      const std::size_t t0 = block * options.time_block;
      const std::size_t t1 = std::min(samples, t0 + options.time_block);
      process_block(plan, in, out, dm, t0, t1);
    }
  };

  if (pool == nullptr) {
    run_range(0, total);
    return;
  }
  const std::size_t chunk =
      std::max<std::size_t>(1, total / (pool->worker_count() * 4));
  pool->parallel_for(0, total, chunk, run_range);
}

Array2D<float> dedisperse_cpu_baseline(const Plan& plan,
                                       ConstView2D<float> in,
                                       const CpuBaselineOptions& options,
                                       ThreadPool* pool) {
  Array2D<float> out(plan.dms(), plan.out_samples());
  dedisperse_cpu_baseline(plan, in, out.view(), options, pool);
  return out;
}

}  // namespace ddmc::dedisp
