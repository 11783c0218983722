#pragma once
/// Shared fixtures: a miniature observation whose delay table is small
/// enough for exhaustive functional simulation, deterministic random inputs,
/// and exact matrix comparison (implementations are bit-identical by design).

#include <gtest/gtest.h>

#include "common/array2d.hpp"
#include "common/random.hpp"
#include "dedisp/kernel_config.hpp"
#include "dedisp/plan.hpp"
#include "engine/engine_config.hpp"
#include "sky/observation.hpp"

namespace ddmc::testing {

/// 8-channel toy band, 100 samples/s: unit DM delays span ~3–29 samples.
inline sky::Observation mini_obs(std::size_t channels = 8,
                                 double dm_step = 0.5) {
  return sky::Observation("mini", 100.0, channels, 100.0, 10.0, 0.0, dm_step);
}

/// Small plan used by most functional tests: 8 trials × 64 output samples.
inline dedisp::Plan mini_plan(std::size_t dms = 8, std::size_t out = 64) {
  return dedisp::Plan::with_output_samples(mini_obs(), dms, out);
}

/// A tiled-kernel shape as the six kernel axes: the EngineConfig the
/// engines and sessions take.
inline engine::EngineConfig tiled_config(const dedisp::KernelConfig& config) {
  return engine::encode_kernel_config(config);
}

/// Deterministic pseudo-random input matrix for a plan.
inline Array2D<float> random_input(const dedisp::Plan& plan,
                                   std::uint64_t seed = 7) {
  Array2D<float> in(plan.channels(), plan.in_samples());
  Rng rng(seed);
  for (std::size_t ch = 0; ch < in.rows(); ++ch) {
    for (auto& v : in.row(ch)) v = rng.next_float(-1.0f, 1.0f);
  }
  return in;
}

/// Exact (bitwise) equality of two float matrices.
inline void expect_same_matrix(const Array2D<float>& expected,
                               const Array2D<float>& actual) {
  ASSERT_EQ(expected.rows(), actual.rows());
  ASSERT_EQ(expected.cols(), actual.cols());
  for (std::size_t r = 0; r < expected.rows(); ++r) {
    for (std::size_t c = 0; c < expected.cols(); ++c) {
      ASSERT_EQ(expected(r, c), actual(r, c))
          << "mismatch at (" << r << ", " << c << ")";
    }
  }
}

}  // namespace ddmc::testing
