#pragma once
/// Shared fixtures: a miniature observation whose delay table is small
/// enough for exhaustive functional simulation, deterministic random inputs,
/// and exact matrix comparison (implementations are bit-identical by design).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

/// \p beams (each C × n) stacked along the rows, beam b at rows
/// [b·C, (b+1)·C): the block layout of a multi-beam streaming session.
inline Array2D<float> stack_beams(const std::vector<Array2D<float>>& beams) {
  const std::size_t channels = beams.at(0).rows();
  Array2D<float> stacked(beams.size() * channels, beams[0].cols());
  for (std::size_t b = 0; b < beams.size(); ++b) {
    for (std::size_t ch = 0; ch < channels; ++ch) {
      const auto from = beams[b].cview().row(ch);
      std::copy(from.begin(), from.end(),
                stacked.view().row(b * channels + ch).begin());
    }
  }
  return stacked;
}

/// Reassembles a multi-beam session's sink calls into one dms × total
/// matrix per beam, by StreamChunk::beam and first_sample, and checks that
/// every chunk reaches the sink once per beam, in beam order.
struct BeamCollector {
  std::vector<Array2D<float>> totals;
  std::size_t calls = 0;

  BeamCollector(std::size_t beams, std::size_t dms, std::size_t out) {
    for (std::size_t b = 0; b < beams; ++b) totals.emplace_back(dms, out);
  }

  template <typename Chunk>
  void operator()(const Chunk& chunk) {
    EXPECT_EQ(chunk.beam, calls % totals.size()) << "chunk " << chunk.index;
    ++calls;
    Array2D<float>& total = totals.at(chunk.beam);
    ASSERT_EQ(chunk.output.rows(), total.rows());
    ASSERT_LE(chunk.first_sample + chunk.out_samples, total.cols());
    for (std::size_t dm = 0; dm < total.rows(); ++dm) {
      for (std::size_t t = 0; t < chunk.out_samples; ++t) {
        total(dm, chunk.first_sample + t) = chunk.output(dm, t);
      }
    }
  }
};

}  // namespace ddmc::testing
