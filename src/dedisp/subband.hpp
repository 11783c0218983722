#pragma once
/// \file subband.hpp
/// \brief Two-stage (subband) dedispersion.
///
/// The standard algorithmic optimization in this family of codes (used by
/// PRESTO and the authors' later AMBER pipeline, and the natural "future
/// work" extension of the paper's brute-force kernel): instead of shifting
/// every channel for every trial DM (O(d·s·c)), first dedisperse groups of
/// adjacent channels ("subbands") at a coarse grid of DMs — within a narrow
/// subband the delay varies slowly — then combine the subband series with
/// inter-subband shifts for every fine trial (O(d_coarse·s·c + d·s·n_sub)).
///
/// The result is an approximation: each fine trial reuses the intra-subband
/// shifts of its nearest coarse trial, smearing the signal by at most the
/// intra-subband delay error. With one channel per subband and a coarse
/// step of one the method degenerates to exact brute force, which is the
/// equivalence anchor the tests use.
///
/// Both stages are brute-force dedispersions over a smaller delay table
/// (Barsdell et al., arXiv:1201.5380) and run through the tiled kernel
/// (cpu_kernel.hpp): stage 1 over the intra-subband delays, stage 2 over
/// the inter-subband ones, one dispatch each per block of coarse trials.
/// The result does not depend on SIMD width, tile shape or thread count.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/array2d.hpp"
#include "common/workspace.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "dedisp/plan.hpp"

namespace ddmc::dedisp {

struct SubbandConfig {
  /// Number of subbands; must divide the observation's channel count.
  std::size_t subbands = 32;
  /// Fine trials per coarse trial; must divide the plan's trial count.
  std::size_t coarse_step = 16;

  /// This split adapted to \p plan: subbands collapses to its gcd with the
  /// channel count and coarse_step to its gcd with the trial count (both
  /// ≥ 1), so any plan runs. Shrinking either only makes the approximation
  /// *more* exact.
  SubbandConfig adapted_to(const Plan& plan) const;

  /// Throws ddmc::invalid_argument unless both parameters are positive and
  /// divide \p plan (the subband and fdmt engines share this rule).
  void validate(const Plan& plan) const;
};

/// Floating point operations of the two-stage method for \p plan
/// (stage 1: d/coarse_step · s · c; stage 2: d · s · subbands).
double subband_flop(const Plan& plan, const SubbandConfig& config);

/// Largest intra-subband delay error in samples introduced by reusing a
/// coarse trial's shifts — the smearing bound of the approximation.
std::int64_t subband_max_delay_error(const Plan& plan,
                                     const SubbandConfig& config);

/// Exact input columns dedisperse_subband reads for \p plan under
/// \p config: out_samples + the worst split delay (max intra + max inter,
/// each rounded separately). Bounded by in_samples + 2; often equal to
/// in_samples, in which case no padding is needed at all.
std::size_t subband_min_input_samples(const Plan& plan,
                                      const SubbandConfig& config);

/// What the split delay tables are computed from: the observation's band
/// and sampling, the plan's trial-DM grid and the split. Two plans with
/// equal keys have equal tables, whatever their output windows (a chunk
/// plan and its flush plan share one key).
struct SubbandSplitKey {
  double sampling_rate = 0.0;
  double f_min_mhz = 0.0;
  double channel_bw_mhz = 0.0;
  std::size_t channels = 0;
  double dm_first = 0.0;
  double dm_step = 0.0;
  std::size_t dms = 0;
  std::size_t subbands = 0;
  std::size_t coarse_step = 0;

  static SubbandSplitKey of(const Plan& plan, const SubbandConfig& config);

  friend bool operator==(const SubbandSplitKey&, const SubbandSplitKey&) =
      default;
};

/// The buffers dedisperse_subband works in, kept between calls: the split
/// delay tables of the last call's key (\p intra: coarse trials × channels,
/// \p inter: trials × subbands, and their largest delays), the stage-1
/// plane (the subband series of one block of coarse trials, at most 4 MiB
/// unless one coarse trial needs more) and the stage jobs. A call with the
/// same key reuses the tables; any other key rebuilds them. The buffers
/// grow when a call's shape needs more and are otherwise reused. One call
/// at a time per workspace.
struct SubbandWorkspace {
  std::optional<SubbandSplitKey> split_key;
  std::vector<std::int64_t> inter;
  std::vector<std::int64_t> intra;
  std::int64_t max_intra = 0;
  std::int64_t max_inter = 0;
  ScratchBuffer<float> stage1;
  std::vector<TileJob<float>> jobs;
};

/// Two-stage dedispersion into \p out (dms × out_samples), working in
/// \p workspace, with \p options' vectorization, both stages of every
/// block on \p pool (inline without one). The stage
/// tiles hold at most eight trials, so they read their rows in place
/// (staging_pays). The input must provide in_samples + 2 columns
/// (delay splitting rounds the intra and inter shifts separately, costing
/// up to two extra samples).
void dedisperse_subband(const Plan& plan, const SubbandConfig& config,
                        ConstView2D<float> in, View2D<float> out,
                        SubbandWorkspace& workspace,
                        const CpuKernelOptions& options = {},
                        ThreadPool* pool = nullptr);

}  // namespace ddmc::dedisp
