#pragma once
/// \file kernel_config.hpp
/// \brief The four user-controlled parameters of the many-core kernel.
///
/// §III-B: "The general structure of the algorithm can be specifically
/// instantiated by configuring four user-controlled parameters. Two
/// parameters control the number of work-items per work-group in the time
/// and DM dimensions, regulating the amount of available parallelism. The
/// other two control the number of elements a single work-item computes,
/// also in the time and DM dimensions, regulating the amount of work per
/// work-item."
///
/// A work-group owns a tile of `tile_dm() = wi_dm*elem_dm` trial DMs by
/// `tile_time() = wi_time*elem_time` output samples; each work-item keeps
/// its `elem_dm*elem_time` accumulators in registers.
///
/// The host engine adds two knobs on top of the paper's four, both
/// defaulted so that every device-model consumer keeps its semantics:
///  - `channel_block`: channels accumulated per pass over a tile before
///    moving to the next block (0 = all channels in one pass). Blocking
///    keeps the block's input rows and the tile's accumulators resident in
///    L1/L2 — the host analogue of sizing local memory on a device.
///  - `unroll`: SIMD vectors per inner-loop iteration of the vectorized
///    accumulate (1 = no unrolling).

#include <cstddef>
#include <string>
#include <vector>

#include "dedisp/plan.hpp"

namespace ddmc::dedisp {

struct KernelConfig {
  std::size_t wi_time = 1;    ///< work-items per work-group, time dimension
  std::size_t wi_dm = 1;      ///< work-items per work-group, DM dimension
  std::size_t elem_time = 1;  ///< output samples computed per work-item
  std::size_t elem_dm = 1;    ///< trial DMs computed per work-item
  /// Host-engine knob: channels per accumulation pass (0 = all channels).
  std::size_t channel_block = 0;
  /// Host-engine knob: SIMD vectors per inner-loop step (1 = none).
  std::size_t unroll = 1;

  /// Output samples covered by one work-group.
  std::size_t tile_time() const { return wi_time * elem_time; }
  /// Trial DMs covered by one work-group.
  std::size_t tile_dm() const { return wi_dm * elem_dm; }
  /// Work-items per work-group (the quantity plotted in Figs. 2–3).
  std::size_t work_group_size() const { return wi_time * wi_dm; }
  /// Accumulator registers per work-item (the quantity plotted in
  /// Figs. 4–5): one register per output element a work-item produces.
  std::size_t accumulators_per_item() const { return elem_time * elem_dm; }

  /// Grid extent for a plan (work-groups in each dimension).
  std::size_t groups_time(const Plan& plan) const {
    return plan.out_samples() / tile_time();
  }
  std::size_t groups_dm(const Plan& plan) const {
    return plan.dms() / tile_dm();
  }
  std::size_t total_groups(const Plan& plan) const {
    return groups_time(plan) * groups_dm(plan);
  }

  /// True when both tile dimensions evenly divide the plan (the generated
  /// kernel has no remainder handling, as in the paper's implementation).
  bool divides(const Plan& plan) const {
    return tile_time() != 0 && tile_dm() != 0 &&
           plan.out_samples() % tile_time() == 0 &&
           plan.dms() % tile_dm() == 0;
  }

  /// Channels accumulated per pass for \p plan: `channel_block` clamped to
  /// the channel count, with 0 meaning "all channels in one pass".
  std::size_t effective_channel_block(const Plan& plan) const {
    const std::size_t channels = plan.channels();
    return (channel_block == 0 || channel_block > channels) ? channels
                                                            : channel_block;
  }

  /// Throws ddmc::config_error with a precise reason when the config cannot
  /// run on \p plan (zero parameter or non-dividing tiles).
  void validate(const Plan& plan) const;

  std::string to_string() const;

  friend bool operator==(const KernelConfig&, const KernelConfig&) = default;
};

/// Candidate ladder per KernelConfig parameter. §IV-A: "The algorithm is
/// executed for every meaningful combination of the four parameters"; the
/// ladders are powers of two plus the divisors of the paper's sampling
/// rates, which is how configurations like 250×4 arise on LOFAR. The
/// device-model enumeration (tuner::enumerate_configs) walks the four paper
/// axes; the tiled host engines also walk channel_block and unroll.
struct SearchSpace {
  std::vector<std::size_t> wi_time;
  std::vector<std::size_t> wi_dm;
  std::vector<std::size_t> elem_time;
  std::vector<std::size_t> elem_dm;
  /// Host-engine axes; 0 in channel_block means "all channels in one pass".
  std::vector<std::size_t> channel_block;
  std::vector<std::size_t> unroll;
};

/// The default ladder used by every experiment in this repository.
SearchSpace default_search_space();

}  // namespace ddmc::dedisp
