#include "dedisp/cpu_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "common/expect.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"

namespace ddmc::dedisp {

namespace {

/// The element-type-dependent instructions of the float-lane tile: a full
/// and a partial vector load of input samples into float lanes. Bytes
/// widen here, or into 16-bit lanes in accumulate_codes, inside the
/// register tile and nowhere else.
inline simd::vfloat load(const float* p) { return simd::vload(p); }
inline simd::vfloat load(const std::uint8_t* p) { return simd::vload_u8(p); }
inline simd::vfloat load_partial(const float* p, std::size_t n) {
  return simd::vload_partial(p, n);
}
inline simd::vfloat load_partial(const std::uint8_t* p, std::size_t n) {
  return simd::vload_u8_partial(p, n);
}

/// Per-worker scratch, reused across tiles so the hot loop never allocates.
template <typename T>
struct TileScratch {
  /// Tile accumulators, tile_dm rows of acc_pitch floats each — the union
  /// of every work-item's register file in this group. Rows are padded to
  /// the SIMD width so vector loads never cross into the next row.
  std::vector<float, AlignedAllocator<float>> acc;
  std::size_t acc_pitch = 0;
  /// Staged input rows of the current (tile, channel-block), one pitched
  /// row of input elements per channel — the engine's "local memory".
  std::vector<T, AlignedAllocator<T>> staging;
  /// Per-channel base pointer of the current block (staged row or a
  /// pointer straight into the input matrix).
  std::vector<const T*> src;
  /// Delay/shift table of the current DM tile, all channels:
  /// shifts[ch * tile_dm + dm] = Δ(dm0+dm, ch) − lo[ch].
  std::vector<std::size_t> shifts;
  /// Per-channel smallest delay over the tile's trials.
  std::vector<std::size_t> lo;
  /// Per-channel delay spread over the tile's trials (largest − smallest);
  /// a tile of n samples stages spread + n input elements of the channel.
  std::vector<std::size_t> spread;
  /// First delay-table row of the DM tile the table was built for: the
  /// time tiles of one DM row (swept innermost) reuse the table.
  const std::int64_t* shifts_row = nullptr;
};

/// Precompute the shift table of every channel for the trials
/// [dm0, dm0+tile_dm) of \p delays, unless the scratch already holds it.
/// The smallest and largest delay are scanned exactly (no
/// monotonicity-in-DM assumption), so a pathological delay table sizes the
/// staging buffer correctly instead of reading past it; a delay beyond
/// \p max_delay, the input's slack past the output length, is rejected.
template <typename T>
void build_shift_table(ConstView2D<std::int64_t> delays, std::size_t dm0,
                       std::size_t tile_dm, std::size_t max_delay,
                       TileScratch<T>& s) {
  if (s.shifts_row == &delays(dm0, 0)) return;
  const std::size_t channels = delays.cols();
  s.shifts.resize(channels * tile_dm);
  s.lo.resize(channels);
  s.spread.resize(channels);
  for (std::size_t ch = 0; ch < channels; ++ch) {
    std::size_t lo = static_cast<std::size_t>(delays(dm0, ch));
    std::size_t hi = lo;
    std::size_t* row = &s.shifts[ch * tile_dm];
    for (std::size_t dm = 0; dm < tile_dm; ++dm) {
      const auto d = static_cast<std::size_t>(delays(dm0 + dm, ch));
      row[dm] = d;
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    DDMC_REQUIRE(hi <= max_delay,
                 "input too short for the delay table's largest delay");
    for (std::size_t dm = 0; dm < tile_dm; ++dm) row[dm] -= lo;
    s.lo[ch] = lo;
    s.spread[ch] = hi - lo;
  }
  s.shifts_row = &delays(dm0, 0);
}

#if defined(DDMC_SIMD_CODE_LANES)
/// The most channels whose byte codes a 16-bit lane can sum without
/// wrapping: 255 · 257 = 65 535.
constexpr std::size_t kCodeSumChannels = 257;

/// The u8 register tile's full steps for rows [dm0, dm0+DR): the same
/// DR × (U·kFloatLanes) patch as the float tile, held as DR × U/2 vectors
/// of 16-bit code sums. The channel loop runs in sub-blocks of at most
/// kCodeSumChannels, each widened exactly into the accumulator rows, so
/// every partial sum equals the float tile's exact integer. Returns the
/// first sample the steps left for the single-vector remainder.
template <std::size_t DR, std::size_t U>
std::size_t accumulate_codes(const TileScratch<std::uint8_t>& s,
                             std::size_t cb0, std::size_t nch,
                             std::size_t tile_dm, std::size_t dm0,
                             std::size_t tile_time, float* acc,
                             std::size_t acc_pitch) {
  static_assert(simd::kCodeLanes == 2 * simd::kFloatLanes);
  constexpr std::size_t kW = simd::kCodeLanes;
  constexpr std::size_t kV = U / 2;
  constexpr std::size_t kStep = kV * kW;
  std::size_t t = 0;
  for (; t + kStep <= tile_time; t += kStep) {
    for (std::size_t c0 = 0; c0 < nch; c0 += kCodeSumChannels) {
      const std::size_t c1 = std::min(nch, c0 + kCodeSumChannels);
      simd::vcode regs[DR][kV];
      for (std::size_t d = 0; d < DR; ++d) {
        for (std::size_t v = 0; v < kV; ++v) regs[d][v] = simd::vcode_zero();
      }
      for (std::size_t c = c0; c < c1; ++c) {
        const std::size_t* shift = &s.shifts[(cb0 + c) * tile_dm + dm0];
        const std::uint8_t* base = s.src[c] + t;
        for (std::size_t d = 0; d < DR; ++d) {
          const std::uint8_t* p = base + shift[d];
          for (std::size_t v = 0; v < kV; ++v) {
            regs[d][v] = simd::vcode_add_u8(regs[d][v], p + v * kW);
          }
        }
      }
      for (std::size_t d = 0; d < DR; ++d) {
        for (std::size_t v = 0; v < kV; ++v) {
          simd::vcode_widen_add(acc + (dm0 + d) * acc_pitch + t + v * kW,
                                regs[d][v]);
        }
      }
    }
  }
  return t;
}
#endif

/// Register-blocked SIMD accumulate of one channel block into the tile
/// accumulators: the host twin of the paper's work-item, holding a
/// DR × (U·kFloatLanes) patch of output elements in vector registers while
/// the channel loop runs innermost. Accumulator traffic is paid once per
/// channel block instead of once per channel, and every add is a packed
/// vector op. Per output element the channels are still added in ascending
/// order, so results are bitwise identical to the scalar engine for every
/// (DR, U) instantiation. On u8 input with an even U, the full steps sum
/// codes in 16-bit lanes where the backend has them (accumulate_codes).
template <typename T, std::size_t DR, std::size_t U>
void accumulate_block_simd(const TileScratch<T>& s, std::size_t cb0,
                           std::size_t nch, std::size_t tile_dm,
                           std::size_t tile_time, float* acc,
                           std::size_t acc_pitch) {
  constexpr std::size_t kW = simd::kFloatLanes;
  constexpr std::size_t kStep = U * kW;
  for (std::size_t dm0 = 0; dm0 < tile_dm; dm0 += DR) {
    std::size_t t = 0;
#if defined(DDMC_SIMD_CODE_LANES)
    if constexpr (std::is_same_v<T, std::uint8_t> && U % 2 == 0) {
      t = accumulate_codes<DR, U>(s, cb0, nch, tile_dm, dm0, tile_time, acc,
                                  acc_pitch);
    }
#endif
    for (; t + kStep <= tile_time; t += kStep) {
      simd::vfloat regs[DR][U];
      for (std::size_t d = 0; d < DR; ++d) {
        for (std::size_t u = 0; u < U; ++u) {
          regs[d][u] =
              simd::vload(acc + (dm0 + d) * acc_pitch + t + u * kW);
        }
      }
      for (std::size_t c = 0; c < nch; ++c) {
        const std::size_t* shift = &s.shifts[(cb0 + c) * tile_dm + dm0];
        const T* base = s.src[c] + t;
        for (std::size_t d = 0; d < DR; ++d) {
          const T* p = base + shift[d];
          for (std::size_t u = 0; u < U; ++u) {
            regs[d][u] = simd::vadd(regs[d][u], load(p + u * kW));
          }
        }
      }
      for (std::size_t d = 0; d < DR; ++d) {
        for (std::size_t u = 0; u < U; ++u) {
          simd::vstore(acc + (dm0 + d) * acc_pitch + t + u * kW,
                       regs[d][u]);
        }
      }
    }
    // Remainder: single-vector steps, then the last partial vector — one
    // masked step where the backend has masked loads, else scalar lanes.
    for (; t + kW <= tile_time; t += kW) {
      simd::vfloat regs[DR];
      for (std::size_t d = 0; d < DR; ++d) {
        regs[d] = simd::vload(acc + (dm0 + d) * acc_pitch + t);
      }
      for (std::size_t c = 0; c < nch; ++c) {
        const std::size_t* shift = &s.shifts[(cb0 + c) * tile_dm + dm0];
        const T* base = s.src[c] + t;
        for (std::size_t d = 0; d < DR; ++d) {
          regs[d] = simd::vadd(regs[d], load(base + shift[d]));
        }
      }
      for (std::size_t d = 0; d < DR; ++d) {
        simd::vstore(acc + (dm0 + d) * acc_pitch + t, regs[d]);
      }
    }
    if constexpr (simd::kMaskedTail) {
      if (t < tile_time) {
        const std::size_t n = tile_time - t;
        simd::vfloat regs[DR];
        for (std::size_t d = 0; d < DR; ++d) {
          regs[d] = simd::vload_partial(acc + (dm0 + d) * acc_pitch + t, n);
        }
        for (std::size_t c = 0; c < nch; ++c) {
          const std::size_t* shift = &s.shifts[(cb0 + c) * tile_dm + dm0];
          const T* base = s.src[c] + t;
          for (std::size_t d = 0; d < DR; ++d) {
            regs[d] = simd::vadd(regs[d], load_partial(base + shift[d], n));
          }
        }
        for (std::size_t d = 0; d < DR; ++d) {
          simd::vstore_partial(acc + (dm0 + d) * acc_pitch + t, regs[d], n);
        }
      }
    } else {
      for (; t < tile_time; ++t) {
        float regs[DR];
        for (std::size_t d = 0; d < DR; ++d) {
          regs[d] = acc[(dm0 + d) * acc_pitch + t];
        }
        for (std::size_t c = 0; c < nch; ++c) {
          const std::size_t* shift = &s.shifts[(cb0 + c) * tile_dm + dm0];
          const T* base = s.src[c] + t;
          for (std::size_t d = 0; d < DR; ++d) {
            regs[d] += static_cast<float>(base[shift[d]]);
          }
        }
        for (std::size_t d = 0; d < DR; ++d) {
          acc[(dm0 + d) * acc_pitch + t] = regs[d];
        }
      }
    }
  }
}

/// Map the config's register-tile knobs onto compiled instantiations (see
/// compiled_register_extent): DR from elem_dm, U from the unroll knob.
template <typename T, std::size_t U>
void dispatch_dr(std::size_t dr, const TileScratch<T>& s, std::size_t cb0,
                 std::size_t nch, std::size_t tile_dm,
                 std::size_t tile_time, float* acc, std::size_t acc_pitch) {
  switch (compiled_register_extent(dr)) {
    case 8:
      accumulate_block_simd<T, 8, U>(s, cb0, nch, tile_dm, tile_time, acc,
                                     acc_pitch);
      break;
    case 4:
      accumulate_block_simd<T, 4, U>(s, cb0, nch, tile_dm, tile_time, acc,
                                     acc_pitch);
      break;
    case 2:
      accumulate_block_simd<T, 2, U>(s, cb0, nch, tile_dm, tile_time, acc,
                                     acc_pitch);
      break;
    default:
      accumulate_block_simd<T, 1, U>(s, cb0, nch, tile_dm, tile_time, acc,
                                     acc_pitch);
      break;
  }
}

template <typename T>
void dispatch_block_simd(std::size_t dr, std::size_t unroll,
                         const TileScratch<T>& s, std::size_t cb0,
                         std::size_t nch, std::size_t tile_dm,
                         std::size_t tile_time, float* acc,
                         std::size_t acc_pitch) {
  switch (compiled_register_extent(unroll)) {
    case 8:
      dispatch_dr<T, 8>(dr, s, cb0, nch, tile_dm, tile_time, acc, acc_pitch);
      break;
    case 4:
      dispatch_dr<T, 4>(dr, s, cb0, nch, tile_dm, tile_time, acc, acc_pitch);
      break;
    case 2:
      dispatch_dr<T, 2>(dr, s, cb0, nch, tile_dm, tile_time, acc, acc_pitch);
      break;
    default:
      dispatch_dr<T, 1>(dr, s, cb0, nch, tile_dm, tile_time, acc, acc_pitch);
      break;
  }
}

/// Channels per block of \p config over \p channels (0: all in one pass).
std::size_t channels_per_block(const KernelConfig& config,
                               std::size_t channels) {
  return config.channel_block == 0 ? channels
                                   : std::min(config.channel_block, channels);
}

/// Process one work-group tile of \p job: trials [dm0, dm0+tile_dm) ×
/// samples [t0, t0+tile_time) (the last tile of a row may be shorter).
/// Channel-major accumulation matches the reference; channel blocking only
/// re-chunks the (ordered) channel loop, so results are bitwise identical
/// for every block size. \p writeback turns each accumulator row into its
/// output row: writeback(acc_row, out_row, n).
template <typename T, typename Writeback>
void process_tile(const KernelConfig& config, const TileJob<T>& job,
                  std::size_t dm0, std::size_t t0, std::size_t tile_time,
                  const CpuKernelOptions& options, const Writeback& writeback,
                  TileScratch<T>& scratch) {
  const std::size_t tile_dm = config.tile_dm();
  const std::size_t channels = job.delays.cols();
  const std::size_t block = channels_per_block(config, channels);

  scratch.acc_pitch = round_up(tile_time, simd::kFloatLanes);
  scratch.acc.assign(tile_dm * scratch.acc_pitch, 0.0f);
  build_shift_table(job.delays, dm0, tile_dm,
                    job.in.cols() - job.out.cols(), scratch);

  for (std::size_t cb0 = 0; cb0 < channels; cb0 += block) {
    const std::size_t cb1 = std::min(channels, cb0 + block);
    const std::size_t nch = cb1 - cb0;

    // Resolve per-channel source rows. Where staging pays, each span is
    // copied into the block-local staging buffer first (collaborative
    // load: the span covers every read any work-item performs for that
    // channel); elsewhere the rows are read in place.
    scratch.src.resize(nch);
    const std::span<const std::size_t> spread(&scratch.spread[cb0], nch);
    if (staging_pays(tile_dm, tile_time, spread)) {
      const std::size_t max_spread =
          *std::max_element(spread.begin(), spread.end());
      const std::size_t pitch =
          round_up(max_spread + tile_time, simd::kFloatLanes);
      scratch.staging.resize(nch * pitch);
      for (std::size_t c = 0; c < nch; ++c) {
        T* dst = &scratch.staging[c * pitch];
        const T* row = &job.in(cb0 + c, t0 + scratch.lo[cb0 + c]);
        std::copy(row, row + spread[c] + tile_time, dst);
        scratch.src[c] = dst;
      }
    } else {
      for (std::size_t c = 0; c < nch; ++c) {
        scratch.src[c] = &job.in(cb0 + c, t0 + scratch.lo[cb0 + c]);
      }
    }

    if (runs_register_tile(options)) {
      dispatch_block_simd(config.elem_dm, config.unroll, scratch, cb0, nch,
                          tile_dm, tile_time, scratch.acc.data(),
                          scratch.acc_pitch);
    } else {
      // Channel-outer accumulate: the seed engine, and every run of a
      // one-lane build, where the compiler vectorizes this loop itself.
      for (std::size_t c = 0; c < nch; ++c) {
        const std::size_t* shift = &scratch.shifts[(cb0 + c) * tile_dm];
        for (std::size_t dm = 0; dm < tile_dm; ++dm) {
          float* a = &scratch.acc[dm * scratch.acc_pitch];
          const T* s = scratch.src[c] + shift[dm];
          for (std::size_t t = 0; t < tile_time; ++t) {
            a[t] += static_cast<float>(s[t]);
          }
        }
      }
    }
  }

  for (std::size_t dm = 0; dm < tile_dm; ++dm) {
    writeback(&scratch.acc[dm * scratch.acc_pitch], &job.out(dm0 + dm, t0),
              tile_time);
  }
}

/// Check the jobs' shared shape, then distribute the tiles of all jobs over
/// \p pool's workers, or run them inline without one; every worker reuses
/// one scratch across tiles.
template <typename T, typename Writeback>
void run_tiles(std::span<const TileJob<T>> jobs, const KernelConfig& config,
               const CpuKernelOptions& options, const Writeback& writeback,
               ThreadPool* pool) {
  if (jobs.empty()) return;
  const std::size_t trials = jobs[0].delays.rows();
  const std::size_t channels = jobs[0].delays.cols();
  const std::size_t samples = jobs[0].out.cols();
  DDMC_REQUIRE(config.tile_dm() > 0 && config.tile_time() > 0 &&
                   trials % config.tile_dm() == 0,
               "DM tile must divide the trial count: " + config.to_string());
  for (const TileJob<T>& job : jobs) {
    DDMC_REQUIRE(job.delays.rows() == trials && job.out.rows() == trials &&
                     job.delays.cols() == channels &&
                     job.in.rows() == channels &&
                     job.in.cols() == jobs[0].in.cols() &&
                     job.out.cols() == samples,
                 "jobs of one dispatch must share one shape");
  }
  DDMC_REQUIRE(jobs[0].in.cols() >= samples, "input shorter than the output");

  const std::size_t groups_dm = trials / config.tile_dm();
  const std::size_t groups_time =
      (samples + config.tile_time() - 1) / config.tile_time();
  const std::size_t tiles_per_job = groups_dm * groups_time;
  const std::size_t total = jobs.size() * tiles_per_job;

  auto run_range = [&](std::size_t begin, std::size_t end) {
    TileScratch<T> scratch;  // reused across tiles on this worker
    for (std::size_t g = begin; g < end; ++g) {
      const TileJob<T>& job = jobs[g / tiles_per_job];
      const std::size_t tile = g % tiles_per_job;
      const std::size_t t0 = (tile % groups_time) * config.tile_time();
      process_tile(config, job, (tile / groups_time) * config.tile_dm(), t0,
                   std::min(config.tile_time(), samples - t0), options,
                   writeback, scratch);
    }
  };

  if (pool == nullptr) {
    run_range(0, total);
    return;
  }
  const std::size_t block =
      std::max<std::size_t>(1, total / (pool->worker_count() * 4));
  pool->parallel_for(0, total, block, run_range);
}

/// The plan entry points: the paper's divisibility check, then one job.
template <typename T, typename Writeback>
void run_plan(const Plan& plan, const KernelConfig& config, ConstView2D<T> in,
              View2D<float> out, const CpuKernelOptions& options,
              ThreadPool* pool, const Writeback& writeback) {
  config.validate(plan);
  DDMC_REQUIRE(in.cols() >= plan.in_samples(),
               "input too short for the plan's largest delay");
  DDMC_REQUIRE(out.rows() == plan.dms(), "output rows != trial DMs");
  DDMC_REQUIRE(out.cols() >= plan.out_samples(), "output too short");
  const TileJob<T> job{
      plan.delays().view(), in,
      View2D<float>(out.data(), plan.dms(), plan.out_samples(), out.pitch())};
  run_tiles(std::span<const TileJob<T>>(&job, 1), config, options, writeback,
            pool);
}

/// The float writeback: accumulators are the output.
constexpr auto copy_row = [](const float* acc, float* dst, std::size_t n) {
  std::copy(acc, acc + n, dst);
};

}  // namespace

bool staging_pays(std::size_t tile_dm, std::size_t tile_time,
                  std::span<const std::size_t> spread) {
  // Every staged element is read at most tile_dm times.
  if (tile_dm < kStagingMinReuse) return false;
  std::size_t copied = 0;
  for (const std::size_t s : spread) copied += s + tile_time;
  return tile_dm * tile_time * spread.size() >= kStagingMinReuse * copied;
}

StagingTally staging_tally(ConstView2D<std::int64_t> delays,
                           std::size_t samples, const KernelConfig& config) {
  const std::size_t tile_dm = config.tile_dm();
  const std::size_t channels = delays.cols();
  const std::size_t block = channels_per_block(config, channels);
  StagingTally tally;
  TileScratch<float> scratch;
  for (std::size_t dm0 = 0; dm0 + tile_dm <= delays.rows(); dm0 += tile_dm) {
    build_shift_table(delays, dm0, tile_dm,
                      std::numeric_limits<std::size_t>::max(), scratch);
    for (std::size_t t0 = 0; t0 < samples; t0 += config.tile_time()) {
      const std::size_t tile_time = std::min(config.tile_time(), samples - t0);
      for (std::size_t cb0 = 0; cb0 < channels; cb0 += block) {
        const std::size_t nch = std::min(block, channels - cb0);
        const std::span<const std::size_t> spread(&scratch.spread[cb0], nch);
        ++tally.blocks;
        if (staging_pays(tile_dm, tile_time, spread)) ++tally.staged;
      }
    }
  }
  return tally;
}

bool runs_register_tile(const CpuKernelOptions& options) {
  return options.vectorize && simd::kFloatLanes > 1;
}

void dedisperse_tiled(std::span<const TileJob<float>> jobs,
                      const KernelConfig& config,
                      const CpuKernelOptions& options, ThreadPool* pool) {
  run_tiles(jobs, config, options, copy_row, pool);
}

void dedisperse_cpu(const Plan& plan, const KernelConfig& config,
                    ConstView2D<float> in, View2D<float> out,
                    const CpuKernelOptions& options, ThreadPool* pool) {
  run_plan(plan, config, in, out, options, pool, copy_row);
}

Array2D<float> dedisperse_cpu(const Plan& plan, const KernelConfig& config,
                              ConstView2D<float> in,
                              const CpuKernelOptions& options,
                              ThreadPool* pool) {
  Array2D<float> out(plan.dms(), plan.out_samples());
  dedisperse_cpu(plan, config, in, out.view(), options, pool);
  return out;
}

void dedisperse_cpu_u8(const Plan& plan, const KernelConfig& config,
                       ConstView2D<std::uint8_t> in,
                       const QuantizationParams& params, View2D<float> out,
                       const CpuKernelOptions& options, ThreadPool* pool) {
  // The accumulators hold exact integer code sums; Σ dequant(q) over C
  // channels = C·lo + scale·Σq, one multiply-add per output element. Its
  // rounding is fixed rather than left to the compiler's contraction: one
  // fused rounding where the target has a fast fma, the plain product and
  // sum otherwise (such targets cannot fuse it).
  const float base = static_cast<float>(plan.channels()) * params.lo;
  const float scale = params.scale();
  run_plan(plan, config, in, out, options, pool,
           [base, scale](const float* acc, float* dst, std::size_t n) {
             for (std::size_t t = 0; t < n; ++t) {
#ifdef FP_FAST_FMAF
               dst[t] = std::fma(scale, acc[t], base);
#else
               dst[t] = base + scale * acc[t];
#endif
             }
           });
}

Array2D<float> dedisperse_cpu_u8(const Plan& plan, const KernelConfig& config,
                                 ConstView2D<std::uint8_t> in,
                                 const QuantizationParams& params,
                                 const CpuKernelOptions& options,
                                 ThreadPool* pool) {
  Array2D<float> out(plan.dms(), plan.out_samples());
  dedisperse_cpu_u8(plan, config, in, params, out.view(), options, pool);
  return out;
}

}  // namespace ddmc::dedisp
