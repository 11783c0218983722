#include "dedisp/cpu_kernel_u8.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/expect.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"

namespace ddmc::dedisp {

namespace {

/// Per-worker scratch, reused across tiles so the hot loop never allocates.
/// Mirror of the float kernel's TileScratch with a byte staging buffer:
/// staged rows cost 1 byte per sample instead of 4.
struct U8TileScratch {
  /// Tile accumulators (raw-code sums), tile_dm rows of acc_pitch floats,
  /// rows padded to the SIMD width.
  std::vector<float, AlignedAllocator<float>> acc;
  std::size_t acc_pitch = 0;
  /// Staged input rows of the current (tile, channel-block), one pitched
  /// byte row per channel — the engine's "local memory".
  std::vector<std::uint8_t, AlignedAllocator<std::uint8_t>> staging;
  /// Per-channel base pointer of the current block (staged row or a
  /// pointer straight into the byte plane).
  std::vector<const std::uint8_t*> src;
  /// shifts[ch * tile_dm + dm] = Δ(dm0+dm, ch) − lo[ch].
  std::vector<std::size_t> shifts;
  std::vector<std::size_t> lo;    ///< per-channel smallest delay in the tile
  std::vector<std::size_t> span;  ///< largest − smallest delay + tile_time
  std::size_t shifts_dm0 = static_cast<std::size_t>(-1);
  bool shifts_valid = false;
};

/// Precompute the shift table for the DM tile [dm0, dm0+tile_dm) unless the
/// scratch already holds it; exact min/max scan, same as the float kernel.
void build_shift_table(const sky::DelayTable& delays, std::size_t dm0,
                       std::size_t tile_dm, std::size_t tile_time,
                       std::size_t channels, U8TileScratch& s) {
  if (s.shifts_valid && s.shifts_dm0 == dm0) return;
  s.shifts.resize(channels * tile_dm);
  s.lo.resize(channels);
  s.span.resize(channels);
  for (std::size_t ch = 0; ch < channels; ++ch) {
    std::size_t lo = static_cast<std::size_t>(delays.delay(dm0, ch));
    std::size_t hi = lo;
    std::size_t* row = &s.shifts[ch * tile_dm];
    for (std::size_t dm = 0; dm < tile_dm; ++dm) {
      const auto d = static_cast<std::size_t>(delays.delay(dm0 + dm, ch));
      row[dm] = d;
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    for (std::size_t dm = 0; dm < tile_dm; ++dm) row[dm] -= lo;
    s.lo[ch] = lo;
    s.span[ch] = (hi - lo) + tile_time;
  }
  s.shifts_dm0 = dm0;
  s.shifts_valid = true;
}

/// Register-blocked widening accumulate of one channel block: identical
/// loop structure to the float kernel's accumulate_block_simd, but the
/// source loads are vload_u8 — samples widen to float lanes only here, in
/// the register file. The raw-code sums are exact integers, so every
/// (DR, U) instantiation is bitwise identical.
template <std::size_t DR, std::size_t U>
void accumulate_block_u8(const U8TileScratch& s, std::size_t cb0,
                         std::size_t nch, std::size_t tile_dm,
                         std::size_t tile_time, float* acc,
                         std::size_t acc_pitch) {
  constexpr std::size_t kW = simd::kFloatLanes;
  constexpr std::size_t kStep = U * kW;
  for (std::size_t dm0 = 0; dm0 < tile_dm; dm0 += DR) {
    std::size_t t = 0;
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
        const std::uint8_t* base = s.src[c] + t;
        for (std::size_t d = 0; d < DR; ++d) {
          const std::uint8_t* p = base + shift[d];
          for (std::size_t u = 0; u < U; ++u) {
            regs[d][u] = simd::vadd(regs[d][u], simd::vload_u8(p + u * kW));
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
        const std::uint8_t* base = s.src[c] + t;
        for (std::size_t d = 0; d < DR; ++d) {
          regs[d] = simd::vadd(regs[d], simd::vload_u8(base + shift[d]));
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
          const std::uint8_t* base = s.src[c] + t;
          for (std::size_t d = 0; d < DR; ++d) {
            regs[d] = simd::vadd(regs[d],
                                 simd::vload_u8_partial(base + shift[d], n));
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
          const std::uint8_t* base = s.src[c] + t;
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

template <std::size_t U>
void dispatch_dr_u8(std::size_t dr, const U8TileScratch& s, std::size_t cb0,
                    std::size_t nch, std::size_t tile_dm,
                    std::size_t tile_time, float* acc,
                    std::size_t acc_pitch) {
  switch (dr) {
    case 8:
      accumulate_block_u8<8, U>(s, cb0, nch, tile_dm, tile_time, acc,
                                acc_pitch);
      break;
    case 4:
      accumulate_block_u8<4, U>(s, cb0, nch, tile_dm, tile_time, acc,
                                acc_pitch);
      break;
    case 2:
      accumulate_block_u8<2, U>(s, cb0, nch, tile_dm, tile_time, acc,
                                acc_pitch);
      break;
    default:
      accumulate_block_u8<1, U>(s, cb0, nch, tile_dm, tile_time, acc,
                                acc_pitch);
      break;
  }
}

void dispatch_block_u8(std::size_t dr, std::size_t unroll,
                       const U8TileScratch& s, std::size_t cb0,
                       std::size_t nch, std::size_t tile_dm,
                       std::size_t tile_time, float* acc,
                       std::size_t acc_pitch) {
  switch (unroll) {
    case 8:
      dispatch_dr_u8<8>(dr, s, cb0, nch, tile_dm, tile_time, acc, acc_pitch);
      break;
    case 4:
      dispatch_dr_u8<4>(dr, s, cb0, nch, tile_dm, tile_time, acc, acc_pitch);
      break;
    case 2:
      dispatch_dr_u8<2>(dr, s, cb0, nch, tile_dm, tile_time, acc, acc_pitch);
      break;
    default:
      dispatch_dr_u8<1>(dr, s, cb0, nch, tile_dm, tile_time, acc, acc_pitch);
      break;
  }
}

/// Process one work-group tile on the byte plane. Accumulates raw codes,
/// then applies the affine dequantization exactly once per output element
/// at writeback; both steps are order-independent, so the result does not
/// depend on the tiling.
void process_tile_u8(const Plan& plan, const KernelConfig& config,
                     ConstView2D<std::uint8_t> in,
                     const QuantizationParams& params, View2D<float> out,
                     std::size_t dm0, std::size_t t0,
                     const CpuKernelOptions& options, U8TileScratch& scratch) {
  const sky::DelayTable& delays = plan.delays();
  const std::size_t tile_dm = config.tile_dm();
  const std::size_t tile_time = config.tile_time();
  const std::size_t channels = plan.channels();
  const std::size_t block = config.effective_channel_block(plan);

  const std::size_t dr =
      (config.elem_dm == 2 || config.elem_dm == 4 || config.elem_dm == 8)
          ? config.elem_dm
          : 1;

  scratch.acc_pitch = round_up(tile_time, simd::kFloatLanes);
  scratch.acc.assign(tile_dm * scratch.acc_pitch, 0.0f);
  build_shift_table(delays, dm0, tile_dm, tile_time, channels, scratch);

  for (std::size_t cb0 = 0; cb0 < channels; cb0 += block) {
    const std::size_t cb1 = std::min(channels, cb0 + block);
    const std::size_t nch = cb1 - cb0;

    scratch.src.resize(nch);
    if (options.stage_rows) {
      const std::size_t max_span = *std::max_element(
          scratch.span.begin() + cb0, scratch.span.begin() + cb1);
      const std::size_t pitch = round_up(max_span, simd::kFloatLanes);
      scratch.staging.resize(nch * pitch);
      for (std::size_t c = 0; c < nch; ++c) {
        std::uint8_t* dst = &scratch.staging[c * pitch];
        const std::uint8_t* row = &in(cb0 + c, t0 + scratch.lo[cb0 + c]);
        std::copy(row, row + scratch.span[cb0 + c], dst);
        scratch.src[c] = dst;
      }
    } else {
      for (std::size_t c = 0; c < nch; ++c) {
        scratch.src[c] = &in(cb0 + c, t0 + scratch.lo[cb0 + c]);
      }
    }

    if (options.vectorize) {
      dispatch_block_u8(dr, config.unroll, scratch, cb0, nch, tile_dm,
                        tile_time, scratch.acc.data(), scratch.acc_pitch);
    } else {
      // Scalar widening accumulate, channel-outer like the seed engine.
      for (std::size_t c = 0; c < nch; ++c) {
        const std::size_t* shift = &scratch.shifts[(cb0 + c) * tile_dm];
        for (std::size_t dm = 0; dm < tile_dm; ++dm) {
          float* a = &scratch.acc[dm * scratch.acc_pitch];
          const std::uint8_t* s = scratch.src[c] + shift[dm];
          for (std::size_t t = 0; t < tile_time; ++t) {
            a[t] += static_cast<float>(s[t]);
          }
        }
      }
    }
  }

  // Writeback with the affine dequantization: Σ dequant(q) over C channels
  // = C·lo + scale·Σq. One multiply-add per output element, computed from
  // the exact integer code sum — the same floats on every code path.
  const float base = static_cast<float>(channels) * params.lo;
  const float scale = params.scale();
  for (std::size_t dm = 0; dm < tile_dm; ++dm) {
    float* dst = &out(dm0 + dm, t0);
    const float* a = &scratch.acc[dm * scratch.acc_pitch];
    for (std::size_t t = 0; t < tile_time; ++t) {
      dst[t] = base + scale * a[t];
    }
  }
}

void check_shapes(const Plan& plan, ConstView2D<std::uint8_t> in,
                  View2D<float> out) {
  DDMC_REQUIRE(in.rows() == plan.channels(), "input rows != channels");
  DDMC_REQUIRE(in.cols() >= plan.in_samples(),
               "input too short for the plan's largest delay");
  DDMC_REQUIRE(out.rows() == plan.dms(), "output rows != trial DMs");
  DDMC_REQUIRE(out.cols() >= plan.out_samples(), "output too short");
}

}  // namespace

void dedisperse_cpu_u8(const Plan& plan, const KernelConfig& config,
                       ConstView2D<std::uint8_t> in,
                       const QuantizationParams& params, View2D<float> out,
                       const CpuKernelOptions& options) {
  config.validate(plan);
  check_shapes(plan, in, out);

  const std::size_t groups_dm = config.groups_dm(plan);
  const std::size_t groups_time = config.groups_time(plan);
  const std::size_t total = groups_dm * groups_time;

  auto run_range = [&](std::size_t begin, std::size_t end) {
    U8TileScratch scratch;  // reused across tiles on this worker
    for (std::size_t g = begin; g < end; ++g) {
      const std::size_t gd = g / groups_time;
      const std::size_t gt = g % groups_time;
      process_tile_u8(plan, config, in, params, out, gd * config.tile_dm(),
                      gt * config.tile_time(), options, scratch);
    }
  };

  if (options.threads == 1) {
    run_range(0, total);
    return;
  }
  ThreadPool* pool = nullptr;
  std::unique_ptr<ThreadPool> owned;
  if (options.threads == 0) {
    pool = &global_pool();
  } else {
    owned = std::make_unique<ThreadPool>(options.threads);
    pool = owned.get();
  }
  const std::size_t block =
      std::max<std::size_t>(1, total / (pool->worker_count() * 4));
  pool->parallel_for(0, total, block, run_range);
}

Array2D<float> dedisperse_cpu_u8(const Plan& plan, const KernelConfig& config,
                                 ConstView2D<std::uint8_t> in,
                                 const QuantizationParams& params,
                                 const CpuKernelOptions& options) {
  Array2D<float> out(plan.dms(), plan.out_samples());
  dedisperse_cpu_u8(plan, config, in, params, out.view(), options);
  return out;
}

}  // namespace ddmc::dedisp
