#pragma once
/// \file cpu_kernel.hpp
/// \brief SIMD-vectorized, cache-blocked, threaded host twin of the
/// many-core kernel, on float or quantized 8-bit input.
///
/// The iteration space is tiled exactly like the device work-groups of
/// §III-B (tile_dm × tile_time), and the engine adds the two optimizations
/// that Barsdell et al. and Novotný et al. identify as decisive on CPUs:
///
///  - the time dimension of every accumulate is explicitly vectorized
///    through the portable layer of common/simd.hpp (AVX-512/AVX/SSE2/NEON
///    with a scalar fallback), with a tunable unroll factor;
///  - the channel loop is blocked (`KernelConfig::channel_block`) so the
///    block's input rows and the tile's accumulators stay L1/L2-resident,
///    and the per-(tile, channel-block) delay/shift tables are precomputed
///    once so no delay lookup remains in the hot loops.
///
/// Each (tile, channel block) either copies its input rows into a pitched
/// staging buffer first (the device's local-memory path) or reads them in
/// place. One rule decides, from the delay table (staging_pays): the copy
/// pays only where every copied element is read often enough — Apertif's
/// 128-trial real-time tiles read each one 63–126 times, LOFAR's four-trial
/// tiles about 2.6 times, and a tile of fewer than kStagingMinReuse trials
/// never reaches the threshold. The choice moves no arithmetic, so outputs
/// do not depend on it.
///
/// Every output element still accumulates its channels in channel order,
/// so scalar, vectorized, blocked and threaded runs are all bit-identical
/// to dedisp::reference — which is what the equivalence test suite checks.
/// Tiles are independent and are distributed over a thread pool.
///
/// One kernel serves both input element types. Dedispersion is
/// memory-bandwidth-bound (the paper's central premise), so on quantized
/// 8-bit input the bytes stay one per sample from DRAM through any staged
/// rows into the register tile: a quarter of the float input traffic. The
/// u8 entry point accumulates *raw codes* and applies the affine
/// dequantization once per output element at writeback:
/// out = C·lo + scale·Σq, rounded once where the target has a fast fma and
/// as a plain product and sum elsewhere. Where the SIMD backend has integer
/// vectors (simd::vcode), the register tile's full steps sum the codes in
/// 16-bit lanes: twice the samples per register, and two instructions per
/// load-and-add where widening bytes to float lanes takes three. The
/// channel loop then runs in sub-blocks of at most 257 channels
/// (255·257 = 65 535, so no lane wraps), and each sub-block is widened
/// exactly (u16 → i32 → float) into the float accumulator row. The
/// single-vector steps, the tails, unroll 1 and the backends without
/// integer vectors (AVX without AVX2, scalar) add codes in float lanes
/// (simd::vload_u8). Either way every partial sum is an exact integer
/// below 2^24, for any channel count up to 65 793, so every tile shape,
/// channel block, unroll, SIMD width, staging choice and thread count
/// produces bitwise-identical u8 output; targets with and without fma
/// differ only in that last rounding. Only the quantization itself is
/// approximate (see quantize.hpp for the bound).

#include <cstdint>
#include <span>

#include "common/array2d.hpp"
#include "common/thread_pool.hpp"
#include "dedisp/kernel_config.hpp"
#include "dedisp/plan.hpp"
#include "dedisp/quantize.hpp"

namespace ddmc::dedisp {

struct CpuKernelOptions {
  /// Use the explicit SIMD engine; false runs the seed's scalar inner loop
  /// (the baseline the benchmarks compare against). One-lane builds
  /// (simd::kFloatLanes == 1) run that loop either way.
  bool vectorize = true;
  /// Worker threads of an engine built with these options, resolved once
  /// when it is built (WorkerPool): 0 = the global pool sized to the
  /// machine, 1 = inline on the calling thread (deterministic profiling),
  /// n = a pool of n workers the engine owns. The kernel entry points below
  /// do not read it: they run on the pool they are passed.
  std::size_t threads = 0;
};

/// Whether the kernel runs its register tile, and so reads elem_dm and
/// unroll, under \p options: vectorized runs of a multi-lane SIMD build.
/// One-lane builds run the channel-outer loop instead, which the compiler
/// vectorizes and a one-lane register tile is slower than.
bool runs_register_tile(const CpuKernelOptions& options);

/// Reads of each copied input element from which a (tile, channel block)
/// stages its rows. Measured on the streaming workloads: tiles at 2.6 and
/// 4.9 reads per element (LOFAR) ran faster in place, tiles at 63–126
/// (Apertif real time) faster staged.
inline constexpr std::size_t kStagingMinReuse = 16;

/// Whether the kernel stages the input rows of one (tile, channel block):
/// a tile of \p tile_dm trials × \p tile_time samples reads
/// tile_dm·tile_time elements of each channel's row, and staging copies
/// spread_c + tile_time of them, where spread_c is the channel's delay
/// spread over the tile's trials. It stages when
/// tile_dm·tile_time·nch ≥ kStagingMinReuse·Σ_c (spread_c + tile_time),
/// so never for fewer than kStagingMinReuse trials.
bool staging_pays(std::size_t tile_dm, std::size_t tile_time,
                  std::span<const std::size_t> spread);

/// The (tile, channel block) pairs of one dispatch and how many of them
/// stage their rows.
struct StagingTally {
  std::size_t staged = 0;
  std::size_t blocks = 0;
};

/// Apply staging_pays to every (tile, channel block) that \p config cuts
/// from a problem of \p delays (trials × channels) and \p samples output
/// columns, as the kernel does.
StagingTally staging_tally(ConstView2D<std::int64_t> delays,
                           std::size_t samples, const KernelConfig& config);

/// The register-tile extents the vectorized kernel has a compiled
/// instantiation for: the DM rows it holds in registers (`elem_dm`) and
/// the unroll are each one of {1, 2, 4, 8}. Any other value runs the
/// narrowest (1) instantiation; elem_dm divides tile_dm by construction.
constexpr std::size_t compiled_register_extent(std::size_t v) {
  return (v == 2 || v == 4 || v == 8) ? v : 1;
}

/// One problem for the tiled kernel, given by a delay table instead of a
/// plan (subband.hpp runs both of its stages as jobs): out(d, t) =
/// Σ_c in(c, delays(d, c) + t), channels added in ascending order from
/// 0.0f. \p delays is trials × channels; \p in needs out.cols() + the
/// largest delay columns.
template <typename T>
struct TileJob {
  ConstView2D<std::int64_t> delays;
  ConstView2D<T> in;
  View2D<float> out;
};

/// Execute the tiled kernel on \p jobs (all of one shape) in one dispatch
/// over the workers. The DM tile must divide the trial count; the last
/// time tile of a row may be shorter than the config's. Every entry point
/// runs its tiles on \p pool, or inline on the calling thread without one;
/// none builds a pool.
void dedisperse_tiled(std::span<const TileJob<float>> jobs,
                      const KernelConfig& config,
                      const CpuKernelOptions& options = {},
                      ThreadPool* pool = nullptr);

/// Execute the tiled kernel. \p config must validate against \p plan.
void dedisperse_cpu(const Plan& plan, const KernelConfig& config,
                    ConstView2D<float> in, View2D<float> out,
                    const CpuKernelOptions& options = {},
                    ThreadPool* pool = nullptr);

/// Convenience allocating the output matrix.
Array2D<float> dedisperse_cpu(const Plan& plan, const KernelConfig& config,
                              ConstView2D<float> in,
                              const CpuKernelOptions& options = {},
                              ThreadPool* pool = nullptr);

/// Execute the tiled kernel on a quantized byte plane (channels ×
/// ≥in_samples codes under \p params). \p config must validate against
/// \p plan; options are the same host-execution knobs as the float kernel.
void dedisperse_cpu_u8(const Plan& plan, const KernelConfig& config,
                       ConstView2D<std::uint8_t> in,
                       const QuantizationParams& params, View2D<float> out,
                       const CpuKernelOptions& options = {},
                       ThreadPool* pool = nullptr);

/// Convenience allocating the output matrix.
Array2D<float> dedisperse_cpu_u8(const Plan& plan, const KernelConfig& config,
                                 ConstView2D<std::uint8_t> in,
                                 const QuantizationParams& params,
                                 const CpuKernelOptions& options = {},
                                 ThreadPool* pool = nullptr);

}  // namespace ddmc::dedisp
