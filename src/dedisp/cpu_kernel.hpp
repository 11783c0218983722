#pragma once
/// \file cpu_kernel.hpp
/// \brief SIMD-vectorized, cache-blocked, threaded host twin of the
/// many-core kernel.
///
/// The iteration space is tiled exactly like the device work-groups of
/// §III-B (tile_dm × tile_time), and the engine adds the two optimizations
/// that Barsdell et al. and Novotný et al. identify as decisive on CPUs:
///
///  - the time dimension of every accumulate is explicitly vectorized
///    through the portable layer of common/simd.hpp (AVX-512/AVX/SSE2/NEON
///    with a scalar fallback), with a tunable unroll factor;
///  - the channel loop is blocked (`KernelConfig::channel_block`) so the
///    staged input rows and the tile's accumulators stay L1/L2-resident,
///    and the per-(tile, channel-block) delay/shift tables are precomputed
///    once so no delay lookup remains in the hot loops.
///
/// Every output element still accumulates its channels in channel order,
/// so scalar, vectorized, blocked and threaded runs are all bit-identical
/// to dedisp::reference — which is what the equivalence test suite checks.
/// Tiles are independent and are distributed over a thread pool.

#include "common/array2d.hpp"
#include "dedisp/kernel_config.hpp"
#include "dedisp/plan.hpp"

namespace ddmc::dedisp {

struct CpuKernelOptions {
  /// Stage each (channel, dm-tile) input span into a thread-local buffer
  /// before accumulating (mirrors the device local-memory path).
  bool stage_rows = true;
  /// Use the explicit SIMD engine; false runs the seed's scalar inner loop
  /// (the baseline the benchmarks compare against).
  bool vectorize = true;
  /// Worker threads; 0 = use the global pool sized to the machine,
  /// 1 = run inline on the calling thread (deterministic profiling).
  std::size_t threads = 0;
};

/// Execute the tiled kernel. \p config must validate against \p plan.
void dedisperse_cpu(const Plan& plan, const KernelConfig& config,
                    ConstView2D<float> in, View2D<float> out,
                    const CpuKernelOptions& options = {});

/// Convenience allocating the output matrix.
Array2D<float> dedisperse_cpu(const Plan& plan, const KernelConfig& config,
                              ConstView2D<float> in,
                              const CpuKernelOptions& options = {});

}  // namespace ddmc::dedisp
