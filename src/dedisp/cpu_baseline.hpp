#pragma once
/// \file cpu_baseline.hpp
/// \brief The paper's CPU comparator (§V-D), re-created in portable C++.
///
/// "This CPU version of the algorithm is parallelized using OpenMP, with
/// different threads computing different DM values and blocks of time
/// samples. Chunks of 8 time samples are computed at once using Intel's
/// Advanced Vector Extensions (AVX)."
///
/// We reproduce the same structure with the library thread pool (threads
/// over DM × time-block pairs) and an 8-wide inner loop written so the
/// compiler's auto-vectorizer emits AVX on x86. No intrinsics: the point of
/// the baseline is the *algorithm structure*, and portable code keeps the
/// suite runnable everywhere.

#include "common/array2d.hpp"
#include "common/thread_pool.hpp"
#include "dedisp/plan.hpp"

namespace ddmc::dedisp {

struct CpuBaselineOptions {
  std::size_t time_block = 512; ///< samples per work unit (multiple of 8)
};

/// Dedisperse with the baseline structure (threads over DMs and time blocks,
/// 8-sample inner chunks) on \p pool, or inline without one. Output is
/// bit-identical to the reference.
void dedisperse_cpu_baseline(const Plan& plan, ConstView2D<float> in,
                             View2D<float> out,
                             const CpuBaselineOptions& options = {},
                             ThreadPool* pool = nullptr);

Array2D<float> dedisperse_cpu_baseline(const Plan& plan,
                                       ConstView2D<float> in,
                                       const CpuBaselineOptions& options = {},
                                       ThreadPool* pool = nullptr);

}  // namespace ddmc::dedisp
