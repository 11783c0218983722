/// Host ceilings for the roofline columns: streaming-copy bandwidth over
/// arrays four times the last-level cache, and a register-resident FMA
/// loop on the kernels' SIMD layer — both on the kernels' thread count.

#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "common/simd.hpp"
#include "common/timer.hpp"
#include "ddmc_bench.hpp"

namespace ddmc::ddmc_bench {

namespace {

/// Size of the highest cache level sysfs reports for CPU 0.
std::size_t last_level_cache_bytes() {
  namespace fs = std::filesystem;
  std::size_t best_level = 0;
  std::size_t bytes = 0;
  const fs::path root = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code ec;
  for (const auto& dir : fs::directory_iterator(root, ec)) {
    std::size_t level = 0;
    std::string size;
    std::ifstream(dir.path() / "level") >> level;
    std::ifstream(dir.path() / "size") >> size;
    if (level <= best_level || size.empty()) continue;
    std::size_t value = std::stoul(size);
    if (size.back() == 'K') value <<= 10;
    if (size.back() == 'M') value <<= 20;
    best_level = level;
    bytes = value;
  }
  return bytes > 0 ? bytes : std::size_t{32} << 20;
}

/// Run fn(thread_index) on kKernelThreads threads; returns the wall time.
template <typename Fn>
double on_kernel_threads(Fn fn) {
  const Stopwatch clock;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kKernelThreads; ++t) {
    threads.emplace_back(fn, t);
  }
  for (auto& th : threads) th.join();
  return clock.seconds();
}

}  // namespace

HostCeilings probe_host() {
  constexpr int kReps = 5;
  HostCeilings h;
  h.samples = kReps;
  h.llc_bytes = last_level_cache_bytes();
  h.copy_array_bytes = 4 * h.llc_bytes;

  const std::size_t n = h.copy_array_bytes / sizeof(float);
  const std::size_t per_thread = n / kKernelThreads;
  {
    const std::unique_ptr<float[]> src(new float[n]);
    const std::unique_ptr<float[]> dst(new float[n]);
    // First touch on the copying threads.
    on_kernel_threads([&](std::size_t t) {
      for (std::size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
        src[i] = static_cast<float>(i & 1023);
        dst[i] = 0.0f;
      }
    });
    std::vector<double> gbps;
    for (int r = 0; r < kReps; ++r) {
      const double s = on_kernel_threads([&](std::size_t t) {
        const float* __restrict in = src.get() + t * per_thread;
        float* __restrict out = dst.get() + t * per_thread;
        for (std::size_t i = 0; i < per_thread; ++i) out[i] = in[i];
      });
      // Read + write, the STREAM convention.
      gbps.push_back(2.0 * static_cast<double>(per_thread * kKernelThreads) *
                     sizeof(float) / s * 1e-9);
    }
    h.copy_gbps = median(gbps);
  }

  // Twelve independent accumulators cover the FMA latency × ports.
  constexpr std::size_t kAcc = 12;
  constexpr std::size_t kIters = 20'000'000;
  std::vector<double> gflops;
  std::vector<float> sink(kKernelThreads * simd::kFloatLanes);
  for (int r = 0; r < kReps; ++r) {
    const double s = on_kernel_threads([&](std::size_t t) {
      simd::vfloat acc[kAcc];
      for (std::size_t k = 0; k < kAcc; ++k) {
        acc[k] = simd::vbroadcast(static_cast<float>(k + t));
      }
      const simd::vfloat a = simd::vbroadcast(0.999999f);
      const simd::vfloat b = simd::vbroadcast(1e-7f);
      for (std::size_t i = 0; i < kIters; ++i) {
        for (std::size_t k = 0; k < kAcc; ++k) {
          acc[k] = simd::vfma(acc[k], a, b);
        }
      }
      for (std::size_t k = 1; k < kAcc; ++k) acc[0] = simd::vadd(acc[0], acc[k]);
      simd::vstore(&sink[t * simd::kFloatLanes], acc[0]);
    });
    gflops.push_back(2.0 * static_cast<double>(simd::kFloatLanes * kAcc *
                                               kIters * kKernelThreads) /
                     s * 1e-9);
  }
  h.fma_gflops = median(gflops);
  return h;
}

}  // namespace ddmc::ddmc_bench
