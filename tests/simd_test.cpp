// Tests for the portable SIMD layer: backend sanity, per-lane operation
// semantics, partial (masked) vectors, bitwise equivalence of the vectorized
// accumulate with the scalar loop across widths, tails and unroll factors,
// and the three-way split behind the detector's quickselect median.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/simd.hpp"

namespace ddmc::simd {
namespace {

TEST(Simd, BackendIsSane) {
  EXPECT_GT(kFloatLanes, 0u);
  EXPECT_TRUE(kFloatLanes == 1 || kFloatLanes == 4 || kFloatLanes == 8 ||
              kFloatLanes == 16);
  EXPECT_NE(backend_name(), nullptr);
  EXPECT_GT(std::strlen(backend_name()), 0u);
  // The 16-lane backend is AVX-512 and nothing else is.
  EXPECT_EQ(std::strcmp(backend_name(), "avx512") == 0, kFloatLanes == 16);
  // Masked tails exist exactly where a partial vector is one instruction.
  EXPECT_EQ(kMaskedTail, kFloatLanes == 16);
#if defined(DDMC_FORCE_SCALAR)
  EXPECT_STREQ(backend_name(), "scalar");
  EXPECT_EQ(kFloatLanes, 1u);
#endif
  // 16-bit code lanes exist wherever the backend has integer vectors:
  // everywhere but the scalar fallback and AVX without AVX2.
#if defined(DDMC_SIMD_CODE_LANES)
  EXPECT_GT(kFloatLanes, 1u);
#else
  const std::string name = backend_name();
  EXPECT_TRUE(name == "scalar" || name == "avx") << name;
#if defined(__AVX2__) && !defined(DDMC_FORCE_SCALAR)
  ADD_FAILURE() << "an AVX2 build has no 16-bit code lanes";
#endif
#endif
}

TEST(Simd, LoadStoreRoundTrip) {
  std::vector<float, AlignedAllocator<float>> src(kFloatLanes);
  std::vector<float, AlignedAllocator<float>> dst(kFloatLanes, -1.0f);
  for (std::size_t i = 0; i < kFloatLanes; ++i) {
    src[i] = static_cast<float>(i) + 0.25f;
  }
  vstore_aligned(dst.data(), vload_aligned(src.data()));
  for (std::size_t i = 0; i < kFloatLanes; ++i) EXPECT_EQ(dst[i], src[i]);

  // Unaligned variants must work at any offset.
  std::vector<float> buf(3 * kFloatLanes + 1, 0.0f);
  vstore(buf.data() + 1, vload(src.data()));
  for (std::size_t i = 0; i < kFloatLanes; ++i) EXPECT_EQ(buf[i + 1], src[i]);
}

TEST(Simd, BroadcastAndZero) {
  std::vector<float> out(kFloatLanes, -1.0f);
  vstore(out.data(), vbroadcast(3.5f));
  for (float v : out) EXPECT_EQ(v, 3.5f);
  vstore(out.data(), vzero());
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(Simd, LaneWiseAddMulSemantics) {
  std::vector<float> a(kFloatLanes), b(kFloatLanes), out(kFloatLanes);
  for (std::size_t i = 0; i < kFloatLanes; ++i) {
    a[i] = static_cast<float>(i + 1);
    b[i] = 0.5f * static_cast<float>(i) - 2.0f;
  }
  vstore(out.data(), vadd(vload(a.data()), vload(b.data())));
  for (std::size_t i = 0; i < kFloatLanes; ++i) EXPECT_EQ(out[i], a[i] + b[i]);
  vstore(out.data(), vmul(vload(a.data()), vload(b.data())));
  for (std::size_t i = 0; i < kFloatLanes; ++i) EXPECT_EQ(out[i], a[i] * b[i]);
}

TEST(Simd, FmaIsCloseToMulAdd) {
  // fma may contract (one rounding), so compare with a small tolerance
  // rather than bitwise.
  std::vector<float> a(kFloatLanes), b(kFloatLanes), c(kFloatLanes);
  std::vector<float> out(kFloatLanes);
  for (std::size_t i = 0; i < kFloatLanes; ++i) {
    a[i] = 1.1f * static_cast<float>(i + 1);
    b[i] = -0.7f * static_cast<float>(i + 2);
    c[i] = 0.3f;
  }
  vstore(out.data(),
         vfma(vload(a.data()), vload(b.data()), vload(c.data())));
  for (std::size_t i = 0; i < kFloatLanes; ++i) {
    EXPECT_NEAR(out[i], a[i] * b[i] + c[i], 1e-4f);
  }
}

TEST(Simd, PartialLoadZeroFillsMissingLanes) {
  // Each source ends exactly at n elements, so the sanitizer leg catches a
  // partial load that reads past them.
  for (std::size_t n = 0; n < kFloatLanes; ++n) {
    std::vector<float> src(n);
    for (std::size_t i = 0; i < n; ++i) src[i] = 1.5f + static_cast<float>(i);
    std::vector<float> out(kFloatLanes, -1.0f);
    vstore(out.data(), vload_partial(src.data(), n));
    for (std::size_t i = 0; i < kFloatLanes; ++i) {
      EXPECT_EQ(out[i], i < n ? src[i] : 0.0f) << "n=" << n << " i=" << i;
      if (i >= n) {
        EXPECT_FALSE(std::signbit(out[i])) << "n=" << n;
      }
    }
  }
}

TEST(Simd, PartialStoreLeavesLanesPastNUntouched) {
  std::vector<float> lanes(kFloatLanes);
  for (std::size_t i = 0; i < kFloatLanes; ++i) {
    lanes[i] = 0.25f * static_cast<float>(i + 1);
  }
  const float sentinel = -777.0f;
  for (std::size_t n = 0; n < kFloatLanes; ++n) {
    std::vector<float> dst(kFloatLanes + 1, sentinel);
    vstore_partial(dst.data() + 1, vload(lanes.data()), n);
    EXPECT_EQ(dst[0], sentinel) << "n=" << n;
    for (std::size_t i = 0; i < kFloatLanes; ++i) {
      EXPECT_EQ(dst[i + 1], i < n ? lanes[i] : sentinel)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Simd, PartialLoadU8WidensAndZeroFills) {
  for (std::size_t n = 0; n < kFloatLanes; ++n) {
    std::vector<std::uint8_t> src;
    for (std::size_t i = 0; i < n; ++i) {
      src.push_back(static_cast<std::uint8_t>(255 - 17 * i));
    }
    std::vector<float> out(kFloatLanes, -1.0f);
    vstore(out.data(), vload_u8_partial(src.data(), n));
    for (std::size_t i = 0; i < kFloatLanes; ++i) {
      EXPECT_EQ(out[i], i < n ? static_cast<float>(src[i]) : 0.0f)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Simd, SupportedUnrollSetIsExactlyTheCompiledLadder) {
  for (std::size_t u : {1ul, 2ul, 4ul, 8ul}) EXPECT_TRUE(is_supported_unroll(u));
  for (std::size_t u : {0ul, 3ul, 5ul, 6ul, 7ul, 9ul, 16ul}) {
    EXPECT_FALSE(is_supported_unroll(u)) << u;
  }
}

TEST(Simd, LoadU8WidensExactly) {
  // Every uint8 code widens to the exact float of its integer value, at any
  // source offset, on every widening path (AVX-512's 16-byte load, AVX2's
  // and plain AVX's 8-byte one, the 4-byte SSE2/NEON copy).
  std::vector<std::uint8_t> src(4 * kFloatLanes + 1);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>((i * 37 + 11) % 256);
  }
  std::vector<float> out(kFloatLanes, -1.0f);
  for (std::size_t offset : {0ul, 1ul, 2ul, 3ul}) {
    vstore(out.data(), vload_u8(src.data() + offset));
    for (std::size_t i = 0; i < kFloatLanes; ++i) {
      EXPECT_EQ(out[i], static_cast<float>(src[offset + i]))
          << "offset=" << offset << " i=" << i;
    }
  }
  // Extremes widen exactly too: codes with the top bit set are unsigned.
  std::vector<std::uint8_t> edge(kFloatLanes, 255);
  vstore(out.data(), vload_u8(edge.data()));
  for (std::size_t i = 0; i < kFloatLanes; ++i) EXPECT_EQ(out[i], 255.0f);
}

TEST(Simd, LoadU8ReadsExactlyKFloatLanesBytes) {
  // The widening load never reads past the span a float vload of the same
  // index would: a load ending at the last byte of an exactly sized
  // allocation stays inside it (the sanitizer leg checks the bound), and
  // the lanes see exactly the bytes they cover.
  for (std::size_t offset = 0; offset <= kFloatLanes; ++offset) {
    auto bytes = std::make_unique<std::uint8_t[]>(offset + kFloatLanes);
    for (std::size_t i = 0; i < offset + kFloatLanes; ++i) {
      bytes[i] = static_cast<std::uint8_t>(200 + i);
    }
    std::vector<float> out(kFloatLanes, -1.0f);
    vstore(out.data(), vload_u8(bytes.get() + offset));
    for (std::size_t i = 0; i < kFloatLanes; ++i) {
      EXPECT_EQ(out[i], static_cast<float>(bytes[offset + i]))
          << "offset=" << offset << " i=" << i;
    }
  }
}

#if defined(DDMC_SIMD_CODE_LANES)
TEST(Simd, CodeLanesSumBytesExactlyUpToTheLaneMax) {
  // 257 adds of code 255 fill a lane to 65 535, its unsigned maximum, and
  // the widen-add carries it into the float row exactly (a sign-extending
  // widen would add −1). Every load offset reads exactly kCodeLanes bytes
  // of an exactly sized allocation (the sanitizer leg checks the bound).
  static_assert(kCodeLanes == 2 * kFloatLanes);
  for (std::size_t offset = 0; offset <= kCodeLanes; ++offset) {
    auto bytes = std::make_unique<std::uint8_t[]>(offset + kCodeLanes);
    for (std::size_t i = 0; i < offset + kCodeLanes; ++i) {
      bytes[i] = i < offset ? static_cast<std::uint8_t>(i) : 255;
    }
    vcode sums = vcode_zero();
    for (int k = 0; k < 257; ++k) sums = vcode_add_u8(sums, bytes.get() + offset);
    std::vector<float> row(kCodeLanes + 1);
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] = static_cast<float>(16'000'000 + i);
    }
    vcode_widen_add(row.data(), sums);
    for (std::size_t i = 0; i < kCodeLanes; ++i) {
      EXPECT_EQ(row[i], static_cast<float>(16'000'000 + i + 65'535))
          << "offset=" << offset << " i=" << i;
    }
    // The row past kCodeLanes floats is untouched.
    EXPECT_EQ(row[kCodeLanes], static_cast<float>(16'000'000 + kCodeLanes));
  }
}

TEST(Simd, CodeLanesAddEachByteToItsOwnLane) {
  // Lane i sums byte i of every load, at every offset; one add past the
  // lane max wraps modulo 2^16, which is why the kernel widens after at
  // most 257 channels.
  std::vector<std::uint8_t> src(3 * kCodeLanes);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>((i * 37 + 11) % 256);
  }
  for (std::size_t offset = 0; offset <= kCodeLanes; ++offset) {
    vcode sums = vcode_zero();
    for (std::size_t k = 0; k < 3; ++k) {
      sums = vcode_add_u8(sums, src.data() + offset + (k % 2));
    }
    std::vector<float> row(kCodeLanes, 0.0f);
    vcode_widen_add(row.data(), sums);
    for (std::size_t i = 0; i < kCodeLanes; ++i) {
      const std::size_t j = offset + i;
      EXPECT_EQ(row[i], static_cast<float>(2 * src[j] + src[j + 1]))
          << "offset=" << offset << " i=" << i;
    }
  }
  const std::vector<std::uint8_t> full(kCodeLanes, 255);
  vcode sums = vcode_zero();
  for (int k = 0; k < 258; ++k) sums = vcode_add_u8(sums, full.data());
  std::vector<float> row(kCodeLanes, 0.0f);
  vcode_widen_add(row.data(), sums);
  for (std::size_t i = 0; i < kCodeLanes; ++i) {
    EXPECT_EQ(row[i], static_cast<float>(258 * 255 - 65'536));
  }
}
#endif

TEST(Simd, TransposeMovesLaneIOfVectorJToLaneJOfVectorI) {
  alignas(64) float m[kFloatLanes][kFloatLanes];
  vfloat r[kFloatLanes];
  for (std::size_t j = 0; j < kFloatLanes; ++j) {
    for (std::size_t i = 0; i < kFloatLanes; ++i) {
      m[j][i] = static_cast<float>(100 * j + i);
    }
    r[j] = vload_aligned(m[j]);
  }
  vtranspose(r);
  for (std::size_t i = 0; i < kFloatLanes; ++i) {
    alignas(64) float out[kFloatLanes];
    vstore_aligned(out, r[i]);
    for (std::size_t j = 0; j < kFloatLanes; ++j) {
      EXPECT_EQ(out[j], m[j][i]) << "vector " << i << " lane " << j;
    }
  }
}

TEST(Simd, MaxIsLaneWise) {
  std::vector<float> a(kFloatLanes), b(kFloatLanes), out(kFloatLanes);
  for (std::size_t i = 0; i < kFloatLanes; ++i) {
    a[i] = static_cast<float>(i) - 1.5f;
    b[i] = 1.0f - static_cast<float>(i);
  }
  vstore(out.data(), vmax(vload(a.data()), vload(b.data())));
  for (std::size_t i = 0; i < kFloatLanes; ++i) {
    EXPECT_EQ(out[i], a[i] > b[i] ? a[i] : b[i]);
  }
}

/// Floats past each split output's n + kFloatLanes that must stay untouched.
constexpr std::size_t kGuard = 2 * kFloatLanes;
constexpr float kSentinel = 12345.0f;

/// Checks split (or, with `c`, split_abs_diff) against a plain branchy
/// loop: counts, and both packed prefixes bit for bit in input order. Each
/// output is n + kFloatLanes floats followed by a guard that must keep its
/// sentinels; with `in_place`, `below` is the input buffer itself.
void expect_split_matches_loop(const std::vector<float>& x, float pivot,
                               const float* c = nullptr,
                               bool in_place = false) {
  std::vector<float> below_ref, above_ref;
  for (const float raw : x) {
    const float v = c ? std::abs(raw - *c) : raw;
    if (v < pivot) below_ref.push_back(v);
    if (v > pivot) above_ref.push_back(v);
  }
  const std::size_t n = x.size();
  const std::size_t room = n + kFloatLanes;
  std::vector<float> below(room + kGuard, kSentinel);
  std::vector<float> above(room + kGuard, kSentinel);
  const float* in = x.data();
  if (in_place) {
    std::copy(x.begin(), x.end(), below.begin());
    in = below.data();
  }
  const SplitCounts counts =
      c ? split_abs_diff(in, n, *c, pivot, below.data(), above.data())
        : split(in, n, pivot, below.data(), above.data());
  const std::string what = "n " + std::to_string(n) + ", pivot " +
                           std::to_string(pivot) +
                           (in_place ? ", in place" : "");
  ASSERT_EQ(counts.below, below_ref.size()) << what;
  ASSERT_EQ(counts.above, above_ref.size()) << what;
  // memcmp wants non-null pointers even for zero bytes, and an empty
  // reference vector may have none.
  const auto same_prefix = [](const std::vector<float>& out,
                              const std::vector<float>& ref) {
    return ref.empty() || std::memcmp(out.data(), ref.data(),
                                      ref.size() * sizeof(float)) == 0;
  };
  EXPECT_TRUE(same_prefix(below, below_ref)) << what;
  EXPECT_TRUE(same_prefix(above, above_ref)) << what;
  for (std::size_t i = room; i < room + kGuard; ++i) {
    EXPECT_EQ(below[i], kSentinel) << what << ": below slot " << i;
    EXPECT_EQ(above[i], kSentinel) << what << ": above slot " << i;
  }
}

/// Every variant of one case: split and split_abs_diff, out of place and
/// in place.
void expect_split_cases(const std::vector<float>& x, float pivot, float c) {
  expect_split_matches_loop(x, pivot);
  expect_split_matches_loop(x, pivot, nullptr, true);
  expect_split_matches_loop(x, pivot, &c);
  expect_split_matches_loop(x, pivot, &c, true);
}

TEST(Simd, SplitCoversEveryLengthAndTail) {
  std::mt19937 gen(3);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (std::size_t n = 0; n <= 3 * kFloatLanes + 1; ++n) {
    std::vector<float> x(n);
    for (auto& v : x) v = dist(gen);
    expect_split_cases(x, 0.1f, 0.25f);
    expect_split_cases(x, -2.0f, 0.25f);  // nothing below
    expect_split_cases(x, 2.0f, 0.25f);   // nothing above
  }
}

TEST(Simd, SplitAroundEveryElementAsPivot) {
  // The detector's pivots are elements of the set they split: the equal
  // count is then at least one, whichever element it is.
  std::mt19937 gen(5);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> x(2 * kFloatLanes + 3);
  for (auto& v : x) v = dist(gen);
  for (const float pivot : x) {
    expect_split_cases(x, pivot, x[1]);
  }
  // And every deviation as the pivot of the |x − c| split.
  for (const float v : x) expect_split_matches_loop(x, std::abs(v - x[1]), &x[1]);
}

TEST(Simd, SplitTreatsSignedZerosAsEqual) {
  std::vector<float> x;
  for (int i = 0; i < 3 * static_cast<int>(kFloatLanes) + 5; ++i) {
    x.push_back(i % 4 == 0 ? -0.0f : i % 4 == 1 ? 0.0f : i % 4 == 2 ? -1.0f
                                                                    : 1.0f);
  }
  for (const float pivot : {0.0f, -0.0f}) {
    expect_split_cases(x, pivot, 0.0f);
    expect_split_cases(x, pivot, -0.0f);
    std::vector<float> below(x.size() + kFloatLanes);
    std::vector<float> above(x.size() + kFloatLanes);
    const SplitCounts counts =
        split(x.data(), x.size(), pivot, below.data(), above.data());
    // Neither −0 nor +0 is below or above a zero pivot.
    EXPECT_EQ(x.size() - counts.below - counts.above,
              static_cast<std::size_t>(std::count(x.begin(), x.end(), 0.0f)));
    for (std::size_t i = 0; i < counts.below; ++i) EXPECT_EQ(below[i], -1.0f);
    for (std::size_t i = 0; i < counts.above; ++i) EXPECT_EQ(above[i], 1.0f);
  }
  // |x − c| is +0 whether x is −0 or +0; a −0 pivot keeps it equal.
  std::vector<float> zeros = {-0.0f, 0.0f, -0.0f, 0.0f, 2.0f};
  std::vector<float> above(zeros.size() + kFloatLanes);
  std::vector<float> below(zeros.size() + kFloatLanes);
  const SplitCounts dev = split_abs_diff(zeros.data(), zeros.size(), 0.0f,
                                         -0.0f, below.data(), above.data());
  EXPECT_EQ(dev.below, 0u);
  ASSERT_EQ(dev.above, 1u);
  EXPECT_EQ(above[0], 2.0f);
}

TEST(Simd, SplitHeavyDuplicates) {
  // Dequantized-u8-like sets: a few distinct values, long equal runs.
  std::mt19937 gen(7);
  std::uniform_int_distribution<int> code(0, 3);
  for (const std::size_t n : {kFloatLanes, 5 * kFloatLanes + 7, std::size_t{301}}) {
    std::vector<float> x(n);
    for (auto& v : x) v = 0.5f * static_cast<float>(code(gen));
    for (const float pivot : {0.0f, 0.5f, 1.0f, 1.5f}) {
      expect_split_cases(x, pivot, 0.75f);
    }
    std::vector<float> constant(n, 0.5f);
    expect_split_cases(constant, 0.5f, 0.5f);  // everything equal
  }
}

TEST(Simd, SplitAbsDiffMatchesFloatDeviation) {
  std::mt19937 gen(9);
  std::normal_distribution<float> dist(3.0f, 2.0f);
  std::vector<float> x(203);
  for (auto& v : x) v = dist(gen);
  x[5] = 3.125f;  // exactly c: deviation +0
  for (const float pivot : {0.0f, 1.0f, 2.5f, 20.0f}) {
    expect_split_matches_loop(x, pivot, &x[5]);
  }
}

}  // namespace
}  // namespace ddmc::simd
