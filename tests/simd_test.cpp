// Tests for the portable SIMD layer: backend sanity, per-lane operation
// semantics, partial (masked) vectors, bitwise equivalence of the vectorized
// accumulate with the scalar loop across widths, tails and unroll factors,
// and the left-pack compaction behind the detector's bracketed median.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
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

/// Every span length up to three vectors and one past (each tail of the
/// single-vector loop and of the masked step), plus long spans that run
/// the unrolled loop.
std::vector<std::size_t> span_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 3 * kFloatLanes + 1; ++n) lengths.push_back(n);
  for (std::size_t n : {31ul, 64ul, 97ul, 200ul}) lengths.push_back(n);
  return lengths;
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

TEST(Simd, AccumulateSpanMatchesScalarBitwise) {
  std::mt19937 gen(20260730);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  // Cover empty spans, every tail, exact multiples and long spans, at
  // unaligned source offsets, for every unroll hint. Sources end exactly
  // at the span, so a tail that reads past it trips the sanitizer leg.
  // Unroll 3 has no
  // compiled instantiation — KernelConfig::validate rejects it upstream —
  // but the low-level dispatcher still maps it to the plain loop for
  // direct callers, and that fallback must stay bitwise-correct.
  for (std::size_t n : span_lengths()) {
    for (std::size_t unroll : {1ul, 2ul, 3ul, 4ul, 8ul}) {
      for (std::size_t offset : {0ul, 1ul}) {
        std::vector<float> src(n + offset);
        std::vector<float> acc_simd(n), acc_scalar(n);
        for (auto& v : src) v = dist(gen);
        for (std::size_t i = 0; i < n; ++i) {
          acc_simd[i] = acc_scalar[i] = dist(gen);
        }
        accumulate_span(acc_simd.data(), src.data() + offset, n, unroll);
        for (std::size_t i = 0; i < n; ++i) {
          acc_scalar[i] += src[offset + i];
        }
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(acc_simd[i], acc_scalar[i])
              << "n=" << n << " unroll=" << unroll << " offset=" << offset
              << " i=" << i;
        }
      }
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

TEST(Simd, AccumulateSpanU8MatchesScalarBitwise) {
  std::mt19937 gen(20260808);
  std::uniform_int_distribution<int> dist(0, 255);
  std::uniform_real_distribution<float> fdist(-1.0f, 1.0f);
  for (std::size_t n : span_lengths()) {
    for (std::size_t unroll : {1ul, 2ul, 3ul, 4ul, 8ul}) {
      for (std::size_t offset : {0ul, 1ul}) {
        std::vector<std::uint8_t> src(n + offset);
        std::vector<float> acc_simd(n), acc_scalar(n);
        for (auto& v : src) v = static_cast<std::uint8_t>(dist(gen));
        for (std::size_t i = 0; i < n; ++i) {
          acc_simd[i] = acc_scalar[i] = fdist(gen);
        }
        accumulate_span_u8(acc_simd.data(), src.data() + offset, n, unroll);
        for (std::size_t i = 0; i < n; ++i) {
          acc_scalar[i] += static_cast<float>(src[offset + i]);
        }
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(acc_simd[i], acc_scalar[i])
              << "n=" << n << " unroll=" << unroll << " offset=" << offset
              << " i=" << i;
        }
      }
    }
  }
}

TEST(Simd, AccumulateSpanU8IsAdditiveOverCalls) {
  // Channel-blocking identity for the u8 path: two blocked passes with
  // different unroll hints equal one full pass bitwise.
  const std::size_t n = 70;
  std::vector<std::uint8_t> a(n), b(n);
  std::vector<float> acc_once(n, 0.0f), acc_split(n, 0.0f);
  std::mt19937 gen(9);
  std::uniform_int_distribution<int> dist(0, 255);
  for (auto& v : a) v = static_cast<std::uint8_t>(dist(gen));
  for (auto& v : b) v = static_cast<std::uint8_t>(dist(gen));
  accumulate_span_u8(acc_once.data(), a.data(), n);
  accumulate_span_u8(acc_once.data(), b.data(), n);
  accumulate_span_u8(acc_split.data(), a.data(), n, 4);
  accumulate_span_u8(acc_split.data(), b.data(), n, 2);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(acc_once[i], acc_split[i]);
}

TEST(Simd, AccumulateSpanIsAdditiveOverCalls) {
  // Two blocked passes equal one full pass — the channel-blocking identity
  // the tiled engine relies on.
  const std::size_t n = 70;
  std::vector<float> a(n), b(n), acc_once(n, 0.0f), acc_split(n, 0.0f);
  std::mt19937 gen(7);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : a) v = dist(gen);
  for (auto& v : b) v = dist(gen);
  accumulate_span(acc_once.data(), a.data(), n);
  accumulate_span(acc_once.data(), b.data(), n);
  accumulate_span(acc_split.data(), a.data(), n, 4);
  accumulate_span(acc_split.data(), b.data(), n, 2);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(acc_once[i], acc_split[i]);
}

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

/// Checks compact_in_range (or, with `c`, compact_abs_diff_in_range) against
/// a plain branchy loop: counts, and the packed prefix bit for bit in input
/// order. `out` is exactly n floats, so the sanitizer leg catches any store
/// past it.
void expect_compact_matches_loop(const std::vector<float>& x, float lo,
                                 float hi, const float* c = nullptr) {
  std::size_t below = 0;
  std::vector<float> expected;
  for (const float raw : x) {
    const float v = c ? std::abs(raw - *c) : raw;
    if (v < lo) {
      ++below;
    } else if (v <= hi) {
      expected.push_back(v);
    }
  }
  std::vector<float> out(x.size());
  const CompactCounts counts =
      c ? compact_abs_diff_in_range(x.data(), x.size(), *c, lo, hi, out.data())
        : compact_in_range(x.data(), x.size(), lo, hi, out.data());
  EXPECT_EQ(counts.below, below) << "n " << x.size();
  ASSERT_EQ(counts.packed, expected.size()) << "n " << x.size();
  if (!expected.empty()) {
    EXPECT_EQ(std::memcmp(out.data(), expected.data(),
                          expected.size() * sizeof(float)),
              0)
        << "n " << x.size();
  }
}

TEST(Simd, CompactInRangeCoversEveryTail) {
  std::mt19937 gen(3);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  const float c = 0.25f;
  for (std::size_t n = 0; n <= 4 * 8 + 3; ++n) {
    std::vector<float> x(n);
    for (auto& v : x) v = dist(gen);
    expect_compact_matches_loop(x, -0.3f, 0.4f);
    expect_compact_matches_loop(x, 0.1f, 0.6f, &c);
  }
}

TEST(Simd, CompactInRangeEmptyAndFullResults) {
  std::vector<float> x(37);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  expect_compact_matches_loop(x, 100.0f, 200.0f);  // nothing packed, all below
  expect_compact_matches_loop(x, -5.0f, -1.0f);    // nothing packed or below
  expect_compact_matches_loop(x, 0.0f, 36.0f);     // everything packed
  const float c = 18.0f;
  expect_compact_matches_loop(x, 0.0f, 18.0f, &c);  // every deviation packed
}

TEST(Simd, CompactInRangeIncludesBothEnds) {
  const std::vector<float> x = {1.0f, 2.0f, 3.0f, 2.0f, 1.0f, 3.0f,
                                4.0f, 0.5f, 2.0f, 3.0f, 1.0f};
  std::vector<float> out(x.size());
  const CompactCounts counts =
      compact_in_range(x.data(), x.size(), 1.0f, 3.0f, out.data());
  EXPECT_EQ(counts.below, 1u);   // 0.5
  EXPECT_EQ(counts.packed, 9u);  // every 1, 2 and 3; not 4 or 0.5
  expect_compact_matches_loop(x, 2.0f, 2.0f);
}

TEST(Simd, CompactInRangeTreatsSignedZerosAsEqual) {
  std::vector<float> x;
  for (int i = 0; i < 19; ++i) {
    x.push_back(i % 3 == 0 ? -0.0f : i % 3 == 1 ? 0.0f : -1.0f);
  }
  expect_compact_matches_loop(x, 0.0f, 0.0f);
  expect_compact_matches_loop(x, -0.0f, 0.0f);
  expect_compact_matches_loop(x, 0.0f, 1.0f);  // −0 is not below +0
  // Packed zeros keep their sign bits.
  std::vector<float> out(x.size());
  const CompactCounts counts =
      compact_in_range(x.data(), x.size(), -0.0f, -0.0f, out.data());
  ASSERT_EQ(counts.packed, 13u);
  EXPECT_TRUE(std::signbit(out[0]));
  EXPECT_FALSE(std::signbit(out[1]));
  // |x − c| is +0 whether x is −0 or +0.
  const float c = 0.0f;
  const CompactCounts dev =
      compact_abs_diff_in_range(x.data(), x.size(), c, 0.0f, 0.0f, out.data());
  ASSERT_EQ(dev.packed, 13u);
  for (std::size_t i = 0; i < dev.packed; ++i) EXPECT_FALSE(std::signbit(out[i]));
}

TEST(Simd, CompactAbsDiffMatchesFloatDeviation) {
  std::mt19937 gen(9);
  std::normal_distribution<float> dist(3.0f, 2.0f);
  std::vector<float> x(203);
  for (auto& v : x) v = dist(gen);
  x[5] = 3.125f;  // exactly c: deviation +0
  const float c = 3.125f;
  expect_compact_matches_loop(x, 0.0f, 1.0f, &c);
  expect_compact_matches_loop(x, 0.5f, 2.5f, &c);
  expect_compact_matches_loop(x, 10.0f, 20.0f, &c);  // every deviation below
}

TEST(Simd, CompactInRangeSkipsNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> x(21, 1.0f);
  x[0] = nan;
  x[9] = nan;
  x[20] = nan;
  std::vector<float> out(x.size());
  const CompactCounts counts =
      compact_in_range(x.data(), x.size(), 0.0f, 2.0f, out.data());
  EXPECT_EQ(counts.below, 0u);
  EXPECT_EQ(counts.packed, 18u);
}

}  // namespace
}  // namespace ddmc::simd
