#pragma once
/// \file simd.hpp
/// \brief Portable SIMD layer for the host dedispersion engine.
///
/// Exposes a width-agnostic packed-float type `vfloat` of `kFloatLanes`
/// lanes plus the handful of operations the dedispersion kernels need:
/// load/store (aligned and unaligned), add, mul, fma and broadcast. The
/// backend is chosen at compile time from the target ISA:
///
///   AVX-512 (16 lanes) → AVX (8) → SSE2 (4) → NEON (4) → scalar (1)
///
/// The 16-lane backend needs AVX512F, BW and VL (BW+VL give the byte-masked
/// loads of the u8 tail), so `-march=native` on an AVX-512 host selects it
/// and `-march=x86-64-v3` selects the 8-lane AVX backend with AVX2.
/// Defining DDMC_FORCE_SCALAR (CMake option of the same name) forces the
/// scalar fallback regardless of ISA — the CI matrix builds one leg this
/// way so both code paths stay green.
///
/// The dedispersion inner loop is a pure element-wise accumulate
/// (`a[t] += s[t]`), so vectorizing over the time dimension reorders no
/// floating-point additions: each output element still sums its channels
/// in channel order, and SIMD output is bitwise identical to the scalar
/// reference. fma is provided for downstream consumers (detection,
/// intensity weighting) and is NOT used on the bitwise-equality-critical
/// accumulate path.
///
/// A widening u8 load (`vload_u8`) serves the tiled kernel on quantized
/// input: samples stay one byte each in memory — a quarter of the float
/// input traffic, which is the whole game for a bandwidth-bound kernel —
/// and are unpacked to float lanes only inside the register tile. The
/// widening is one instruction on AVX-512 and AVX2 (`vpmovzxbd` +
/// convert); plain AVX, which has no 256-bit integer ops, needs a
/// seven-instruction 128-bit shuffle sequence, and that sequence — not the
/// memory traffic — set the u8 kernel's speed on AVX builds.
///
/// Backends with integer vectors (AVX-512BW, AVX2, SSE2, NEON) define
/// DDMC_SIMD_CODE_LANES and a second lane type for the u8 register tile:
/// `vcode` holds kCodeLanes = 2·kFloatLanes unsigned 16-bit code sums in
/// the same register width. `vcode_zero` clears it, `vcode_add_u8`
/// zero-extends the next kCodeLanes bytes to 16 bits and adds them
/// (`vpmovzxbw` + `vpaddw`, `vaddw_u8` on NEON: two instructions per
/// kCodeLanes samples, where widening to float lanes costs three per
/// kFloatLanes), and `vcode_widen_add` adds the lanes into kCodeLanes
/// floats of a row through an exact u16 → i32 → float conversion. Lanes
/// wrap modulo 2^16, so a caller adds at most 257 bytes into a lane
/// (255·257 = 65 535) before widening it. AVX without AVX2 and the scalar
/// fallback have no integer lanes and declare none of this.
///
/// Partial vectors (`vload_partial`, `vstore_partial`, `vload_u8_partial`)
/// touch only the first n < kFloatLanes elements and zero the rest of the
/// lanes. On AVX-512 they are single masked instructions whose masked-off
/// lanes never fault, and `kMaskedTail` tells the kernels to finish a span
/// with one such step; on the other backends they are a copy through a
/// lane buffer and the kernels keep their scalar tail loops.
///
/// `vtranspose` transposes a square block of kFloatLanes vectors in
/// registers: element i of vector j moves to element j of vector i. It is
/// how the batched FFT (fft.hpp) moves series between one-row-per-series
/// memory and one-series-per-lane registers with full-width loads and
/// stores; AVX-512, AVX and SSE2 shuffle, the other backends go through
/// memory.
///
/// `vmax` is the lane-wise maximum of finite values; which operand it
/// returns for a NaN or a −0/+0 tie differs between backends, so callers
/// screen those out. `split` (and its |x − c| variant) is the three-way
/// partition behind the detector's exact quickselect median: AVX-512 packs
/// sixteen lanes per step with a register-form `vcompressps` and a full
/// store into the outputs' slack, AVX2 packs eight with a movemask-indexed
/// permutation, every other backend (forced scalar included) runs a
/// branchless scalar loop.

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(DDMC_FORCE_SCALAR)
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)
#define DDMC_SIMD_AVX512 1
#include <immintrin.h>
#elif defined(__AVX__)
#define DDMC_SIMD_AVX 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define DDMC_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define DDMC_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace ddmc::simd {

#if defined(DDMC_SIMD_AVX512)

inline constexpr std::size_t kFloatLanes = 16;
inline constexpr bool kMaskedTail = true;
struct vfloat {
  __m512 v;
};

inline const char* backend_name() { return "avx512"; }
inline vfloat vzero() { return {_mm512_setzero_ps()}; }
inline vfloat vbroadcast(float x) { return {_mm512_set1_ps(x)}; }
inline vfloat vload(const float* p) { return {_mm512_loadu_ps(p)}; }
inline vfloat vload_aligned(const float* p) { return {_mm512_load_ps(p)}; }
inline void vstore(float* p, vfloat a) { _mm512_storeu_ps(p, a.v); }
inline void vstore_aligned(float* p, vfloat a) { _mm512_store_ps(p, a.v); }
inline vfloat vadd(vfloat a, vfloat b) { return {_mm512_add_ps(a.v, b.v)}; }
inline vfloat vsub(vfloat a, vfloat b) { return {_mm512_sub_ps(a.v, b.v)}; }
inline vfloat vmul(vfloat a, vfloat b) { return {_mm512_mul_ps(a.v, b.v)}; }
inline vfloat vmax(vfloat a, vfloat b) { return {_mm512_max_ps(a.v, b.v)}; }
inline vfloat vfma(vfloat a, vfloat b, vfloat c) {
  return {_mm512_fmadd_ps(a.v, b.v, c.v)};
}
inline vfloat vload_u8(const std::uint8_t* p) {
  // Exactly kFloatLanes bytes, zero-extended to 32 bits in one instruction.
  const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return {_mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(b))};
}

#define DDMC_SIMD_CODE_LANES 1
inline constexpr std::size_t kCodeLanes = 32;
struct vcode {
  __m512i v;
};
inline vcode vcode_zero() { return {_mm512_setzero_si512()}; }
inline vcode vcode_add_u8(vcode a, const std::uint8_t* p) {
  // Exactly kCodeLanes bytes, zero-extended to 16 bits in one instruction.
  const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  return {_mm512_add_epi16(a.v, _mm512_cvtepu8_epi16(b))};
}
inline void vcode_widen_add(float* row, vcode a) {
  const __m512i lo = _mm512_cvtepu16_epi32(_mm512_castsi512_si256(a.v));
  const __m512i hi = _mm512_cvtepu16_epi32(_mm512_extracti64x4_epi64(a.v, 1));
  _mm512_storeu_ps(row,
                   _mm512_add_ps(_mm512_loadu_ps(row), _mm512_cvtepi32_ps(lo)));
  _mm512_storeu_ps(row + 16, _mm512_add_ps(_mm512_loadu_ps(row + 16),
                                           _mm512_cvtepi32_ps(hi)));
}

namespace detail {
/// The first n lanes, n < kFloatLanes.
inline __mmask16 first_lanes(std::size_t n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}
}  // namespace detail

inline vfloat vload_partial(const float* p, std::size_t n) {
  return {_mm512_maskz_loadu_ps(detail::first_lanes(n), p)};
}
inline void vstore_partial(float* p, vfloat a, std::size_t n) {
  _mm512_mask_storeu_ps(p, detail::first_lanes(n), a.v);
}
inline vfloat vload_u8_partial(const std::uint8_t* p, std::size_t n) {
  const __m128i b = _mm_maskz_loadu_epi8(detail::first_lanes(n), p);
  return {_mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(b))};
}
inline void vtranspose(vfloat (&r)[kFloatLanes]) {
  // Per 128-bit lane, 4x4 transposes of each group of four rows
  // (unpack + shuffle), then two rounds of 128-bit block shuffles gather
  // column 4q+s from lane q of the four groups' vector s.
  __m512 t[16], u[16];
  for (int g = 0; g < 16; g += 4) {
    t[g + 0] = _mm512_unpacklo_ps(r[g + 0].v, r[g + 1].v);
    t[g + 1] = _mm512_unpackhi_ps(r[g + 0].v, r[g + 1].v);
    t[g + 2] = _mm512_unpacklo_ps(r[g + 2].v, r[g + 3].v);
    t[g + 3] = _mm512_unpackhi_ps(r[g + 2].v, r[g + 3].v);
    u[g + 0] = _mm512_shuffle_ps(t[g + 0], t[g + 2], 0x44);
    u[g + 1] = _mm512_shuffle_ps(t[g + 0], t[g + 2], 0xEE);
    u[g + 2] = _mm512_shuffle_ps(t[g + 1], t[g + 3], 0x44);
    u[g + 3] = _mm512_shuffle_ps(t[g + 1], t[g + 3], 0xEE);
  }
  for (int s = 0; s < 4; ++s) {
    const __m512 lo01 = _mm512_shuffle_f32x4(u[s], u[4 + s], 0x44);
    const __m512 hi01 = _mm512_shuffle_f32x4(u[s], u[4 + s], 0xEE);
    const __m512 lo23 = _mm512_shuffle_f32x4(u[8 + s], u[12 + s], 0x44);
    const __m512 hi23 = _mm512_shuffle_f32x4(u[8 + s], u[12 + s], 0xEE);
    r[s].v = _mm512_shuffle_f32x4(lo01, lo23, 0x88);
    r[4 + s].v = _mm512_shuffle_f32x4(lo01, lo23, 0xDD);
    r[8 + s].v = _mm512_shuffle_f32x4(hi01, hi23, 0x88);
    r[12 + s].v = _mm512_shuffle_f32x4(hi01, hi23, 0xDD);
  }
}

#elif defined(DDMC_SIMD_AVX)

inline constexpr std::size_t kFloatLanes = 8;
struct vfloat {
  __m256 v;
};

inline const char* backend_name() { return "avx"; }
inline vfloat vzero() { return {_mm256_setzero_ps()}; }
inline vfloat vbroadcast(float x) { return {_mm256_set1_ps(x)}; }
inline vfloat vload(const float* p) { return {_mm256_loadu_ps(p)}; }
inline vfloat vload_aligned(const float* p) { return {_mm256_load_ps(p)}; }
inline void vstore(float* p, vfloat a) { _mm256_storeu_ps(p, a.v); }
inline void vstore_aligned(float* p, vfloat a) { _mm256_store_ps(p, a.v); }
inline vfloat vadd(vfloat a, vfloat b) { return {_mm256_add_ps(a.v, b.v)}; }
inline vfloat vsub(vfloat a, vfloat b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline vfloat vmul(vfloat a, vfloat b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline vfloat vmax(vfloat a, vfloat b) { return {_mm256_max_ps(a.v, b.v)}; }
inline vfloat vfma(vfloat a, vfloat b, vfloat c) {
#if defined(__FMA__)
  return {_mm256_fmadd_ps(a.v, b.v, c.v)};
#else
  return {_mm256_add_ps(_mm256_mul_ps(a.v, b.v), c.v)};
#endif
}
inline vfloat vload_u8(const std::uint8_t* p) {
  // Exactly kFloatLanes bytes.
  const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
#if defined(__AVX2__)
  return {_mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(b))};
#else
  // Plain AVX has no 256-bit integer ops: widen u8 → u16 → u32 → f32 with
  // 128-bit unpacks.
  const __m128i zero = _mm_setzero_si128();
  const __m128i w = _mm_unpacklo_epi8(b, zero);
  const __m128 lo = _mm_cvtepi32_ps(_mm_unpacklo_epi16(w, zero));
  const __m128 hi = _mm_cvtepi32_ps(_mm_unpackhi_epi16(w, zero));
  return {_mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1)};
#endif
}
#if defined(__AVX2__)
#define DDMC_SIMD_CODE_LANES 1
inline constexpr std::size_t kCodeLanes = 16;
struct vcode {
  __m256i v;
};
inline vcode vcode_zero() { return {_mm256_setzero_si256()}; }
inline vcode vcode_add_u8(vcode a, const std::uint8_t* p) {
  const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return {_mm256_add_epi16(a.v, _mm256_cvtepu8_epi16(b))};
}
inline void vcode_widen_add(float* row, vcode a) {
  const __m256i lo = _mm256_cvtepu16_epi32(_mm256_castsi256_si128(a.v));
  const __m256i hi = _mm256_cvtepu16_epi32(_mm256_extracti128_si256(a.v, 1));
  _mm256_storeu_ps(row,
                   _mm256_add_ps(_mm256_loadu_ps(row), _mm256_cvtepi32_ps(lo)));
  _mm256_storeu_ps(row + 8, _mm256_add_ps(_mm256_loadu_ps(row + 8),
                                          _mm256_cvtepi32_ps(hi)));
}
#endif
inline void vtranspose(vfloat (&r)[kFloatLanes]) {
  // Per 128-bit lane, 4x4 transposes of rows 0-3 and 4-7 (unpack +
  // shuffle), then one 128-bit block swap pairs the two halves.
  __m256 t[8], u[8];
  for (int g = 0; g < 8; g += 4) {
    t[g + 0] = _mm256_unpacklo_ps(r[g + 0].v, r[g + 1].v);
    t[g + 1] = _mm256_unpackhi_ps(r[g + 0].v, r[g + 1].v);
    t[g + 2] = _mm256_unpacklo_ps(r[g + 2].v, r[g + 3].v);
    t[g + 3] = _mm256_unpackhi_ps(r[g + 2].v, r[g + 3].v);
    u[g + 0] = _mm256_shuffle_ps(t[g + 0], t[g + 2], 0x44);
    u[g + 1] = _mm256_shuffle_ps(t[g + 0], t[g + 2], 0xEE);
    u[g + 2] = _mm256_shuffle_ps(t[g + 1], t[g + 3], 0x44);
    u[g + 3] = _mm256_shuffle_ps(t[g + 1], t[g + 3], 0xEE);
  }
  for (int s = 0; s < 4; ++s) {
    r[s].v = _mm256_permute2f128_ps(u[s], u[4 + s], 0x20);
    r[4 + s].v = _mm256_permute2f128_ps(u[s], u[4 + s], 0x31);
  }
}

#elif defined(DDMC_SIMD_SSE2)

inline constexpr std::size_t kFloatLanes = 4;
struct vfloat {
  __m128 v;
};

inline const char* backend_name() { return "sse2"; }
inline vfloat vzero() { return {_mm_setzero_ps()}; }
inline vfloat vbroadcast(float x) { return {_mm_set1_ps(x)}; }
inline vfloat vload(const float* p) { return {_mm_loadu_ps(p)}; }
inline vfloat vload_aligned(const float* p) { return {_mm_load_ps(p)}; }
inline void vstore(float* p, vfloat a) { _mm_storeu_ps(p, a.v); }
inline void vstore_aligned(float* p, vfloat a) { _mm_store_ps(p, a.v); }
inline vfloat vadd(vfloat a, vfloat b) { return {_mm_add_ps(a.v, b.v)}; }
inline vfloat vsub(vfloat a, vfloat b) { return {_mm_sub_ps(a.v, b.v)}; }
inline vfloat vmul(vfloat a, vfloat b) { return {_mm_mul_ps(a.v, b.v)}; }
inline vfloat vmax(vfloat a, vfloat b) { return {_mm_max_ps(a.v, b.v)}; }
inline vfloat vfma(vfloat a, vfloat b, vfloat c) {
  return {_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v)};
}
inline vfloat vload_u8(const std::uint8_t* p) {
  // memcpy exactly kFloatLanes bytes so the widening load never reads past
  // the span a float vload of the same index would.
  std::uint32_t raw;
  std::memcpy(&raw, p, sizeof(raw));
  const __m128i b = _mm_cvtsi32_si128(static_cast<int>(raw));
  const __m128i zero = _mm_setzero_si128();
  const __m128i w = _mm_unpacklo_epi8(b, zero);
  return {_mm_cvtepi32_ps(_mm_unpacklo_epi16(w, zero))};
}
#define DDMC_SIMD_CODE_LANES 1
inline constexpr std::size_t kCodeLanes = 8;
struct vcode {
  __m128i v;
};
inline vcode vcode_zero() { return {_mm_setzero_si128()}; }
inline vcode vcode_add_u8(vcode a, const std::uint8_t* p) {
  const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return {_mm_add_epi16(a.v, _mm_unpacklo_epi8(b, _mm_setzero_si128()))};
}
inline void vcode_widen_add(float* row, vcode a) {
  const __m128i zero = _mm_setzero_si128();
  const __m128 lo = _mm_cvtepi32_ps(_mm_unpacklo_epi16(a.v, zero));
  const __m128 hi = _mm_cvtepi32_ps(_mm_unpackhi_epi16(a.v, zero));
  _mm_storeu_ps(row, _mm_add_ps(_mm_loadu_ps(row), lo));
  _mm_storeu_ps(row + 4, _mm_add_ps(_mm_loadu_ps(row + 4), hi));
}
inline void vtranspose(vfloat (&r)[kFloatLanes]) {
  _MM_TRANSPOSE4_PS(r[0].v, r[1].v, r[2].v, r[3].v);
}

#elif defined(DDMC_SIMD_NEON)

inline constexpr std::size_t kFloatLanes = 4;
struct vfloat {
  float32x4_t v;
};

inline const char* backend_name() { return "neon"; }
inline vfloat vzero() { return {vdupq_n_f32(0.0f)}; }
inline vfloat vbroadcast(float x) { return {vdupq_n_f32(x)}; }
inline vfloat vload(const float* p) { return {vld1q_f32(p)}; }
inline vfloat vload_aligned(const float* p) { return {vld1q_f32(p)}; }
inline void vstore(float* p, vfloat a) { vst1q_f32(p, a.v); }
inline void vstore_aligned(float* p, vfloat a) { vst1q_f32(p, a.v); }
inline vfloat vadd(vfloat a, vfloat b) { return {vaddq_f32(a.v, b.v)}; }
inline vfloat vsub(vfloat a, vfloat b) { return {vsubq_f32(a.v, b.v)}; }
inline vfloat vmul(vfloat a, vfloat b) { return {vmulq_f32(a.v, b.v)}; }
inline vfloat vmax(vfloat a, vfloat b) { return {vmaxq_f32(a.v, b.v)}; }
inline vfloat vfma(vfloat a, vfloat b, vfloat c) {
  return {vfmaq_f32(c.v, a.v, b.v)};
}
inline vfloat vload_u8(const std::uint8_t* p) {
  // memcpy exactly kFloatLanes bytes so the widening load never reads past
  // the span a float vload of the same index would.
  std::uint32_t raw;
  std::memcpy(&raw, p, sizeof(raw));
  const uint8x8_t b = vreinterpret_u8_u32(vdup_n_u32(raw));
  const uint16x4_t w = vget_low_u16(vmovl_u8(b));
  return {vcvtq_f32_u32(vmovl_u16(w))};
}
#define DDMC_SIMD_CODE_LANES 1
inline constexpr std::size_t kCodeLanes = 8;
struct vcode {
  uint16x8_t v;
};
inline vcode vcode_zero() { return {vdupq_n_u16(0)}; }
inline vcode vcode_add_u8(vcode a, const std::uint8_t* p) {
  return {vaddw_u8(a.v, vld1_u8(p))};
}
inline void vcode_widen_add(float* row, vcode a) {
  const float32x4_t lo = vcvtq_f32_u32(vmovl_u16(vget_low_u16(a.v)));
  const float32x4_t hi = vcvtq_f32_u32(vmovl_u16(vget_high_u16(a.v)));
  vst1q_f32(row, vaddq_f32(vld1q_f32(row), lo));
  vst1q_f32(row + 4, vaddq_f32(vld1q_f32(row + 4), hi));
}

#else  // scalar fallback

inline constexpr std::size_t kFloatLanes = 1;
struct vfloat {
  float v;
};

inline const char* backend_name() { return "scalar"; }
inline vfloat vzero() { return {0.0f}; }
inline vfloat vbroadcast(float x) { return {x}; }
inline vfloat vload(const float* p) { return {*p}; }
inline vfloat vload_aligned(const float* p) { return {*p}; }
inline void vstore(float* p, vfloat a) { *p = a.v; }
inline void vstore_aligned(float* p, vfloat a) { *p = a.v; }
inline vfloat vadd(vfloat a, vfloat b) { return {a.v + b.v}; }
inline vfloat vsub(vfloat a, vfloat b) { return {a.v - b.v}; }
inline vfloat vmul(vfloat a, vfloat b) { return {a.v * b.v}; }
inline vfloat vmax(vfloat a, vfloat b) { return {a.v > b.v ? a.v : b.v}; }
inline vfloat vfma(vfloat a, vfloat b, vfloat c) { return {a.v * b.v + c.v}; }
inline vfloat vload_u8(const std::uint8_t* p) {
  return {static_cast<float>(*p)};
}

#endif

#if !defined(DDMC_SIMD_AVX512) && !defined(DDMC_SIMD_AVX) && \
    !defined(DDMC_SIMD_SSE2)
inline void vtranspose(vfloat (&r)[kFloatLanes]) {
  alignas(64) float m[kFloatLanes][kFloatLanes];
  for (std::size_t i = 0; i < kFloatLanes; ++i) vstore_aligned(m[i], r[i]);
  for (std::size_t i = 0; i < kFloatLanes; ++i) {
    alignas(64) float col[kFloatLanes];
    for (std::size_t j = 0; j < kFloatLanes; ++j) col[j] = m[j][i];
    r[i] = vload_aligned(col);
  }
}
#endif

#if !defined(DDMC_SIMD_AVX512)
inline constexpr bool kMaskedTail = false;

inline vfloat vload_partial(const float* p, std::size_t n) {
  alignas(64) float lanes[kFloatLanes] = {};
  if (n > 0) std::memcpy(lanes, p, n * sizeof(float));
  return vload_aligned(lanes);
}
inline void vstore_partial(float* p, vfloat a, std::size_t n) {
  alignas(64) float lanes[kFloatLanes];
  vstore_aligned(lanes, a);
  if (n > 0) std::memcpy(p, lanes, n * sizeof(float));
}
inline vfloat vload_u8_partial(const std::uint8_t* p, std::size_t n) {
  alignas(64) float lanes[kFloatLanes] = {};
  for (std::size_t i = 0; i < n; ++i) lanes[i] = static_cast<float>(p[i]);
  return vload_aligned(lanes);
}
#endif

/// The unroll hints with a compiled instantiation behind them. Anything
/// else would silently measure the un-unrolled loop under the wrong label,
/// so KernelConfig::validate rejects unsupported hints before they reach a
/// kernel or a tuning measurement.
inline constexpr bool is_supported_unroll(std::size_t unroll) {
  return unroll == 1 || unroll == 2 || unroll == 4 || unroll == 8;
}

/// Result of a split pass: how many inputs went below the pivot and how
/// many above it. The rest compared equal to it.
struct SplitCounts {
  std::size_t below = 0;
  std::size_t above = 0;
};

namespace detail {

#if defined(DDMC_SIMD_AVX) && defined(__AVX2__)
/// kCompactPerm[mask] lists the lanes set in an 8-bit lane mask in
/// ascending order (unused slots 0): the permutation that left-packs them.
inline constexpr auto kCompactPerm = [] {
  std::array<std::array<std::int32_t, 8>, 256> table{};
  for (std::size_t mask = 0; mask < table.size(); ++mask) {
    std::size_t slot = 0;
    for (std::int32_t lane = 0; lane < 8; ++lane) {
      if ((mask >> lane) & 1u) table[mask][slot++] = lane;
    }
  }
  return table;
}();
#endif

/// Shared body of the two split entry points: the value split is x[i] or,
/// with AbsDiff, |x[i] − c| computed in float. Every full-width store lands
/// at or before the vector just loaded, so `below` may be `x` itself.
template <bool AbsDiff>
inline SplitCounts split_impl(const float* x, std::size_t n, float c,
                              float pivot, float* below, float* above) {
  std::size_t nb = 0;
  std::size_t na = 0;
  std::size_t i = 0;
#if defined(DDMC_SIMD_AVX512)
  const __m512 vp = _mm512_set1_ps(pivot);
  const __m512 vc = _mm512_set1_ps(c);
  const auto step = [&](__m512 v, __mmask16 lanes) {
    if constexpr (AbsDiff) v = _mm512_abs_ps(_mm512_sub_ps(v, vc));
    const __mmask16 lt = _mm512_mask_cmp_ps_mask(lanes, v, vp, _CMP_LT_OQ);
    const __mmask16 gt = _mm512_mask_cmp_ps_mask(lanes, v, vp, _CMP_GT_OQ);
    // Register-form compress and a full store: the lanes past the packed
    // ones land in the next step's slots or in the outputs' slack.
    _mm512_storeu_ps(below + nb, _mm512_maskz_compress_ps(lt, v));
    _mm512_storeu_ps(above + na, _mm512_maskz_compress_ps(gt, v));
    nb += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(lt)));
    na += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(gt)));
  };
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    step(_mm512_loadu_ps(x + i), static_cast<__mmask16>(0xFFFF));
  }
  if (i < n) {
    step(_mm512_maskz_loadu_ps(first_lanes(n - i), x + i),
         first_lanes(n - i));
    i = n;
  }
#elif defined(DDMC_SIMD_AVX) && defined(__AVX2__)
  const __m256 vp = _mm256_set1_ps(pivot);
  const __m256 vc = _mm256_set1_ps(c);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    if constexpr (AbsDiff) v = _mm256_andnot_ps(sign, _mm256_sub_ps(v, vc));
    const auto lt = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, vp, _CMP_LT_OQ)));
    const auto gt = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, vp, _CMP_GT_OQ)));
    const auto pack = [v](unsigned mask) {
      return _mm256_permutevar8x32_ps(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                 kCompactPerm[mask].data())));
    };
    // nb, na <= i, so the full-width stores stay inside [0, i + 8).
    _mm256_storeu_ps(below + nb, pack(lt));
    _mm256_storeu_ps(above + na, pack(gt));
    nb += static_cast<std::size_t>(std::popcount(lt));
    na += static_cast<std::size_t>(std::popcount(gt));
  }
#endif
  for (; i < n; ++i) {
    const float v = AbsDiff ? std::abs(x[i] - c) : x[i];
    below[nb] = v;
    above[na] = v;
    nb += static_cast<std::size_t>(v < pivot);
    na += static_cast<std::size_t>(v > pivot);
  }
  return {nb, na};
}

}  // namespace detail

/// Three-way split around `pivot`: every x[i] < pivot is packed into
/// `below` and every x[i] > pivot into `above`, each in input order; the
/// ones equal to it (−0 and +0 compare equal) are only counted, as
/// n − below − above. Both outputs need room for n + kFloatLanes floats
/// (full-width stores run into that slack) and are clobbered past their
/// packed prefix. `below` may be `x` (an in-place split); `above` may not
/// overlap it. The input must hold no NaN.
inline SplitCounts split(const float* x, std::size_t n, float pivot,
                         float* below, float* above) {
  return detail::split_impl<false>(x, n, 0.0f, pivot, below, above);
}

/// split over the deviations |x[i] − c|, each computed in float as
/// std::abs(x[i] − c); no deviation array is written.
inline SplitCounts split_abs_diff(const float* x, std::size_t n, float c,
                                  float pivot, float* below, float* above) {
  return detail::split_impl<true>(x, n, c, pivot, below, above);
}

}  // namespace ddmc::simd
