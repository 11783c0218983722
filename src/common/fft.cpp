#include "common/fft.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "common/simd.hpp"

namespace ddmc::fft {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;
constexpr std::size_t kLanes = simd::kFloatLanes;

std::size_t log2_of(std::size_t n) {
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  return bits;
}

/// Row pointers of the batch of \p count rows starting at row \p r0; the
/// spare lanes of a short batch repeat its first row, so every lane reads
/// valid samples and the vector path needs no tail.
template <typename View, typename Ptr>
void batch_rows(const View& view, std::size_t r0, std::size_t count,
                Ptr (&rows)[kLanes]) {
  for (std::size_t l = 0; l < kLanes; ++l) {
    rows[l] = &view(r0 + (l < count ? l : 0), 0);
  }
}

/// Row pointers of the batch of \p count output rows starting at row \p r0;
/// the spare lanes of a short batch write to \p sink, which the caller
/// never reads, so the lane loops keep a constant trip count.
template <typename View>
void batch_rows_out(const View& view, std::size_t r0, std::size_t count,
                    float* sink, float* (&rows)[kLanes]) {
  for (std::size_t l = 0; l < kLanes; ++l) {
    rows[l] = l < count ? &view(r0 + l, 0) : sink;
  }
}

/// Butterfly passes touch the whole batch (2 x m vfloats) once each, so
/// the passes whose spans fit in a block of this many bins run block by
/// block while the block stays in L1 — on a 2048-point transform that
/// turns ten passes over L2 into three.
constexpr std::size_t kBlockBins = 256;

/// Decimation-in-time butterflies of half-spans h in [h_begin, h_end) over
/// bins [p0, p1) of the batch planes; \p twr / \p twi are the stage-major
/// twiddle tables (stage h at offset h - 1).
void dit_passes(float* __restrict zr, float* __restrict zi, std::size_t p0,
                std::size_t p1, std::size_t h_begin, std::size_t h_end,
                const float* twr, const float* twi) {
  using simd::vfloat;
  for (std::size_t h = h_begin; h < h_end; h <<= 1) {
    for (std::size_t base = p0; base < p1; base += 2 * h) {
      for (std::size_t j = 0; j < h; ++j) {
        const vfloat wr = simd::vbroadcast(twr[h - 1 + j]);
        const vfloat wi = simd::vbroadcast(twi[h - 1 + j]);
        float* lr = zr + (base + j) * kLanes;
        float* li = zi + (base + j) * kLanes;
        float* hr = lr + h * kLanes;
        float* hi = li + h * kLanes;
        const vfloat ur = simd::vload(lr), ui = simd::vload(li);
        const vfloat tr = simd::vload(hr), ti = simd::vload(hi);
        const vfloat vr = simd::vsub(simd::vmul(tr, wr), simd::vmul(ti, wi));
        const vfloat vi = simd::vfma(tr, wi, simd::vmul(ti, wr));
        simd::vstore(lr, simd::vadd(ur, vr));
        simd::vstore(li, simd::vadd(ui, vi));
        simd::vstore(hr, simd::vsub(ur, vr));
        simd::vstore(hi, simd::vsub(ui, vi));
      }
    }
  }
}

/// Decimation-in-frequency butterflies with the conjugate (inverse)
/// twiddles, half-spans h from \p h_first down to \p h_last, over bins
/// [p0, p1).
void dif_passes(float* __restrict zr, float* __restrict zi, std::size_t p0,
                std::size_t p1, std::size_t h_first, std::size_t h_last,
                const float* twr, const float* twi) {
  using simd::vfloat;
  for (std::size_t h = h_first; h >= h_last && h > 0; h >>= 1) {
    for (std::size_t base = p0; base < p1; base += 2 * h) {
      for (std::size_t j = 0; j < h; ++j) {
        const vfloat wr = simd::vbroadcast(twr[h - 1 + j]);
        const vfloat wi = simd::vbroadcast(-twi[h - 1 + j]);
        float* lr = zr + (base + j) * kLanes;
        float* li = zi + (base + j) * kLanes;
        float* hr = lr + h * kLanes;
        float* hi = li + h * kLanes;
        const vfloat ur = simd::vload(lr), ui = simd::vload(li);
        const vfloat vr = simd::vload(hr), vi = simd::vload(hi);
        const vfloat dr = simd::vsub(ur, vr);
        const vfloat di = simd::vsub(ui, vi);
        simd::vstore(lr, simd::vadd(ur, vr));
        simd::vstore(li, simd::vadd(ui, vi));
        simd::vstore(hr, simd::vsub(simd::vmul(dr, wr), simd::vmul(di, wi)));
        simd::vstore(hi, simd::vfma(dr, wi, simd::vmul(di, wr)));
      }
    }
  }
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

RealFftPlan::RealFftPlan(std::size_t n) : n_(n), m_(n / 2) {
  DDMC_REQUIRE(is_pow2(n), "real FFT size must be a power of two");
  const std::size_t bits = log2_of(m_);
  bitrev_.resize(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    std::size_t rev = 0;
    for (std::size_t b = 0; b < bits; ++b) rev |= ((i >> b) & 1u) << (bits - 1 - b);
    bitrev_[i] = static_cast<std::uint32_t>(rev);
  }
  // Butterfly twiddles stage after stage: the stage of half-span h keeps
  // e^{-2*pi*i*j/(2h)}, j < h, at offset h - 1, so each pass reads its
  // twiddles contiguously (m - 1 entries in all).
  twiddle_re_.resize(m_ > 0 ? m_ - 1 : 0);
  twiddle_im_.resize(twiddle_re_.size());
  for (std::size_t h = 1; h < m_; h <<= 1) {
    for (std::size_t j = 0; j < h; ++j) {
      const double angle =
          -kTwoPi * static_cast<double>(j) / static_cast<double>(2 * h);
      twiddle_re_[h - 1 + j] = static_cast<float>(std::cos(angle));
      twiddle_im_[h - 1 + j] = static_cast<float>(std::sin(angle));
    }
  }
  weight_re_.resize(m_ + 1);
  weight_im_.resize(m_ + 1);
  for (std::size_t k = 0; k <= m_; ++k) {
    const double angle =
        -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    weight_re_[k] = static_cast<float>(std::cos(angle));
    weight_im_[k] = static_cast<float>(std::sin(angle));
  }
}

std::size_t RealFftPlan::scratch_floats() const {
  // The two batch planes, then a sink row for the spare lanes' output.
  return n_ == 1 ? 0 : 2 * m_ * kLanes + n_ + 2;
}

void RealFftPlan::forward(ConstView2D<float> x, View2D<float> re,
                          View2D<float> im, std::span<float> scratch) const {
  const std::size_t n_in = x.cols();
  DDMC_REQUIRE(n_in <= n_, "real FFT input longer than the transform size");
  DDMC_REQUIRE(re.rows() == x.rows() && im.rows() == x.rows(),
               "real FFT spectrum rows != series rows");
  DDMC_REQUIRE(re.cols() >= bins() && im.cols() >= bins(),
               "real FFT spectrum rows shorter than bins()");
  DDMC_REQUIRE(scratch.size() >= scratch_floats(), "real FFT scratch too small");
  if (n_ == 1) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      re(r, 0) = n_in > 0 ? x(r, 0) : 0.0f;
      im(r, 0) = 0.0f;
    }
    return;
  }
  using simd::vfloat;
  const std::size_t m = m_;
  float* __restrict zr = scratch.data();
  float* __restrict zi = zr + m * kLanes;
  float* sink = zi + m * kLanes;
  const vfloat half = simd::vbroadcast(0.5f);
  const std::size_t pairs = n_in / 2;
  const std::size_t block = std::min(m, kBlockBins);

  for (std::size_t r0 = 0; r0 < x.rows(); r0 += kLanes) {
    const std::size_t count = std::min(kLanes, x.rows() - r0);
    const float* src[kLanes];
    batch_rows(x, r0, count, src);

    // Pack adjacent sample pairs, z[t] = x[2t] + i*x[2t+1], straight into
    // bit-reversed position: kLanes samples of every series per transpose
    // give kLanes/2 pairs; the last few pairs, the split pair of an odd
    // n_in and the zero tail go lane by lane.
    std::size_t t = 0;
    if constexpr (kLanes >= 2) {
      for (; t + kLanes / 2 <= pairs; t += kLanes / 2) {
        vfloat blk[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
          blk[l] = simd::vload(src[l] + 2 * t);
        }
        simd::vtranspose(blk);  // blk[c]: sample 2t + c of every series
        for (std::size_t j = 0; j < kLanes / 2; ++j) {
          simd::vstore(zr + bitrev_[t + j] * kLanes, blk[2 * j]);
          simd::vstore(zi + bitrev_[t + j] * kLanes, blk[2 * j + 1]);
        }
      }
    }
    for (; t < pairs; ++t) {
      float* dr = zr + bitrev_[t] * kLanes;
      float* di = zi + bitrev_[t] * kLanes;
      for (std::size_t l = 0; l < kLanes; ++l) {
        dr[l] = src[l][2 * t];
        di[l] = src[l][2 * t + 1];
      }
    }
    if (n_in % 2 == 1) {
      float* dr = zr + bitrev_[t] * kLanes;
      float* di = zi + bitrev_[t] * kLanes;
      for (std::size_t l = 0; l < kLanes; ++l) {
        dr[l] = src[l][n_in - 1];
        di[l] = 0.0f;
      }
      ++t;
    }
    for (; t < m; ++t) {
      std::fill_n(zr + bitrev_[t] * kLanes, kLanes, 0.0f);
      std::fill_n(zi + bitrev_[t] * kLanes, kLanes, 0.0f);
    }

    // Decimation-in-time butterflies, natural-order result: the short
    // spans block by block, then the long ones over the whole batch.
    for (std::size_t b = 0; b < m; b += block) {
      dit_passes(zr, zi, b, b + block, 1, block, twiddle_re_.data(),
                 twiddle_im_.data());
    }
    dit_passes(zr, zi, 0, m, block, m, twiddle_re_.data(),
               twiddle_im_.data());

    // Unpack: split the packed spectrum into the even/odd-sample halves
    // (Fe, Fo) and recombine as X[k] = Fe[k] + W^k * Fo[k]. Bins 0 and m
    // are real: X[0] = Re z[0] + Im z[0], X[m] = Re z[0] - Im z[0].
    float* dre[kLanes];
    float* dim[kLanes];
    batch_rows_out(re, r0, count, sink, dre);
    batch_rows_out(im, r0, count, sink + m + 1, dim);
    const auto bin = [&](std::size_t k, vfloat& xr, vfloat& xi) {
      const vfloat zkr = simd::vload(zr + k * kLanes);
      const vfloat zki = simd::vload(zi + k * kLanes);
      const vfloat zmr = simd::vload(zr + (m - k) * kLanes);
      const vfloat zmi = simd::vload(zi + (m - k) * kLanes);
      const vfloat fer = simd::vmul(half, simd::vadd(zkr, zmr));
      const vfloat fei = simd::vmul(half, simd::vsub(zki, zmi));
      const vfloat for_ = simd::vmul(half, simd::vadd(zki, zmi));
      const vfloat foi = simd::vmul(half, simd::vsub(zmr, zkr));
      const vfloat wr = simd::vbroadcast(weight_re_[k]);
      const vfloat wi = simd::vbroadcast(weight_im_[k]);
      xr = simd::vsub(simd::vfma(for_, wr, fer), simd::vmul(foi, wi));
      xi = simd::vfma(foi, wr, simd::vfma(for_, wi, fei));
    };
    if (m % kLanes == 0) {
      // kLanes bins at a time, transposed into their series rows.
      for (std::size_t k0 = 0; k0 < m; k0 += kLanes) {
        vfloat xr[kLanes], xi[kLanes];
        for (std::size_t c = k0 == 0 ? 1 : 0; c < kLanes; ++c) {
          bin(k0 + c, xr[c], xi[c]);
        }
        if (k0 == 0) {
          xr[0] = simd::vadd(simd::vload(zr), simd::vload(zi));
          xi[0] = simd::vzero();
        }
        simd::vtranspose(xr);
        simd::vtranspose(xi);
        for (std::size_t l = 0; l < kLanes; ++l) {
          simd::vstore(dre[l] + k0, xr[l]);
          simd::vstore(dim[l] + k0, xi[l]);
        }
      }
    } else {
      // Transforms shorter than two lane widths: one bin at a time.
      alignas(64) float lane_re[kLanes];
      alignas(64) float lane_im[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        dre[l][0] = zr[l] + zi[l];
        dim[l][0] = 0.0f;
      }
      for (std::size_t k = 1; k < m; ++k) {
        vfloat xr, xi;
        bin(k, xr, xi);
        simd::vstore_aligned(lane_re, xr);
        simd::vstore_aligned(lane_im, xi);
        for (std::size_t l = 0; l < kLanes; ++l) {
          dre[l][k] = lane_re[l];
          dim[l][k] = lane_im[l];
        }
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      dre[l][m] = zr[l] - zi[l];
      dim[l][m] = 0.0f;
    }
  }
}

void RealFftPlan::inverse(ConstView2D<float> re, ConstView2D<float> im,
                          View2D<float> x, std::span<float> scratch) const {
  const std::size_t n_out = x.cols();
  DDMC_REQUIRE(n_out <= n_, "real FFT output longer than the transform size");
  DDMC_REQUIRE(re.rows() == x.rows() && im.rows() == x.rows(),
               "real FFT spectrum rows != series rows");
  DDMC_REQUIRE(re.cols() >= bins() && im.cols() >= bins(),
               "real FFT spectrum rows shorter than bins()");
  DDMC_REQUIRE(scratch.size() >= scratch_floats(), "real FFT scratch too small");
  if (n_ == 1) {
    if (n_out == 0) return;
    for (std::size_t r = 0; r < x.rows(); ++r) x(r, 0) = re(r, 0);
    return;
  }
  using simd::vfloat;
  const std::size_t m = m_;
  float* __restrict zr = scratch.data();
  float* __restrict zi = zr + m * kLanes;
  float* sink = zi + m * kLanes;
  const vfloat half = simd::vbroadcast(0.5f);
  const vfloat scale = simd::vbroadcast(1.0f / static_cast<float>(m));
  const std::size_t block = std::min(m, kBlockBins);

  for (std::size_t r0 = 0; r0 < x.rows(); r0 += kLanes) {
    const std::size_t count = std::min(kLanes, x.rows() - r0);
    const float* sr[kLanes];
    const float* si[kLanes];
    batch_rows(re, r0, count, sr);
    batch_rows(im, r0, count, si);

    // Invert the unpack: with E/O the even/odd-sample half spectra,
    // X[k] = E[k] + W^k*O[k] and conj(X[m-k]) = E[k] - W^k*O[k], so
    // E[k] = (X[k] + conj(X[m-k]))/2, O[k] = (X[k] - conj(X[m-k]))/2 * W^{-k},
    // and the packed spectrum is Z[k] = E[k] + i*O[k], kept in natural
    // order for the decimation-in-frequency passes. The imaginary parts
    // of bins 0 and m are dropped: they are zero for a real series.
    const auto pack = [&](std::size_t k, vfloat xkr, vfloat xki, vfloat xmr,
                          vfloat xmi) {
      const vfloat fer = simd::vmul(half, simd::vadd(xkr, xmr));
      const vfloat fei = simd::vmul(half, simd::vsub(xki, xmi));
      const vfloat dr = simd::vmul(half, simd::vsub(xkr, xmr));
      const vfloat di = simd::vmul(half, simd::vadd(xki, xmi));
      const vfloat wr = simd::vbroadcast(weight_re_[k]);
      const vfloat wi = simd::vbroadcast(-weight_im_[k]);
      // O[k] = (dr + i*di) * W^{-k}; Z[k] = E[k] + i*O[k].
      const vfloat gr = simd::vsub(simd::vmul(dr, wr), simd::vmul(di, wi));
      const vfloat gi = simd::vfma(dr, wi, simd::vmul(di, wr));
      simd::vstore(zr + k * kLanes, simd::vsub(fer, gi));
      simd::vstore(zi + k * kLanes, simd::vadd(fei, gr));
    };
    if (m % kLanes == 0) {
      // kLanes bins at a time: bins [k0, k0 + kLanes) and their mirrors
      // (m - k0 - kLanes, m - k0], transposed out of the series rows.
      for (std::size_t k0 = 0; k0 < m; k0 += kLanes) {
        const std::size_t mirror = m - k0 - kLanes + 1;
        vfloat akr[kLanes], aki[kLanes], amr[kLanes], ami[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
          akr[l] = simd::vload(sr[l] + k0);
          aki[l] = simd::vload(si[l] + k0);
          amr[l] = simd::vload(sr[l] + mirror);
          ami[l] = simd::vload(si[l] + mirror);
        }
        simd::vtranspose(akr);
        simd::vtranspose(aki);
        simd::vtranspose(amr);
        simd::vtranspose(ami);
        if (k0 == 0) {
          aki[0] = simd::vzero();
          ami[kLanes - 1] = simd::vzero();
        }
        for (std::size_t c = 0; c < kLanes; ++c) {
          pack(k0 + c, akr[c], aki[c], amr[kLanes - 1 - c],
               ami[kLanes - 1 - c]);
        }
      }
    } else {
      // Transforms shorter than two lane widths: one bin at a time.
      alignas(64) float xkr[kLanes], xki[kLanes], xmr[kLanes], xmi[kLanes];
      for (std::size_t k = 0; k < m; ++k) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          xkr[l] = sr[l][k];
          xki[l] = k == 0 ? 0.0f : si[l][k];
          xmr[l] = sr[l][m - k];
          xmi[l] = k == 0 ? 0.0f : si[l][m - k];
        }
        pack(k, simd::vload_aligned(xkr), simd::vload_aligned(xki),
             simd::vload_aligned(xmr), simd::vload_aligned(xmi));
      }
    }

    // Decimation-in-frequency butterflies, bit-reversed result: the long
    // spans over the whole batch, then the short ones block by block.
    dif_passes(zr, zi, 0, m, m / 2, block, twiddle_re_.data(),
               twiddle_im_.data());
    for (std::size_t b = 0; b < m; b += block) {
      dif_passes(zr, zi, b, b + block, block / 2, 1, twiddle_re_.data(),
                 twiddle_im_.data());
    }

    // Read the samples back through the bit reversal, scaled by 1/m:
    // z[t] = x[2t] + i*x[2t+1]. kLanes/2 pairs per transpose, then the
    // last pairs and the lone even sample of an odd n_out lane by lane.
    float* dst[kLanes];
    batch_rows_out(x, r0, count, sink, dst);
    std::size_t t = 0;
    if constexpr (kLanes >= 2) {
      for (; 2 * t + kLanes <= n_out; t += kLanes / 2) {
        vfloat blk[kLanes];
        for (std::size_t j = 0; j < kLanes / 2; ++j) {
          const std::size_t p = bitrev_[t + j] * kLanes;
          blk[2 * j] = simd::vmul(scale, simd::vload(zr + p));
          blk[2 * j + 1] = simd::vmul(scale, simd::vload(zi + p));
        }
        simd::vtranspose(blk);  // blk[l]: samples 2t.. of series l
        for (std::size_t l = 0; l < kLanes; ++l) {
          simd::vstore(dst[l] + 2 * t, blk[l]);
        }
      }
    }
    alignas(64) float even[kLanes], odd[kLanes];
    for (; 2 * t < n_out; ++t) {
      const std::size_t p = bitrev_[t] * kLanes;
      simd::vstore_aligned(even, simd::vmul(scale, simd::vload(zr + p)));
      simd::vstore_aligned(odd, simd::vmul(scale, simd::vload(zi + p)));
      for (std::size_t l = 0; l < kLanes; ++l) {
        dst[l][2 * t] = even[l];
        if (2 * t + 1 < n_out) dst[l][2 * t + 1] = odd[l];
      }
    }
  }
}

}  // namespace ddmc::fft
