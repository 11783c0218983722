#pragma once
/// \file fft.hpp
/// \brief Self-contained radix-2 real FFT that transforms one SIMD lane's
/// worth of series per pass.
///
/// The Fourier-domain dedispersion engine (dedisp/fdmt.hpp) needs one
/// forward transform per channel and one inverse transform per DM trial —
/// hundreds to thousands of equal-length series per call, and nothing
/// exotic, but it must not drag in an external FFT dependency. A plan
/// therefore batches *series*, not samples: it transforms
/// simd::kFloatLanes series at once, one series per vector lane, so every
/// butterfly is plain vfloat arithmetic against one broadcast twiddle and
/// no pass ever shuffles lanes. A batch short of a full lane set (the last
/// one, or a call with fewer series) pads its spare lanes with copies of
/// its first series and discards their results, so every series takes the
/// same vector path.
///
/// The transform is the classic iterative radix-2 Cooley-Tukey one over
/// power-of-two sizes (shorter series are zero-padded up — next_pow2
/// below). Real series go through the even/odd packing trick: an n-point
/// real FFT is one n/2-point complex FFT plus an O(n) unpack, and only the
/// n/2+1 non-redundant half-spectrum bins are materialized. The forward
/// pass packs straight into bit-reversed order and runs decimation in
/// time; the inverse runs decimation in frequency and reads its output
/// back through the bit reversal, so neither direction spends a separate
/// permutation pass.
///
/// Data layout. Callers hand series and spectra as pitched row-major
/// matrices (array2d.hpp), one series or one half spectrum per row, with
/// real and imaginary parts in separate planes. Internally a batch lives
/// in the caller's scratch as two planes (re, im), bin-major with the
/// batch's series interleaved per bin: element (bin k, lane l) sits at
/// k * kFloatLanes + l, so bin k of the whole batch is one vfloat.
///
/// Ownership. A plan is immutable after construction (bit-reversal table
/// and twiddles) and safe to share across threads. The caller owns the
/// scratch — scratch_floats() floats per concurrent call — so two threads
/// may transform through one plan at once as long as each passes its own.
///
/// Conventions: forward() is the unscaled DFT with the negative-exponent
/// kernel e^{-2*pi*i*k*t/n}; inverse() conjugates the kernel and scales by
/// 1/n, so inverse(forward(x)) == x up to roundoff. All twiddles are
/// computed in double precision and rounded once to float.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/array2d.hpp"

namespace ddmc::fft {

/// Smallest power of two >= max(n, 1).
std::size_t next_pow2(std::size_t n);

/// Half-spectrum length of an n-point real FFT: n/2 + 1 bins (1 for n==1).
inline std::size_t rfft_bins(std::size_t n) { return n == 1 ? 1 : n / 2 + 1; }

/// Lane-batched real FFT plan of one power-of-two size n.
class RealFftPlan {
 public:
  /// \p n must be a power of two (n >= 1; n == 1 is the identity).
  explicit RealFftPlan(std::size_t n);

  std::size_t size() const { return n_; }
  std::size_t bins() const { return rfft_bins(n_); }
  /// Floats of scratch one forward() or inverse() call needs.
  std::size_t scratch_floats() const;

  /// Half spectra of every row of \p x: row s of \p re / \p im receives
  /// DFT bins 0..n/2 of row s of \p x zero-padded to size(). The series
  /// length is x.cols(), which must not exceed size(); re and im need
  /// x.rows() rows of at least bins() columns. Bins 0 and n/2 come out
  /// with zero imaginary part (they are real for real input), the rest of
  /// the spectrum is implied by Hermitian symmetry.
  void forward(ConstView2D<float> x, View2D<float> re, View2D<float> im,
               std::span<float> scratch) const;

  /// Inverse of forward(): row s of \p x receives the first x.cols()
  /// (<= size()) samples of the series whose half spectrum is row s of
  /// (\p re, \p im). The imaginary parts of bins 0 and n/2 are ignored, as
  /// Hermitian symmetry forces them to 0.
  void inverse(ConstView2D<float> re, ConstView2D<float> im, View2D<float> x,
               std::span<float> scratch) const;

 private:
  std::size_t n_ = 1;
  std::size_t m_ = 0;  ///< half size: the complex transform's length
  std::vector<std::uint32_t> bitrev_;
  /// e^{-2*pi*i*j/m} for j < m/2 — every butterfly pass strides into this
  /// one table, so there is a single trigonometric setup per size.
  std::vector<float> twiddle_re_, twiddle_im_;
  /// Unpack weights e^{-2*pi*i*k/n} for k <= m.
  std::vector<float> weight_re_, weight_im_;
};

}  // namespace ddmc::fft
