#pragma once
/// \file fdmt.hpp
/// \brief Fourier-domain dedispersion: shifts as phase rotations.
///
/// Every time-domain engine in this library pays O(dms * channels *
/// samples) for the shifted accumulations of Algorithm 1. In the Fourier
/// domain a shift is a phase rotation (Bassa et al., arXiv:2110.03482):
/// forward-FFT each channel's series once, multiply by per-(channel, DM)
/// twiddles e^{+2*pi*i*k*delay/N} derived from the plan's DelayTable,
/// accumulate spectra, and inverse-FFT once per DM trial. The per-sample
/// shift cost moves into precomputed twiddle tables and the asymptotic
/// cost becomes O(channels*S*log S + dms*channels*S) complex work.
///
/// On its own that trades 1 real accumulate per (dm, channel, sample) for
/// 1 complex multiply-accumulate per (dm, channel, bin) — more arithmetic,
/// not less. The implementation therefore factors the rotation work the
/// same way the time-domain subband engine factors its shifts: channels
/// are grouped into subbands collapsed with intra-subband rotations once
/// per *coarse* DM trial (every coarse_step fine trials), then each fine
/// trial combines the collapsed subband spectra with inter-subband
/// rotations. The rotation count drops from dms*channels to
/// (dms/coarse_step)*channels + dms*subbands per bin — the asymptotic
/// win that beats brute force at high trial counts.
///
/// Accuracy: all shifts are integers from the plan's own DelayTable, and a
/// cyclic shift by an integer delay is *exact* under the DFT, so the only
/// error sources are (a) the subband approximation — a fine trial reuses
/// its coarse trial's intra-subband delays, off by at most
/// fdmt_max_delay_error() samples (zero when subbands == channels and
/// coarse_step == 1) — and (b) float FFT/rotation roundoff.
/// fdmt_error_bound() documents both terms; the engine tests enforce it
/// against the exact reference.
///
/// Working set. A call needs the channel spectra (2 x channels x bins
/// floats), the collapsed subband planes of one bin block, the per-trial
/// accumulators (2 x dms x bins) and the FFT plan with its scratch — on an
/// Apertif-sized plan about 9 MiB. All of it lives in an FdmtWorkspace
/// the caller keeps across calls, so a repeated call on one shape
/// allocates nothing.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/array2d.hpp"
#include "dedisp/plan.hpp"
#include "dedisp/subband.hpp"

namespace ddmc::dedisp {

/// Tuning knobs of the Fourier-domain method.
struct FdmtConfig {
  /// Channel-split / coarse-DM-step factorization of the rotation work —
  /// the same decomposition, divisibility rules and smearing semantics as
  /// the time-domain subband engine (subbands must divide the channel
  /// count, coarse_step the trial count; gcd-adapt via adapted_to).
  SubbandConfig split;
  /// Frequency-accumulation blocking: spectrum bins are processed in
  /// blocks of this many complex bins so one block of every per-group
  /// accumulator stays cache-resident across its rotation passes. Any
  /// value >= 1 is valid; execution clamps it to the spectrum length.
  std::size_t block = 2048;

  /// This config adapted to \p plan: the split collapses by gcd exactly as
  /// SubbandConfig::adapted_to, the block is clamped to >= 1.
  FdmtConfig adapted_to(const Plan& plan) const;
};

/// The FFT length shared by every series of the transform for \p plan:
/// next_pow2 of the largest sample index any composed (intra + inter)
/// shift can read, so the cyclic shifts of the DFT never wrap nonzero
/// data back into the output window. Always >= in_samples.
std::size_t fdmt_fft_size(const Plan& plan, const SubbandConfig& split);

/// Largest |composed - exact| delay error in samples over every
/// (trial, channel): the smearing introduced by reusing each coarse
/// trial's intra-subband delays, scanned directly from the plan's
/// DelayTable. Zero when subbands == channels and coarse_step == 1.
std::int64_t fdmt_max_delay_error(const Plan& plan,
                                  const SubbandConfig& split);

/// Documented absolute error bound of dedisperse_fdmt versus the exact
/// reference, per output element, for inputs bounded by |x| <= max_abs.
/// Two terms: delay smearing (each channel whose composed shift is off
/// reads a neighbouring sample — worth at most 2*max_abs per channel,
/// zero when fdmt_max_delay_error is zero) plus float FFT/rotation
/// roundoff proportional to channels * log2(fft size) * machine epsilon.
/// The split is gcd-adapted internally, mirroring execution.
double fdmt_error_bound(const Plan& plan, const SubbandConfig& split,
                        double max_abs = 1.0);

/// Algorithmic floating-point operations of the transform for \p plan:
/// forward real FFTs (channels), the two rotation stages over the half
/// spectrum, and one inverse real FFT per trial. This is what the fdmt
/// engine stamps into EngineRun::flop — the plan's canonical
/// 2*dms*channels*samples stays the cross-engine display denominator.
double fdmt_flop(const Plan& plan, const FdmtConfig& config);

/// Every buffer dedisperse_fdmt works in, kept between calls: split
/// delay tables, channel spectra, subband planes, accumulators, the FFT
/// plan and its scratch. Each buffer grows when a call's shape needs more
/// and is otherwise reused as is; the FFT plan is rebuilt only when the
/// transform size changes. One workspace serves one call at a time —
/// concurrent calls each need their own (the fdmt engine keeps a pool,
/// engine/builtin_engines.cpp) — and everything is freed with it.
class FdmtWorkspace {
 public:
  FdmtWorkspace();
  ~FdmtWorkspace();

 private:
  struct Buffers;  ///< defined in fdmt.cpp
  friend void dedisperse_fdmt(const Plan&, const FdmtConfig&,
                              ConstView2D<float>, View2D<float>,
                              FdmtWorkspace&);
  std::unique_ptr<Buffers> buffers_;
};

/// Fourier-domain dedispersion into \p out (dms x out_samples), working in
/// \p workspace. Reads exactly in_samples columns of \p in; shifts beyond
/// that window read the transform's zero padding. Requires the config's
/// divisibility (use FdmtConfig::adapted_to). Traced as three stage spans
/// (fdmt.forward_fft, fdmt.rotate, fdmt.inverse_fft).
void dedisperse_fdmt(const Plan& plan, const FdmtConfig& config,
                     ConstView2D<float> in, View2D<float> out,
                     FdmtWorkspace& workspace);

/// Convenience allocating the output and a workspace for one call.
Array2D<float> dedisperse_fdmt(const Plan& plan, const FdmtConfig& config,
                               ConstView2D<float> in);

}  // namespace ddmc::dedisp
