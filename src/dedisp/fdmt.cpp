#include "dedisp/fdmt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/expect.hpp"
#include "common/fft.hpp"
#include "common/simd.hpp"
#include "common/workspace.hpp"
#include "sky/delay.hpp"
#include "telemetry/tracing.hpp"

namespace ddmc::dedisp {

namespace {

constexpr double kTau = 6.283185307179586476925286766559;

/// The split's composed shifts, read straight from the plan's DelayTable
/// (never recomputed from frequencies, so shard plans — whose tables are
/// sliced bit-for-bit — compose exactly the shifts their parent would).
/// Each subband is referenced to its highest channel (smallest delay in
/// the band), making both shift families non-negative:
///   intra(ci, ch) = delay(c, ch) - delay(c, ref(band))   at coarse trial c
///   inter(dm, b)  = delay(dm, ref(b))
/// and the shift stage-1 + stage-2 apply to channel ch for fine trial dm
/// is intra + inter, approximating the exact delay(dm, ch).
struct SplitDelays {
  std::size_t subbands = 1;
  std::size_t coarse_step = 1;
  std::size_t n_coarse = 1;
  std::size_t chans_per_band = 1;
  std::vector<std::int64_t> intra;  ///< n_coarse x channels
  std::vector<std::int64_t> inter;  ///< dms x subbands
  std::int64_t max_intra = 0;
  std::int64_t max_inter = 0;
};

/// Fill \p sd with the split delays of \p plan, reusing the capacity of
/// its tables.
void fill_split_delays(const Plan& plan, const SubbandConfig& split,
                       SplitDelays& sd) {
  split.validate(plan);
  const sky::DelayTable& delays = plan.delays();
  const std::size_t channels = plan.channels();
  const std::size_t dms = plan.dms();
  sd.subbands = split.subbands;
  sd.coarse_step = split.coarse_step;
  sd.n_coarse = dms / split.coarse_step;
  sd.chans_per_band = channels / split.subbands;
  sd.max_intra = 0;
  sd.max_inter = 0;
  auto ref_channel = [&](std::size_t band) {
    return (band + 1) * sd.chans_per_band - 1;
  };
  sd.intra.resize(sd.n_coarse * channels);
  for (std::size_t ci = 0; ci < sd.n_coarse; ++ci) {
    const std::size_t coarse = ci * sd.coarse_step;
    for (std::size_t ch = 0; ch < channels; ++ch) {
      const std::int64_t k =
          delays.delay(coarse, ch) -
          delays.delay(coarse, ref_channel(ch / sd.chans_per_band));
      sd.intra[ci * channels + ch] = k;
      sd.max_intra = std::max(sd.max_intra, k);
    }
  }
  sd.inter.resize(dms * sd.subbands);
  for (std::size_t dm = 0; dm < dms; ++dm) {
    for (std::size_t band = 0; band < sd.subbands; ++band) {
      const std::int64_t k = delays.delay(dm, ref_channel(band));
      sd.inter[dm * sd.subbands + band] = k;
      sd.max_inter = std::max(sd.max_inter, k);
    }
  }
}

SplitDelays split_delays(const Plan& plan, const SubbandConfig& split) {
  SplitDelays sd;
  fill_split_delays(plan, split, sd);
  return sd;
}

std::size_t fft_size_of(const Plan& plan, const SplitDelays& sd) {
  const std::size_t reach =
      plan.out_samples() +
      static_cast<std::size_t>(sd.max_intra + sd.max_inter);
  return fft::next_pow2(std::max(plan.in_samples(), reach));
}

/// Accumulate the spectrum (xr, xi) rotated by e^{+i*2*pi*k*shift/n} into
/// (ar, ai) over bins [k0, k0 + count); all four pointers are pre-offset
/// to bin k0. A left cyclic shift by \p shift samples under the
/// negative-exponent DFT is exactly this positive rotation.
///
/// Twiddles come from a vector-lane phase recurrence: one float rotor per
/// SIMD lane advances by a per-vector-width rotor inside a 128-bin chunk
/// and all lanes are refreshed from a double-precision base rotor at every
/// chunk boundary, so float drift never accumulates past a chunk while the
/// hot loop stays pure vfloat arithmetic (simd.hpp — the same layer the
/// tiled kernel's accumulate uses). All reference angles use the exact
/// (k*shift mod n) reduction.
void rotate_accumulate(const float* __restrict xr, const float* __restrict xi,
                       float* __restrict ar, float* __restrict ai,
                       std::size_t k0, std::size_t count, std::uint64_t shift,
                       std::size_t n) {
  shift %= n;
  if (shift == 0) {
    for (std::size_t i = 0; i < count; ++i) ar[i] += xr[i];
    for (std::size_t i = 0; i < count; ++i) ai[i] += xi[i];
    return;
  }
  constexpr std::size_t kLanes = simd::kFloatLanes;
  constexpr std::size_t kChunk = 128;  // multiple of every backend's lanes
  static_assert(kChunk % kLanes == 0);
  const double dn = static_cast<double>(n);
  auto bin_angle = [&](std::uint64_t k) {
    return kTau * static_cast<double>((k * shift) % n) / dn;
  };
  // Setup is two sincos per call (the unit step and the exact base angle);
  // lane offsets, the per-kLanes rotor and the per-chunk rotor all derive
  // from the unit step by double-precision multiplication — the call count
  // is bins/block per (channel|subband, trial) pair, so trigonometric
  // setup would otherwise rival the rotation work itself.
  const double step_a = bin_angle(1);
  const double step_r = std::cos(step_a);
  const double step_i = std::sin(step_a);
  double offr[kLanes], offi[kLanes];
  offr[0] = 1.0;
  offi[0] = 0.0;
  for (std::size_t l = 1; l < kLanes; ++l) {
    offr[l] = offr[l - 1] * step_r - offi[l - 1] * step_i;
    offi[l] = offr[l - 1] * step_i + offi[l - 1] * step_r;
  }
  const double lane_r = offr[kLanes - 1] * step_r - offi[kLanes - 1] * step_i;
  const double lane_i = offr[kLanes - 1] * step_i + offi[kLanes - 1] * step_r;
  const simd::vfloat lane_cr = simd::vbroadcast(static_cast<float>(lane_r));
  const simd::vfloat lane_ci = simd::vbroadcast(static_cast<float>(lane_i));
  double chunk_cr = lane_r;
  double chunk_ci = lane_i;
  for (std::size_t p = kLanes; p < kChunk; p <<= 1) {  // chunk = lane^(2^q)
    const double sq = chunk_cr * chunk_cr - chunk_ci * chunk_ci;
    chunk_ci = 2.0 * chunk_cr * chunk_ci;
    chunk_cr = sq;
  }
  const double base_a = bin_angle(k0);
  double base_r = std::cos(base_a);
  double base_i = std::sin(base_a);

  std::size_t i = 0;
  while (i < count) {
    const std::size_t chunk_end = std::min(i + kChunk, count);
    alignas(64) float fwr[kLanes], fwi[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      fwr[l] = static_cast<float>(base_r * offr[l] - base_i * offi[l]);
      fwi[l] = static_cast<float>(base_r * offi[l] + base_i * offr[l]);
    }
    simd::vfloat wr = simd::vload_aligned(fwr);
    simd::vfloat wi = simd::vload_aligned(fwi);
    std::size_t j = i;
    for (; j + kLanes <= chunk_end; j += kLanes) {
      const simd::vfloat re = simd::vload(xr + j);
      const simd::vfloat im = simd::vload(xi + j);
      // a += x * w (complex): ar += re*wr - im*wi; ai += re*wi + im*wr.
      simd::vfloat accr = simd::vload(ar + j);
      simd::vfloat acci = simd::vload(ai + j);
      accr = simd::vfma(re, wr, simd::vsub(accr, simd::vmul(im, wi)));
      acci = simd::vfma(re, wi, simd::vfma(im, wr, acci));
      simd::vstore(ar + j, accr);
      simd::vstore(ai + j, acci);
      // w *= lane rotor: advance every lane's phase by kLanes bins.
      const simd::vfloat t =
          simd::vsub(simd::vmul(wr, lane_cr), simd::vmul(wi, lane_ci));
      wi = simd::vfma(wr, lane_ci, simd::vmul(wi, lane_cr));
      wr = t;
    }
    for (; j < chunk_end; ++j) {  // ragged last bins: exact angles
      const double a = bin_angle(k0 + j);
      const float cr = static_cast<float>(std::cos(a));
      const float ci = static_cast<float>(std::sin(a));
      ar[j] += xr[j] * cr - xi[j] * ci;
      ai[j] += xr[j] * ci + xi[j] * cr;
    }
    const double t = base_r * chunk_cr - base_i * chunk_ci;
    base_i = base_r * chunk_ci + base_i * chunk_cr;
    base_r = t;
    i = chunk_end;
  }
}

}  // namespace

FdmtConfig FdmtConfig::adapted_to(const Plan& plan) const {
  FdmtConfig adapted = *this;
  adapted.split = split.adapted_to(plan);
  adapted.block = std::max<std::size_t>(block, 1);
  return adapted;
}

std::size_t fdmt_fft_size(const Plan& plan, const SubbandConfig& split) {
  return fft_size_of(plan, split_delays(plan, split));
}

std::int64_t fdmt_max_delay_error(const Plan& plan,
                                  const SubbandConfig& split) {
  const SplitDelays sd = split_delays(plan, split);
  const sky::DelayTable& delays = plan.delays();
  const std::size_t channels = plan.channels();
  std::int64_t worst = 0;
  for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
    const std::size_t ci = dm / sd.coarse_step;
    for (std::size_t ch = 0; ch < channels; ++ch) {
      const std::int64_t composed =
          sd.intra[ci * channels + ch] +
          sd.inter[dm * sd.subbands + ch / sd.chans_per_band];
      worst = std::max(worst, std::abs(composed - delays.delay(dm, ch)));
    }
  }
  return worst;
}

double fdmt_error_bound(const Plan& plan, const SubbandConfig& split,
                        double max_abs) {
  const SubbandConfig adapted = split.adapted_to(plan);
  const std::int64_t smear = fdmt_max_delay_error(plan, adapted);
  const double channels = static_cast<double>(plan.channels());
  // Smearing: a channel whose composed shift is off by >= 1 sample
  // contributes a neighbouring sample instead of the exact one — at most
  // 2*max_abs per channel. Roundoff: float FFTs and rotations carry a
  // relative error of order log2(N)*eps through an accumulation of
  // `channels` unit-bounded series; 64x is the safety margin that keeps
  // the bound a guarantee rather than an estimate.
  const double n = static_cast<double>(fdmt_fft_size(plan, adapted));
  const double eps = std::numeric_limits<float>::epsilon();
  const double roundoff =
      64.0 * eps * channels * (std::log2(n) + 8.0) * max_abs;
  const double smearing = smear > 0 ? 2.0 * max_abs * channels : 0.0;
  return smearing + roundoff;
}

double fdmt_flop(const Plan& plan, const FdmtConfig& config) {
  config.split.validate(plan);
  const std::size_t n = fdmt_fft_size(plan, config.split);
  const double bins = static_cast<double>(fft::rfft_bins(n));
  const double d = static_cast<double>(plan.dms());
  const double c = static_cast<double>(plan.channels());
  // A real FFT is one half-size complex transform: ~2.5*N*log2(N) real
  // operations; each rotation stage is one complex multiply-accumulate
  // (8 real operations) per bin.
  const double rfft =
      2.5 * static_cast<double>(n) * std::log2(static_cast<double>(n));
  const double stage1 =
      (d / static_cast<double>(config.split.coarse_step)) * c * bins * 8.0;
  const double stage2 =
      d * static_cast<double>(config.split.subbands) * bins * 8.0;
  return c * rfft + stage1 + stage2 + d * rfft;
}

struct FdmtWorkspace::Buffers {
  SplitDelays delays;
  std::optional<fft::RealFftPlan> fft;
  ScratchBuffer<float> fft_scratch;
  ScratchBuffer<float> spec_re, spec_im;
  ScratchBuffer<float> subband_re, subband_im;
  ScratchBuffer<float> acc_re, acc_im;
};

FdmtWorkspace::FdmtWorkspace() : buffers_(std::make_unique<Buffers>()) {}
FdmtWorkspace::~FdmtWorkspace() = default;

void dedisperse_fdmt(const Plan& plan, const FdmtConfig& config,
                     ConstView2D<float> in, View2D<float> out,
                     FdmtWorkspace& workspace) {
  config.split.validate(plan);
  const std::size_t channels = plan.channels();
  const std::size_t dms = plan.dms();
  const std::size_t samples = plan.out_samples();
  DDMC_REQUIRE(in.rows() == channels, "input rows != channels");
  DDMC_REQUIRE(in.cols() >= plan.in_samples(), "input too short");
  DDMC_REQUIRE(out.rows() == dms, "output rows != trial DMs");
  DDMC_REQUIRE(out.cols() >= samples, "output too short");

  FdmtWorkspace::Buffers& ws = *workspace.buffers_;
  fill_split_delays(plan, config.split, ws.delays);
  const SplitDelays& sd = ws.delays;
  const std::size_t n = fft_size_of(plan, sd);
  const std::size_t nb = fft::rfft_bins(n);
  const std::size_t block =
      std::min(std::max<std::size_t>(config.block, 1), nb);
  if (!ws.fft || ws.fft->size() != n) ws.fft.emplace(n);
  const fft::RealFftPlan& rf = *ws.fft;
  const std::span<float> scratch = ws.fft_scratch.take(rf.scratch_floats());

  // Forward transform every channel once, straight into split re/im
  // planes instead of interleaved complex: the rotation kernel then
  // streams independent float arrays without shuffles.
  const View2D<float> spec_re = ws.spec_re.matrix(channels, nb);
  const View2D<float> spec_im = ws.spec_im.matrix(channels, nb);
  {
    telemetry::TraceSpan span("fdmt.forward_fft");
    rf.forward(ConstView2D<float>(in.data(), channels, plan.in_samples(),
                                  in.pitch()),
               spec_re, spec_im, scratch);
  }

  // Loop order is bin-blocks outermost, every coarse group inside: the
  // channel spectra slice of the current block (channels x block floats x2)
  // is re-read by all n_coarse stage-1 passes while it is still
  // cache-resident, so the 2x channels x bins spectrum crosses DRAM once
  // per call instead of once per coarse trial — with the groups innermost
  // the spectrum re-reads dominated the wall time. The cost is one
  // accumulator row per *fine* trial held live across the whole block loop
  // (2 x dms x bins floats, on the order of the output matrix itself).
  // `block` is the cache-blocking width in bins: small enough that the
  // spectra slice plus the collapsed subband planes fit in last-level
  // cache, large enough to amortize the per-block rotor setup.
  const View2D<float> sb_re =
      ws.subband_re.matrix(sd.n_coarse * sd.subbands, block);
  const View2D<float> sb_im =
      ws.subband_im.matrix(sd.n_coarse * sd.subbands, block);
  const View2D<float> acc_re = ws.acc_re.matrix(dms, nb);
  const View2D<float> acc_im = ws.acc_im.matrix(dms, nb);
  {
    telemetry::TraceSpan span("fdmt.rotate");
    for (std::size_t dm = 0; dm < dms; ++dm) {
      std::fill_n(&acc_re(dm, 0), nb, 0.0f);
      std::fill_n(&acc_im(dm, 0), nb, 0.0f);
    }
    for (std::size_t k0 = 0; k0 < nb; k0 += block) {
      const std::size_t cnt = std::min(block, nb - k0);
      // Stage 1: collapse each subband's channels at each coarse trial's
      // intra-subband rotations.
      for (std::size_t ci = 0; ci < sd.n_coarse; ++ci) {
        const std::int64_t* intra_row = &sd.intra[ci * channels];
        for (std::size_t band = 0; band < sd.subbands; ++band) {
          float* br = &sb_re(ci * sd.subbands + band, 0);
          float* bi = &sb_im(ci * sd.subbands + band, 0);
          std::fill(br, br + cnt, 0.0f);
          std::fill(bi, bi + cnt, 0.0f);
          for (std::size_t ch = band * sd.chans_per_band;
               ch < (band + 1) * sd.chans_per_band; ++ch) {
            rotate_accumulate(&spec_re(ch, k0), &spec_im(ch, k0), br, bi, k0,
                              cnt, static_cast<std::uint64_t>(intra_row[ch]),
                              n);
          }
        }
      }
      // Stage 2: every fine trial combines its coarse group's collapsed
      // subband spectra with its own inter-subband rotations.
      for (std::size_t dm = 0; dm < dms; ++dm) {
        const std::size_t ci = dm / sd.coarse_step;
        const std::int64_t* inter_row = &sd.inter[dm * sd.subbands];
        for (std::size_t band = 0; band < sd.subbands; ++band) {
          rotate_accumulate(&sb_re(ci * sd.subbands + band, 0),
                            &sb_im(ci * sd.subbands + band, 0),
                            &acc_re(dm, k0), &acc_im(dm, k0), k0, cnt,
                            static_cast<std::uint64_t>(inter_row[band]), n);
        }
      }
    }
  }
  // One inverse transform per fine trial, straight into the output rows.
  {
    telemetry::TraceSpan span("fdmt.inverse_fft");
    rf.inverse(acc_re, acc_im,
               View2D<float>(out.data(), dms, samples, out.pitch()), scratch);
  }
}

Array2D<float> dedisperse_fdmt(const Plan& plan, const FdmtConfig& config,
                               ConstView2D<float> in) {
  Array2D<float> out(plan.dms(), plan.out_samples());
  FdmtWorkspace workspace;
  dedisperse_fdmt(plan, config, in, out.view(), workspace);
  return out;
}

}  // namespace ddmc::dedisp
