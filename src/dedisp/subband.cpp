#include "dedisp/subband.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/expect.hpp"
#include "common/simd.hpp"
#include "sky/delay.hpp"

namespace ddmc::dedisp {

namespace {

void check_config(const Plan& plan, const SubbandConfig& config) {
  DDMC_REQUIRE(config.subbands > 0 && config.coarse_step > 0,
               "subband parameters must be positive");
  DDMC_REQUIRE(plan.channels() % config.subbands == 0,
               "subband count must divide the channel count");
  DDMC_REQUIRE(plan.dms() % config.coarse_step == 0,
               "coarse step must divide the trial count");
}

}  // namespace

SubbandConfig SubbandConfig::adapted_to(const Plan& plan) const {
  SubbandConfig adapted = *this;
  adapted.subbands =
      std::gcd(std::max<std::size_t>(subbands, 1), plan.channels());
  adapted.coarse_step =
      std::gcd(std::max<std::size_t>(coarse_step, 1), plan.dms());
  return adapted;
}

double subband_flop(const Plan& plan, const SubbandConfig& config) {
  check_config(plan, config);
  const double d = static_cast<double>(plan.dms());
  const double s = static_cast<double>(plan.out_samples());
  const double c = static_cast<double>(plan.channels());
  const double coarse = d / static_cast<double>(config.coarse_step);
  return coarse * s * c + d * s * static_cast<double>(config.subbands);
}

std::int64_t subband_max_delay_error(const Plan& plan,
                                     const SubbandConfig& config) {
  check_config(plan, config);
  const sky::Observation& obs = plan.observation();
  const std::size_t cs = plan.channels() / config.subbands;
  const double rate = obs.sampling_rate();
  std::int64_t worst = 0;
  // For every fine trial, the reused coarse shift differs from the exact
  // intra-subband shift by at most the shift at |dm_fine - dm_coarse| over
  // the subband's own bandwidth; scan the exact maximum.
  for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
    const std::size_t coarse = (dm / config.coarse_step) * config.coarse_step;
    const double fine_dm = obs.dm_value(dm);
    const double coarse_dm = obs.dm_value(coarse);
    for (std::size_t band = 0; band < config.subbands; ++band) {
      const double f_lo = obs.channel_freq_mhz(band * cs);
      const double f_hi = obs.channel_freq_mhz(band * cs + cs - 1) +
                          obs.channel_bw_mhz();
      const std::int64_t fine =
          sky::dispersion_delay_samples(fine_dm, f_lo, f_hi, rate);
      const std::int64_t used =
          sky::dispersion_delay_samples(coarse_dm, f_lo, f_hi, rate);
      worst = std::max(worst, std::abs(fine - used));
    }
  }
  return worst;
}

std::size_t subband_min_input_samples(const Plan& plan,
                                      const SubbandConfig& config) {
  check_config(plan, config);
  const sky::Observation& obs = plan.observation();
  const std::size_t channels = plan.channels();
  const std::size_t cs = channels / config.subbands;
  const double rate = obs.sampling_rate();
  const double f_top = obs.f_max_mhz();
  auto subband_top = [&](std::size_t band) {
    return obs.channel_freq_mhz(band * cs + cs - 1) + obs.channel_bw_mhz();
  };
  // Same maxima the execution computes: worst inter-subband shift over
  // (trial, band) plus worst intra-subband shift over (coarse trial,
  // channel) — the two stages' reads compose additively.
  std::int64_t max_inter = 0;
  for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
    for (std::size_t band = 0; band < config.subbands; ++band) {
      max_inter = std::max(max_inter, sky::dispersion_delay_samples(
                                          obs.dm_value(dm),
                                          subband_top(band), f_top, rate));
    }
  }
  std::int64_t max_intra = 0;
  const std::size_t n_coarse = plan.dms() / config.coarse_step;
  for (std::size_t ci = 0; ci < n_coarse; ++ci) {
    const double coarse_dm = obs.dm_value(ci * config.coarse_step);
    for (std::size_t ch = 0; ch < channels; ++ch) {
      max_intra = std::max(max_intra, sky::dispersion_delay_samples(
                                          coarse_dm, obs.channel_freq_mhz(ch),
                                          subband_top(ch / cs), rate));
    }
  }
  return plan.out_samples() + static_cast<std::size_t>(max_inter + max_intra);
}

void dedisperse_subband(const Plan& plan, const SubbandConfig& config,
                        ConstView2D<float> in, View2D<float> out,
                        SubbandWorkspace& workspace) {
  check_config(plan, config);
  const sky::Observation& obs = plan.observation();
  const std::size_t channels = plan.channels();
  const std::size_t samples = plan.out_samples();
  const std::size_t dms = plan.dms();
  const std::size_t cs = channels / config.subbands;
  const double rate = obs.sampling_rate();
  const double f_top = obs.f_max_mhz();

  DDMC_REQUIRE(in.rows() == channels, "input rows != channels");
  DDMC_REQUIRE(out.rows() == dms, "output rows != trial DMs");
  DDMC_REQUIRE(out.cols() >= samples, "output too short");

  // Inter-subband delays: subband b is referenced to its own top edge.
  auto subband_top = [&](std::size_t band) {
    return obs.channel_freq_mhz(band * cs + cs - 1) + obs.channel_bw_mhz();
  };
  std::vector<std::int64_t>& inter = workspace.inter;
  inter.resize(dms * config.subbands);
  std::int64_t max_inter = 0;
  for (std::size_t dm = 0; dm < dms; ++dm) {
    for (std::size_t band = 0; band < config.subbands; ++band) {
      const std::int64_t k = sky::dispersion_delay_samples(
          obs.dm_value(dm), subband_top(band), f_top, rate);
      inter[dm * config.subbands + band] = k;
      max_inter = std::max(max_inter, k);
    }
  }

  // Intra-subband delays per coarse trial.
  const std::size_t n_coarse = dms / config.coarse_step;
  std::vector<std::int64_t>& intra = workspace.intra;
  intra.resize(n_coarse * channels);
  std::int64_t max_intra = 0;
  for (std::size_t ci = 0; ci < n_coarse; ++ci) {
    const double coarse_dm = obs.dm_value(ci * config.coarse_step);
    for (std::size_t ch = 0; ch < channels; ++ch) {
      const std::int64_t k = sky::dispersion_delay_samples(
          coarse_dm, obs.channel_freq_mhz(ch), subband_top(ch / cs), rate);
      intra[ci * channels + ch] = k;
      max_intra = std::max(max_intra, k);
    }
  }

  const std::size_t needed =
      samples + static_cast<std::size_t>(max_inter + max_intra);
  DDMC_REQUIRE(in.cols() >= needed,
               "input too short for the split delays: need " +
                   std::to_string(needed) + " columns, have " +
                   std::to_string(in.cols()));

  // Stage 1: per coarse trial, collapse each subband to one series long
  // enough for every stage-2 shift. A subband is exactly a channel block of
  // the tiled engine: the intra-subband shifts are precomputed above, the
  // per-band accumulator row stays cache-resident across its cs channels,
  // and the accumulate over time is SIMD-vectorized. Channel order within a
  // band and band order within a trial are unchanged, so results match the
  // scalar implementation bitwise.
  const std::size_t inter_span = samples + static_cast<std::size_t>(max_inter);
  const View2D<float> stage1 =
      workspace.stage1.matrix(config.subbands, inter_span);
  for (std::size_t ci = 0; ci < n_coarse; ++ci) {
    for (std::size_t band = 0; band < config.subbands; ++band) {
      std::fill_n(&stage1(band, 0), inter_span, 0.0f);
    }
    const std::int64_t* intra_row = &intra[ci * channels];
    for (std::size_t band = 0; band < config.subbands; ++band) {
      float* dst = &stage1(band, 0);
      for (std::size_t ch = band * cs; ch < (band + 1) * cs; ++ch) {
        const auto shift = static_cast<std::size_t>(intra_row[ch]);
        simd::accumulate_span(dst, &in(ch, shift), inter_span);
      }
    }
    // Stage 2: every fine trial of this coarse bucket combines the same
    // subband series with its own inter-subband shifts.
    for (std::size_t j = 0; j < config.coarse_step; ++j) {
      const std::size_t dm = ci * config.coarse_step + j;
      const std::int64_t* inter_row = &inter[dm * config.subbands];
      float* dst = &out(dm, 0);
      std::fill(dst, dst + samples, 0.0f);
      for (std::size_t band = 0; band < config.subbands; ++band) {
        const auto shift = static_cast<std::size_t>(inter_row[band]);
        simd::accumulate_span(dst, &stage1(band, shift), samples);
      }
    }
  }
}

Array2D<float> dedisperse_subband(const Plan& plan,
                                  const SubbandConfig& config,
                                  ConstView2D<float> in) {
  Array2D<float> out(plan.dms(), plan.out_samples());
  SubbandWorkspace workspace;
  dedisperse_subband(plan, config, in, out.view(), workspace);
  return out;
}

}  // namespace ddmc::dedisp
