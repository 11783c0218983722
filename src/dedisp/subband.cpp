#include "dedisp/subband.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/thread_pool.hpp"
#include "dedisp/cpu_kernel.hpp"
#include "sky/delay.hpp"
#include "telemetry/tracing.hpp"

namespace ddmc::dedisp {

namespace {

/// Subband \p band's reference frequency: its own top edge.
double subband_top(const sky::Observation& obs, std::size_t cs,
                   std::size_t band) {
  return obs.channel_freq_mhz(band * cs + cs - 1) + obs.channel_bw_mhz();
}

/// Fill the split delay tables and return their maxima {intra, inter}:
/// \p intra (coarse trials × channels) shifts each channel to its
/// subband's top edge, \p inter (trials × subbands) each subband's top
/// edge to the band's.
std::pair<std::int64_t, std::int64_t> split_delays(
    const Plan& plan, const SubbandConfig& config,
    std::vector<std::int64_t>& intra, std::vector<std::int64_t>& inter) {
  const sky::Observation& obs = plan.observation();
  const std::size_t channels = plan.channels();
  const std::size_t cs = channels / config.subbands;
  const double rate = obs.sampling_rate();
  const double f_top = obs.f_max_mhz();
  std::int64_t max_intra = 0;
  std::int64_t max_inter = 0;
  inter.resize(plan.dms() * config.subbands);
  for (std::size_t dm = 0; dm < plan.dms(); ++dm) {
    for (std::size_t band = 0; band < config.subbands; ++band) {
      const std::int64_t k = sky::dispersion_delay_samples(
          obs.dm_value(dm), subband_top(obs, cs, band), f_top, rate);
      inter[dm * config.subbands + band] = k;
      max_inter = std::max(max_inter, k);
    }
  }
  const std::size_t n_coarse = plan.dms() / config.coarse_step;
  intra.resize(n_coarse * channels);
  for (std::size_t ci = 0; ci < n_coarse; ++ci) {
    const double coarse_dm = obs.dm_value(ci * config.coarse_step);
    for (std::size_t ch = 0; ch < channels; ++ch) {
      const std::int64_t k = sky::dispersion_delay_samples(
          coarse_dm, obs.channel_freq_mhz(ch), subband_top(obs, cs, ch / cs),
          rate);
      intra[ci * channels + ch] = k;
      max_intra = std::max(max_intra, k);
    }
  }
  return {max_intra, max_inter};
}

/// The split tables of \p plan under \p config in \p ws, rebuilt unless
/// \p ws already holds them.
void ensure_split_tables(const Plan& plan, const SubbandConfig& config,
                         SubbandWorkspace& ws) {
  const SubbandSplitKey key = SubbandSplitKey::of(plan, config);
  if (ws.split_key == key) return;
  ws.split_key.reset();
  std::tie(ws.max_intra, ws.max_inter) =
      split_delays(plan, config, ws.intra, ws.inter);
  ws.split_key = key;
}

/// Stage-1 plane budget: more coarse trials per block give stage 1 more
/// trials per register tile, but the plane must not grow with the plan.
constexpr std::size_t kStage1BlockBytes = std::size_t{4} << 20;

/// The tile of a stage call over \p rows trials, a fixed rule: up to eight
/// trials in registers, eight accumulator vectors, 512 samples and every
/// channel in one pass. Eight trials are too few for staging to pay, so
/// the stages read their input rows in place.
KernelConfig stage_config(std::size_t rows) {
  static_assert(8 < kStagingMinReuse);
  KernelConfig config;
  config.elem_dm = std::gcd(rows, std::size_t{8});
  config.unroll = 8 / config.elem_dm;
  config.wi_time = 512;
  return config;
}

}  // namespace

SubbandSplitKey SubbandSplitKey::of(const Plan& plan,
                                    const SubbandConfig& config) {
  const sky::Observation& obs = plan.observation();
  return {obs.sampling_rate(), obs.f_min_mhz(), obs.channel_bw_mhz(),
          obs.channels(),      obs.dm_first(),  obs.dm_step(),
          plan.dms(),          config.subbands, config.coarse_step};
}

void SubbandConfig::validate(const Plan& plan) const {
  DDMC_REQUIRE(subbands > 0 && coarse_step > 0,
               "subband parameters must be positive");
  DDMC_REQUIRE(plan.channels() % subbands == 0,
               "subband count must divide the channel count");
  DDMC_REQUIRE(plan.dms() % coarse_step == 0,
               "coarse step must divide the trial count");
}

SubbandConfig SubbandConfig::adapted_to(const Plan& plan) const {
  SubbandConfig adapted = *this;
  adapted.subbands =
      std::gcd(std::max<std::size_t>(subbands, 1), plan.channels());
  adapted.coarse_step =
      std::gcd(std::max<std::size_t>(coarse_step, 1), plan.dms());
  return adapted;
}

double subband_flop(const Plan& plan, const SubbandConfig& config) {
  config.validate(plan);
  const double d = static_cast<double>(plan.dms());
  const double s = static_cast<double>(plan.out_samples());
  const double c = static_cast<double>(plan.channels());
  const double coarse = d / static_cast<double>(config.coarse_step);
  return coarse * s * c + d * s * static_cast<double>(config.subbands);
}

std::int64_t subband_max_delay_error(const Plan& plan,
                                     const SubbandConfig& config) {
  config.validate(plan);
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
      const double f_hi = subband_top(obs, cs, band);
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
  config.validate(plan);
  std::vector<std::int64_t> intra, inter;
  const auto [max_intra, max_inter] = split_delays(plan, config, intra, inter);
  return plan.out_samples() + static_cast<std::size_t>(max_intra + max_inter);
}

void dedisperse_subband(const Plan& plan, const SubbandConfig& config,
                        ConstView2D<float> in, View2D<float> out,
                        SubbandWorkspace& workspace,
                        const CpuKernelOptions& options, ThreadPool* pool) {
  config.validate(plan);
  const std::size_t channels = plan.channels();
  const std::size_t samples = plan.out_samples();
  const std::size_t subbands = config.subbands;
  const std::size_t step = config.coarse_step;
  const std::size_t cs = channels / subbands;

  DDMC_REQUIRE(in.rows() == channels, "input rows != channels");
  DDMC_REQUIRE(out.rows() == plan.dms(), "output rows != trial DMs");
  DDMC_REQUIRE(out.cols() >= samples, "output too short");

  ensure_split_tables(plan, config, workspace);
  const std::size_t max_inter =
      static_cast<std::size_t>(workspace.max_inter);
  const std::size_t needed =
      samples + static_cast<std::size_t>(workspace.max_intra) + max_inter;
  DDMC_REQUIRE(in.cols() >= needed,
               "input too short for the split delays: need " +
                   std::to_string(needed) + " columns, have " +
                   std::to_string(in.cols()));

  // Stage-1 rows are long enough for every stage-2 shift; plane row
  // j·subbands + band holds band for coarse trial ci0 + j of the block.
  const std::size_t span = samples + max_inter;
  const std::size_t n_coarse = plan.dms() / step;
  const std::size_t coarse_bytes =
      subbands * round_up(span * sizeof(float), kCacheLineBytes);
  const std::size_t block = std::bit_floor(
      std::clamp<std::size_t>(kStage1BlockBytes / coarse_bytes, 1, n_coarse));
  const View2D<float> plane = workspace.stage1.matrix(block * subbands, span);
  std::vector<TileJob<float>>& jobs = workspace.jobs;

  for (std::size_t ci0 = 0; ci0 < n_coarse; ci0 += block) {
    const std::size_t nb = std::min(block, n_coarse - ci0);
    {
      // Stage 1: each band's channels over the block's coarse trials.
      telemetry::TraceSpan stage("subband.stage1");
      jobs.clear();
      for (std::size_t band = 0; band < subbands; ++band) {
        jobs.push_back(
            {ConstView2D<std::int64_t>(
                 &workspace.intra[ci0 * channels + band * cs], nb, cs,
                 channels),
             ConstView2D<float>(&in(band * cs, 0), cs, in.cols(),
                                in.pitch()),
             View2D<float>(&plane(band, 0), nb, span,
                           subbands * plane.pitch())});
      }
      dedisperse_tiled(jobs, stage_config(nb), options, pool);
    }
    {
      // Stage 2: each coarse trial's band rows over its fine trials.
      telemetry::TraceSpan stage("subband.stage2");
      jobs.clear();
      for (std::size_t j = 0; j < nb; ++j) {
        const std::size_t dm0 = (ci0 + j) * step;
        jobs.push_back(
            {ConstView2D<std::int64_t>(&workspace.inter[dm0 * subbands],
                                       step, subbands, subbands),
             ConstView2D<float>(&plane(j * subbands, 0), subbands, span,
                                plane.pitch()),
             View2D<float>(&out(dm0, 0), step, samples, out.pitch())});
      }
      dedisperse_tiled(jobs, stage_config(step), options, pool);
    }
  }
}

}  // namespace ddmc::dedisp
