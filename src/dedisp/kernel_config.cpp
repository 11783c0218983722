#include "dedisp/kernel_config.hpp"

#include <sstream>

#include "common/expect.hpp"
#include "common/simd.hpp"

namespace ddmc::dedisp {

void KernelConfig::validate(const Plan& plan) const {
  if (wi_time == 0 || wi_dm == 0 || elem_time == 0 || elem_dm == 0) {
    throw config_error("kernel parameters must all be positive: " +
                       to_string());
  }
  if (plan.out_samples() % tile_time() != 0) {
    throw config_error("time tile " + std::to_string(tile_time()) +
                       " does not divide output samples " +
                       std::to_string(plan.out_samples()));
  }
  if (plan.dms() % tile_dm() != 0) {
    throw config_error("DM tile " + std::to_string(tile_dm()) +
                       " does not divide trial count " +
                       std::to_string(plan.dms()));
  }
  if (!simd::is_supported_unroll(unroll)) {
    // The accumulate kernels compile exactly the {1,2,4,8} instantiations;
    // any other hint would silently run the un-unrolled loop while timings
    // and the tuning cache credit the requested unroll. Fail fast instead.
    throw config_error(
        "unroll must be one of {1, 2, 4, 8} (the compiled accumulate "
        "instantiations): " +
        to_string());
  }
}

std::string KernelConfig::to_string() const {
  std::ostringstream ss;
  ss << "{wi_time=" << wi_time << ", wi_dm=" << wi_dm
     << ", elem_time=" << elem_time << ", elem_dm=" << elem_dm;
  // Host-engine knobs are printed only when they deviate from the defaults,
  // so the four-parameter identity of a paper config stays compact.
  if (channel_block != 0) ss << ", channel_block=" << channel_block;
  if (unroll != 1) ss << ", unroll=" << unroll;
  ss << "}";
  return ss.str();
}

SearchSpace default_search_space() {
  SearchSpace s;
  // Powers of two up to the largest work-group any Table I device accepts,
  // plus the decimal divisors of the setups' samples-per-second — the paper
  // finds optima like 250×4 (LOFAR, GTX 680) that are not powers of two.
  s.wi_time = {1,  2,  4,  8,  10, 16,  20,  25,  32,  50,  64,
               100, 125, 128, 200, 250, 256, 500, 512, 1000, 1024};
  s.wi_dm = {1, 2, 4, 8, 16, 32};
  s.elem_time = {1, 2, 4, 5, 8, 10, 16, 20, 25, 32, 50};
  s.elem_dm = {1, 2, 4, 8};
  // Host-engine axes. The channel blocks bracket the L1/L2 residency
  // sweet spots of the setups' channel counts (Apertif/LOFAR: 1024 and
  // 2048 channels); 0 is the unblocked single pass.
  s.channel_block = {0, 32, 128, 512};
  s.unroll = {1, 2, 4};
  return s;
}

}  // namespace ddmc::dedisp
