#include "dedisp/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace ddmc::dedisp {

namespace {

/// The plane pass behind quantize_plane(), its counting twin and
/// count_clipped(): \p kQuantize writes the codes, \p kCount adds the
/// clipped-sample count without leaving the vectorized loop. The loop
/// runs over \p rows × \p cols.
template <bool kQuantize, bool kCount>
std::size_t quantize_rows(ConstView2D<float> in,
                          const QuantizationParams& params,
                          View2D<std::uint8_t> out, std::size_t rows,
                          std::size_t cols) {
  DDMC_REQUIRE(params.hi > params.lo,
               "quantization window must be non-empty (hi > lo)");
  DDMC_REQUIRE(in.rows() >= rows && in.cols() >= cols,
               "quantize_plane: float input smaller than the byte plane");
  const float lo = params.lo;
  const float hi = params.hi;
  std::size_t clipped = 0;
  for (std::size_t ch = 0; ch < rows; ++ch) {
    const float* src = &in(ch, 0);
    std::uint8_t* dst = kQuantize ? &out(ch, 0) : nullptr;
    // Tight call to the inline branch-free quantizer: the compiler turns
    // this into vectorized convert+pack, which matters because this pass
    // runs over every sample. 32-bit lane counts keep the count in the
    // same vectorized loop; a row never holds 2^32 samples.
    std::uint32_t row = 0;
    for (std::size_t t = 0; t < cols; ++t) {
      const float x = src[t];
      if constexpr (kQuantize) dst[t] = params.quantize(x);
      if constexpr (kCount) {
        // NaN fails both comparisons; `|`, not `||`, keeps it branch-free.
        row += static_cast<std::uint32_t>(!(x >= lo) | !(x <= hi));
      }
    }
    clipped += row;
  }
  return clipped;
}

}  // namespace

void quantize_plane(ConstView2D<float> in, const QuantizationParams& params,
                    View2D<std::uint8_t> out) {
  quantize_rows<true, false>(in, params, out, out.rows(), out.cols());
}

std::size_t quantize_plane_counting_clipped(ConstView2D<float> in,
                                            const QuantizationParams& params,
                                            View2D<std::uint8_t> out) {
  return quantize_rows<true, true>(in, params, out, out.rows(), out.cols());
}

std::size_t count_clipped(ConstView2D<float> in,
                          const QuantizationParams& params) {
  return quantize_rows<false, true>(in, params, {}, in.rows(), in.cols());
}

Array2D<std::uint8_t> quantize_plane(const dedisp::Plan& plan,
                                     ConstView2D<float> in,
                                     const QuantizationParams& params) {
  Array2D<std::uint8_t> out(plan.channels(), plan.in_samples());
  quantize_plane(in, params, out.view());
  return out;
}

double quantization_error_bound(const Plan& plan,
                                const QuantizationParams& params) {
  const double c = static_cast<double>(plan.channels());
  const double quant = 0.5 * static_cast<double>(params.scale()) * c;
  // Float-accumulation rounding slack, covering both the u8 engine's sum
  // and the reference's: each side performs ~c additions of values bounded
  // by max(|lo|, |hi|), each contributing at most one ulp of the running
  // sum (≤ c·bound magnitude).
  const double mag =
      std::max(std::abs(static_cast<double>(params.lo)),
               std::abs(static_cast<double>(params.hi)));
  const double rounding = 2.0 * c * c * mag * 1.2e-7;
  return quant + rounding;
}

}  // namespace ddmc::dedisp
