#pragma once
/// \file quantize.hpp
/// \brief Fixed-parameter 8-bit sample quantization for the u8 engine.
///
/// Real surveys record 8-bit (or narrower) filterbank samples; this module
/// maps the library's float sample plane onto that representation so the
/// quantized engine can move a quarter of the input bytes. The parameters
/// are *fixed at construction* (a gain setting, like a telescope's), never
/// derived from the data: quantization is therefore a pure pointwise
/// function, which is what keeps the u8 engine deterministic — streaming
/// chunks, DM shards and the batch path all quantize a given sample to the
/// same code, so streaming==batch and sharded==single remain bitwise
/// identities of the engine even though its output is only approximately
/// equal to the float reference.
///
/// The error budget is explicit: one sample carries at most scale()/2 of
/// rounding (half a quantization step), so an output element summing C
/// channels is within C·scale()/2 of the exact float sum —
/// quantization_error_bound() below, the bound the engine documents and
/// the equivalence tests enforce.

#include <cstddef>
#include <cstdint>

#include "common/array2d.hpp"
#include "dedisp/plan.hpp"

namespace ddmc::dedisp {

/// The affine u8 code map: x ≈ lo + scale()·q with q ∈ [0, 255]. Values
/// outside [lo, hi] clamp (a telescope's ADC saturates the same way). The
/// default ±8 window comfortably covers unit-variance noise plus bright
/// pulses without saturating.
struct QuantizationParams {
  float lo = -8.0f;
  float hi = 8.0f;

  float scale() const { return (hi - lo) / 255.0f; }

  /// Pointwise, deterministic: round-half-up, then clamp — written as
  /// branch-free float math (add 0.5, clamp, truncate) so the plane pass
  /// below auto-vectorizes; for the non-negative post-clamp range this is
  /// exactly std::lround's rounding. Inline and header-defined on purpose:
  /// the quantizing loop is the u8 engine's per-execute staging cost.
  /// The upper clamp comes first so that the lower one, `t > 0 ? t : 0`,
  /// also catches NaN: a NaN sample maps to code 0, like −inf, instead of
  /// reaching an undefined float → integer conversion.
  std::uint8_t quantize(float x) const {
    float t = (x - lo) / scale() + 0.5f;
    t = t > 255.0f ? 255.0f : t;
    t = t > 0.0f ? t : 0.0f;
    return static_cast<std::uint8_t>(t);
  }
  float dequantize(std::uint8_t q) const {
    return lo + scale() * static_cast<float>(q);
  }

  friend bool operator==(const QuantizationParams&,
                         const QuantizationParams&) = default;
};

/// Quantize \p in element-wise into \p out (same shape or smaller; the
/// out view's dimensions drive the loop, so a wider float input — e.g. one
/// carrying another engine's padding columns — stages only what the u8
/// kernel will read).
void quantize_plane(ConstView2D<float> in, const QuantizationParams& params,
                    View2D<std::uint8_t> out);

/// quantize_plane() that also returns how many samples clipped: fell
/// below lo, above hi, or were NaN. The streaming chunker quantizes each
/// sample once through here, so its count is the stream's; the batch
/// quantize_plane() stays uncounted.
std::size_t quantize_plane_counting_clipped(ConstView2D<float> in,
                                            const QuantizationParams& params,
                                            View2D<std::uint8_t> out);

/// The clipped-sample count of quantize_plane_counting_clipped() over all
/// of \p in, without writing codes.
std::size_t count_clipped(ConstView2D<float> in,
                          const QuantizationParams& params);

/// Convenience allocating the byte plane: channels × in_samples of \p plan.
Array2D<std::uint8_t> quantize_plane(const dedisp::Plan& plan,
                                     ConstView2D<float> in,
                                     const QuantizationParams& params);

/// The documented per-output-element error bound of the u8 engine vs the
/// exact float sum: C channels × scale()/2 of per-sample rounding, plus a
/// slack term for the float accumulation rounding on *both* sides of the
/// comparison (the reference engine rounds too). The quantization term
/// dominates by orders of magnitude at survey channel counts.
double quantization_error_bound(const Plan& plan,
                                const QuantizationParams& params);

}  // namespace ddmc::dedisp
