#pragma once
/// \file aligned.hpp
/// \brief Cache-line / SIMD aligned allocation helpers.
///
/// Dedispersion kernels are memory-bound; keeping rows aligned to cache-line
/// boundaries both mirrors the device allocation rules the performance model
/// assumes and enables vectorized host kernels.

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>

#include "common/expect.hpp"

namespace ddmc {

/// Default alignment: one x86 cache line, also sufficient for AVX-512 loads.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Round \p value up to the next multiple of \p alignment (alignment > 0).
constexpr std::size_t round_up(std::size_t value, std::size_t alignment) {
  return alignment == 0 ? value
                        : ((value + alignment - 1) / alignment) * alignment;
}

/// Integer ceiling division for non-negative operands.
template <typename T>
constexpr T ceil_div(T a, T b) {
  return static_cast<T>((a + b - 1) / b);
}

/// True iff \p v is a power of two (and non-zero).
constexpr bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// STL-compatible allocator returning storage aligned to \p Alignment bytes.
template <typename T, std::size_t Alignment = kCacheLineBytes>
class AlignedAllocator {
  static_assert(Alignment >= alignof(T), "alignment weaker than type");
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment not pow2");

 public:
  using value_type = T;

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc();
    // Aligned operator new rather than aligned_alloc, so a program that
    // replaces the global allocation functions sees these blocks too.
    return static_cast<T*>(::operator new(round_up(n * sizeof(T), Alignment),
                                          std::align_val_t{Alignment}));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

}  // namespace ddmc
