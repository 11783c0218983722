#pragma once
/// \file workspace.hpp
/// \brief Grow-only scratch buffers, and the pool that gives every
/// concurrent caller a workspace of its own.
///
/// A kernel that allocates its working set on every call pays for it on
/// every call: above glibc's mmap threshold each buffer is mapped fresh and
/// every page faults on first touch, which for the Fourier-domain engine
/// once cost about a third of a call. The cure is to keep the buffers, and
/// the two pieces here are all it takes:
///
///  - ScratchBuffer<T> is cache-line aligned storage that only grows: a
///    request within its capacity reuses it as is (contents unspecified),
///    a larger one frees the old block before mapping the new, so a
///    sequence of calls on one shape allocates once. A new block is not
///    zeroed, so its pages are touched first by the caller's first write;
///    sanitized builds (DDMC_SANITIZE) fill it with 0xFF bytes — NaN
///    floats, code 255 — so a read before the first write shows up in
///    the bitwise-equality tests rather than reading a fresh zero page.
///  - WorkspacePool<W> hands each concurrent caller its own W and takes it
///    back when the caller is done, so an engine instance shared by shard
///    workers or racing threads never lets two calls write one buffer.
///    Idle workspaces stay in the pool for the next caller and are freed
///    with the pool — in the engines, with the engine instance.

#include <cstddef>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/array2d.hpp"

namespace ddmc {

/// Grow-only, cache-line aligned scratch of trivially copyable elements.
template <typename T>
class ScratchBuffer {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_default_constructible_v<T>,
                "scratch elements are left uninitialized");

 public:
  /// \p count elements of storage, contents unspecified. Reallocates only
  /// when \p count exceeds the capacity.
  std::span<T> take(std::size_t count) {
    if (count > capacity_) {
      data_.reset();  // free before mapping the larger block
      capacity_ = 0;
      const std::size_t bytes = round_up(count * sizeof(T), kCacheLineBytes);
      data_.reset(static_cast<T*>(
          ::operator new(bytes, std::align_val_t{kCacheLineBytes})));
#ifdef DDMC_SANITIZE
      std::memset(data_.get(), 0xFF, bytes);
#endif
      capacity_ = count;
    }
    return {data_.get(), count};
  }

  /// A rows x cols matrix over the buffer, rows padded to a cache-line
  /// pitch like Array2D's. Contents unspecified.
  View2D<T> matrix(std::size_t rows, std::size_t cols) {
    const std::size_t pitch =
        round_up(cols * sizeof(T), kCacheLineBytes) / sizeof(T);
    return View2D<T>(take(rows * pitch).data(), rows, cols, pitch);
  }

  /// Elements currently held.
  std::size_t capacity() const { return capacity_; }

 private:
  struct AlignedDelete {
    void operator()(T* p) const {
      ::operator delete(p, std::align_val_t{kCacheLineBytes});
    }
  };
  std::unique_ptr<T, AlignedDelete> data_;
  std::size_t capacity_ = 0;
};

/// A set of W (default-constructible) workspaces, one per concurrent
/// caller. acquire() lends an idle workspace, or makes a new one when all
/// are lent; the lease returns it on destruction. Thread-safe.
template <typename W>
class WorkspacePool {
 public:
  class Lease {
   public:
    W& operator*() const { return *ws_; }
    W* operator->() const { return ws_.get(); }
    ~Lease() { pool_->give_back(std::move(ws_)); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

   private:
    friend class WorkspacePool;
    Lease(WorkspacePool* pool, std::unique_ptr<W> ws)
        : pool_(pool), ws_(std::move(ws)) {}
    WorkspacePool* pool_;
    std::unique_ptr<W> ws_;
  };

  Lease acquire() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        std::unique_ptr<W> ws = std::move(idle_.back());
        idle_.pop_back();
        return Lease(this, std::move(ws));
      }
    }
    return Lease(this, std::make_unique<W>());
  }

 private:
  /// Runs in ~Lease, so it must not throw: a workspace the pool cannot
  /// take back (the idle list failed to grow) is freed instead.
  void give_back(std::unique_ptr<W> ws) noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    try {
      idle_.push_back(std::move(ws));
    } catch (...) {
    }
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<W>> idle_;
};

}  // namespace ddmc
