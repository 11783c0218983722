#pragma once
/// \file thread_pool.hpp
/// \brief RAII worker pool and blocked parallel_for.
///
/// Follows the C++ Core Guidelines concurrency rules: threads are joined in
/// the destructor (no detached threads), work is expressed through a
/// higher-level facility instead of raw std::thread management, and
/// exceptions thrown by tasks are propagated to the caller.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ddmc {

/// Fixed-size worker pool. Submit tasks with run(); parallel_for() blocks
/// until the whole index range has been processed and rethrows the first
/// task exception, if any.
class ThreadPool {
 public:
  /// \param workers number of worker threads; 0 selects hardware concurrency.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Enqueue one task. Tasks must not themselves block on this pool.
  void run(std::function<void()> task);

  /// Block until every task enqueued so far has finished; rethrows the first
  /// captured task exception.
  void wait_idle();

  /// Process [begin, end) in contiguous blocks of at most block size,
  /// invoking fn(block_begin, block_end) on pool workers. Blocks until done
  /// and rethrows the first exception thrown by fn. Each call tracks its own
  /// completion and errors, so concurrent parallel_for calls on a shared
  /// pool neither wait on each other's tasks nor steal each other's
  /// exceptions.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t block,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// Workers of a pool constructed with 0: one per hardware thread, at least
/// one.
std::size_t hardware_workers();

/// Singleton pool sized to the machine, for library-internal parallelism.
ThreadPool& global_pool();

/// The workers of a component sized for \p threads, resolved once, when
/// the component is built: none (run inline) for 1, global_pool() for 0,
/// else a pool of that many workers owned here and joined with it. So a
/// component called over and over (an engine once per chunk and beam)
/// never spawns a thread on a call.
class WorkerPool {
 public:
  explicit WorkerPool(std::size_t threads);

  /// The pool to run on; nullptr runs inline on the calling thread. The
  /// global pool is looked up here rather than at construction, so a
  /// component built only to be inspected starts no threads.
  ThreadPool* get() const {
    return threads_ == 0 ? &global_pool() : owned_.get();
  }

 private:
  std::size_t threads_;
  std::unique_ptr<ThreadPool> owned_;
};

}  // namespace ddmc
