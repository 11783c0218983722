#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/aligned.hpp"
#include "common/expect.hpp"

namespace ddmc {

std::size_t hardware_workers() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = hardware_workers();
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::run(std::function<void()> task) {
  DDMC_REQUIRE(task != nullptr, "null task");
  {
    std::lock_guard lock(mutex_);
    DDMC_REQUIRE(!stop_, "pool is shutting down");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t block,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  DDMC_REQUIRE(begin <= end, "inverted range");
  DDMC_REQUIRE(block > 0, "block must be positive");
  if (begin == end) return;

  // Each call gets its own completion latch and error slot. Waiting on the
  // pool-global in_flight_/first_error_ would make two concurrent
  // parallel_for calls (e.g. multibeam over the global pool while a beam
  // dedisperses) block on each other's tasks and steal each other's
  // exceptions.
  struct CallState {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr error;
  };
  const std::size_t blocks = ceil_div(end - begin, block);
  auto state = std::make_shared<CallState>();
  state->remaining = blocks;

  for (std::size_t b = begin; b < end; b += block) {
    const std::size_t e = std::min(end, b + block);
    run([state, &fn, b, e] {
      try {
        fn(b, e);
      } catch (...) {
        std::lock_guard lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
      }
      std::lock_guard lock(state->mutex);
      if (--state->remaining == 0) state->done.notify_all();
    });
  }

  std::unique_lock lock(state->mutex);
  state->done.wait(lock, [&] { return state->remaining == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

WorkerPool::WorkerPool(std::size_t threads)
    : threads_(threads),
      owned_(threads >= 2 ? std::make_unique<ThreadPool>(threads) : nullptr) {}

}  // namespace ddmc
