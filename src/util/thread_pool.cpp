#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace gmfnet {

namespace {
/// The pool this thread is running parallel_for bodies for, and its slot
/// there: a worker's own pool and slot, or a caller's while it takes
/// chunks of its own call (slot size()).  A thread serves at most one pool
/// at a time, so one thread-local pair suffices.
thread_local const ThreadPool* t_pool = nullptr;
thread_local std::size_t t_pool_slot = 0;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lk(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop(std::size_t slot) {
  t_pool = this;
  t_pool_slot = slot;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard lk(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_slotted(n,
                       [&body](std::size_t, std::size_t i) { body(i); });
}

void ThreadPool::parallel_for_slotted(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (t_pool == this) {
    throw std::logic_error(
        "ThreadPool::parallel_for: nested call from a body of the same "
        "pool would deadlock");
  }
  std::lock_guard pf_lock(parallel_for_mu_);
  if (n == 0) return;
  // The workers and the caller (slot size()) take chunks alike, so the
  // work starts at once on the caller instead of waiting for a worker to
  // wake; only as many workers are woken as there are chunks left over.  A
  // one-worker pool leaves the whole loop to the caller, in index order:
  // the worker would add little and take away the sequential execution
  // such a pool's callers may rely on.
  const std::size_t participants = size() > 1 ? size() + 1 : 1;
  const std::size_t chunk = (n + participants - 1) / participants;
  const std::size_t chunks = (n + chunk - 1) / chunk;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto take_chunks = [&](std::size_t slot) {
    for (;;) {
      if (cancelled.load(std::memory_order_relaxed)) return;
      const std::size_t begin = next.fetch_add(chunk);
      if (begin >= n) return;
      const std::size_t end = std::min(begin + chunk, n);
      for (std::size_t i = begin; i < end; ++i) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        try {
          body(slot, i);
        } catch (...) {
          cancelled.store(true, std::memory_order_relaxed);
          const std::lock_guard lk(error_mu);
          if (!error) error = std::current_exception();
          return;
        }
      }
    }
  };
  for (std::size_t t = 1; t < chunks; ++t) {
    submit([&take_chunks] { take_chunks(t_pool_slot); });
  }
  const ThreadPool* const outer = t_pool;  // the caller may serve another pool
  t_pool = this;
  take_chunks(size());
  t_pool = outer;
  wait_idle();
  if (error) std::rethrow_exception(error);
}

}  // namespace gmfnet
