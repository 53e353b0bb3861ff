// Work-stealing-free, dead-simple thread pool with a parallel_for helper.
//
// Used by the analysis engine to fan dirty shards and batched what-if
// probes over its workers (engine/analysis_engine.cpp), by the RPC daemon's
// reader pool for WHAT_IF_BATCH candidates (rpc/server.hpp), and for
// embarrassingly parallel parameter sweeps in the benches (each
// (utilization, seed) cell is independent).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gmfnet {

class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw (std::terminate otherwise).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs body(i) for i in [0, n), distributing chunks over the pool's
  /// workers and the calling thread, and waits for completion.  A
  /// one-worker pool runs the whole loop on the caller, in index order.
  /// Safe to call from one thread at a time: an internal mutex serializes
  /// concurrent calls from different threads, and a nested call from a body
  /// of this pool (which could never finish — it would wait on the very
  /// call it runs in) throws std::logic_error before enqueuing anything.
  ///
  /// Exception-safe: if a body call throws, remaining iterations are
  /// cancelled (already-started chunks finish their current call), the pool
  /// drains, and the first exception is rethrown in the caller — so a
  /// throwing probe surfaces to the engine's caller instead of
  /// std::terminate'ing a worker.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// parallel_for whose body also receives the executing thread's *slot*:
  /// body(slot, i).  Each pool worker owns one fixed slot in [0, size());
  /// slot size() is the calling thread, which takes chunks alongside the
  /// workers.  No two concurrent body calls of one invocation share a slot,
  /// so callers may key per-thread scratch state by slot with size() + 1
  /// entries and no further synchronization.  Same serialization, nesting
  /// and exception contract as parallel_for.
  void parallel_for_slotted(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop(std::size_t slot);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::mutex parallel_for_mu_;  ///< serializes parallel_for callers
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace gmfnet
