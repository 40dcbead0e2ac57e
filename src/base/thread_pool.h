// ThreadPool: a fixed set of worker threads draining one FIFO task queue,
// plus the fork/join primitive the parallel fixpoint stage is built on —
// ParallelFor (shared-counter index claiming).
//
// Design constraints (see RelationalConsequence::Step):
//   * ParallelFor returns only when every body call has finished — a full
//     barrier, so the caller can merge per-task results immediately
//     afterwards.
//   * The calling thread participates in the loop, so a pool built with
//     `extra_workers` workers gives the loop a concurrency of
//     extra_workers + 1. Total threads used for "--threads=N" is therefore
//     a pool of N-1 workers.
//   * ParallelFor claims indices from a shared atomic counter, which
//     load-balances uneven tasks: a participant that finishes early just
//     claims the next index. Determinism is the *caller's* job (tasks must
//     write to disjoint outputs and be merged in a deterministic key
//     order).
//   * All queue operations synchronize through one mutex and loop
//     completion through atomic counters, so writes made by a body call
//     happen-before the post-barrier reads of its output.
//   * A body that throws does not take the process down: the first
//     exception is captured, the barrier completes (remaining bodies may
//     be skipped), and the exception is rethrown on the calling thread.

#ifndef INFLOG_BASE_THREAD_POOL_H_
#define INFLOG_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace inflog {

/// A fixed-size worker pool with a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `extra_workers` worker threads. 0 is legal and spawns none:
  /// every loop then runs inline on the calling thread, which is the exact
  /// serial execution order.
  explicit ThreadPool(size_t extra_workers);

  /// Drops nothing: pending tasks are completed before the workers exit.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of spawned worker threads (0 when running inline).
  size_t num_workers() const { return workers_.size(); }

  /// Enqueues one task for any worker to run. With no workers the task
  /// runs immediately on the calling thread. The task must not throw.
  void Submit(std::function<void()> task);

  /// Runs body(i) for every i in [0, n), distributing indices across the
  /// workers and the calling thread; returns once all n calls finished.
  /// Not reentrant from inside a task body. If a body throws, the first
  /// exception is rethrown here after the barrier (indices not yet claimed
  /// when the exception was captured may run no body at all).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// std::thread::hardware_concurrency() with a floor of 1 (the standard
  /// allows it to report 0 when unknown).
  static size_t HardwareConcurrency();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace inflog

#endif  // INFLOG_BASE_THREAD_POOL_H_
