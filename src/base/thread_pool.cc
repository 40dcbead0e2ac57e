#include "src/base/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace inflog {

ThreadPool::ThreadPool(size_t extra_workers) {
  workers_.reserve(extra_workers);
  for (size_t i = 0; i < extra_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Finish queued work even when stopping, so ~ThreadPool never
      // abandons a loop mid-barrier.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

namespace {

/// First-exception capture for ParallelFor: a flag checked before
/// running a body (so remaining work drains without executing after a
/// failure) plus the captured exception, written once under a mutex and
/// rethrown on the calling thread after the barrier.
struct FailureSlot {
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::exception_ptr eptr;

  /// Records the in-flight exception if it is the first one.
  void Capture() {
    std::lock_guard<std::mutex> lock(mu);
    if (!failed.exchange(true)) eptr = std::current_exception();
  }

  /// Rethrows the captured exception, if any. Call only after the
  /// barrier: every worker that could write `eptr` has finished.
  void Rethrow() {
    if (failed.load(std::memory_order_acquire)) {
      std::rethrow_exception(eptr);
    }
  }
};

}  // namespace

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Inline path: exceptions propagate to the caller naturally.
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Shared loop state: `next` hands out indices, `done` counts finished
  // body calls; the caller blocks until done == n. Helpers hold a
  // shared_ptr so a helper scheduled after the barrier released (because
  // caller + earlier helpers drained all indices) still finds live state.
  struct Loop {
    explicit Loop(size_t total, const std::function<void(size_t)>& b)
        : n(total), body(b) {}
    const size_t n;
    const std::function<void(size_t)>& body;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    FailureSlot failure;
  };
  auto loop = std::make_shared<Loop>(n, body);

  auto run = [](const std::shared_ptr<Loop>& l) {
    while (true) {
      const size_t i = l->next.fetch_add(1);
      if (i >= l->n) return;
      // After a failure the remaining indices are still claimed and
      // counted (the barrier must reach n) but their bodies are skipped:
      // the loop's result is abandoned anyway once it throws.
      if (!l->failure.failed.load(std::memory_order_relaxed)) {
        try {
          l->body(i);
        } catch (...) {
          l->failure.Capture();
        }
      }
      if (l->done.fetch_add(1) + 1 == l->n) {
        // Lock before notifying so the caller cannot miss the wakeup
        // between its predicate check and its wait.
        std::lock_guard<std::mutex> lock(l->mu);
        l->cv.notify_all();
      }
    }
  };

  const size_t helpers = std::min(n - 1, workers_.size());
  for (size_t h = 0; h < helpers; ++h) {
    Submit([loop, run] { run(loop); });
  }
  run(loop);
  {
    std::unique_lock<std::mutex> lock(loop->mu);
    loop->cv.wait(lock, [&] { return loop->done.load() == n; });
  }
  loop->failure.Rethrow();
}

size_t ThreadPool::HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

}  // namespace inflog
