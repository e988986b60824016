// Fixed-size worker pool for the experiment engine.
//
// The evaluation harness runs hundreds of independent discrete-event
// simulations; each is CPU-bound and allocation-heavy, so a plain
// thread-per-task model would thrash. The pool keeps one worker per core
// unless told otherwise, and supports *nested* parallelism:
// a task waiting on futures of sub-tasks helps drain the queue instead of
// blocking, so a batch of max-load searches can each fan out speculative
// probes onto the same pool without deadlock.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>
#include <vector>

namespace tailguard {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 means one per hardware thread).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const;

  /// Process-wide pool, created on first use with `num_threads` workers
  /// (0 means one per hardware thread). Entry points that take a thread
  /// count pass it on their first call; later calls must pass 0 or the
  /// same count.
  static ThreadPool& shared(std::size_t num_threads = 0);

  /// Parses a thread-count setting ("8", " 4 ", as in the harness's
  /// TAILGUARD_THREADS) into a count; returns 0 when the value is absent or
  /// unusable, which callers treat as "one per hardware thread".
  static std::size_t parse_thread_count(const char* value);

  /// Schedules `fn` and returns its future.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Runs one queued task on the calling thread, if any is pending.
  /// Returns false when the queue was empty.
  bool run_one();

  /// Blocks until `future` is ready, executing queued pool tasks while
  /// waiting (this is what makes nested submit-and-wait safe).
  template <typename R>
  R wait(std::future<R>& future) {
    help_until_ready(
        [&future] {
          return future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready;
        });
    return future.get();
  }

  /// Calls fn(i) for i in [0, n), distributed over the pool; returns when
  /// every iteration has finished. Iterations must be independent.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      futures.push_back(submit([&fn, i] { fn(i); }));
    for (auto& f : futures) wait(f);
  }

 private:
  struct Impl;

  void enqueue(std::function<void()> task);
  /// Runs queued tasks until `done()`; naps briefly when the queue is empty.
  void help_until_ready(const std::function<bool()>& done);

  std::unique_ptr<Impl> impl_;
};

}  // namespace tailguard
