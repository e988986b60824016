#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"

namespace tailguard {

// All locking lives on Impl itself (not on the ThreadPool forwarding shims):
// thread-safety analysis matches capability expressions syntactically, and
// `this->mutex` from an Impl method is checkable where `impl_->mutex` through
// the unique_ptr's operator-> is not.
struct ThreadPool::Impl {
  Mutex mutex;
  CondVar cv;
  std::deque<std::function<void()>> queue TG_GUARDED_BY(mutex);
  bool stop TG_GUARDED_BY(mutex) = false;
  // Written once by the ThreadPool constructor before any worker can touch
  // it, then only read; joined by the destructor after stop.
  // tg-lint: allow(guarded-member)
  std::vector<std::thread> workers;

  void worker_loop() TG_EXCLUDES(mutex) {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mutex);
        while (!stop && queue.empty()) cv.wait(mutex);
        if (stop && queue.empty()) return;
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }

  void enqueue(std::function<void()> task) TG_EXCLUDES(mutex) {
    {
      MutexLock lock(mutex);
      queue.push_back(std::move(task));
    }
    cv.notify_one();
  }

  bool run_one() TG_EXCLUDES(mutex) {
    std::function<void()> task;
    {
      MutexLock lock(mutex);
      if (queue.empty()) return false;
      task = std::move(queue.front());
      queue.pop_front();
    }
    task();
    return true;
  }

  void request_stop() TG_EXCLUDES(mutex) {
    {
      MutexLock lock(mutex);
      stop = true;
    }
    cv.notify_all();
  }
};

ThreadPool::ThreadPool(std::size_t num_threads) : impl_(new Impl) {
  if (num_threads == 0)
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  impl_->workers.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  impl_->request_stop();
  for (auto& w : impl_->workers) w.join();
}

std::size_t ThreadPool::num_threads() const { return impl_->workers.size(); }

ThreadPool& ThreadPool::shared(std::size_t num_threads) {
  static ThreadPool pool(num_threads);
  TG_CHECK_MSG(num_threads == 0 || num_threads == pool.num_threads(),
               "shared pool already has " << pool.num_threads()
                                          << " threads, asked for "
                                          << num_threads);
  return pool;
}

std::size_t ThreadPool::parse_thread_count(const char* value) {
  if (value == nullptr) return 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || parsed <= 0) return 0;
  // Clamp to something sane: a runaway value would just thrash.
  return static_cast<std::size_t>(std::min(parsed, 1024L));
}

void ThreadPool::enqueue(std::function<void()> task) {
  impl_->enqueue(std::move(task));
}

bool ThreadPool::run_one() { return impl_->run_one(); }

void ThreadPool::help_until_ready(const std::function<bool()>& done) {
  while (!done()) {
    if (!run_one()) {
      // Queue momentarily empty but the awaited task is still in flight on
      // a worker; nap instead of spinning.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

}  // namespace tailguard
