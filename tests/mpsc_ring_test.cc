// Stress tests for the lock-free MPSC submission ring and its integration
// into Worker. These are the tests the TSan CI job exists for: N producers
// racing a single consumer across ring wraparound, and submit() racing
// shutdown(). They must NOT be added to scripts/tsan-skip.txt — there are no
// wall-clock assertions here, only counting invariants, so they are valid
// under arbitrary sanitizer slowdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/check.h"
#include "runtime/mpsc_ring.h"
#include "runtime/worker.h"

namespace tailguard {
namespace {

TEST(MpscRing, SingleThreadFifoAcrossWraparound) {
  MpscRing<int> ring(4);  // 1000 items through 4 slots = 250 laps
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));
  for (int base = 0; base < 1000; base += 4) {
    for (int i = 0; i < 4; ++i) ring.push(base + i);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, base + i);
    }
  }
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(MpscRing, ManyProducersPreserveProducerOrder) {
  // Tiny capacity forces producers through the ring-full spin path and the
  // ticket counter through many wraparounds. Items encode (producer, seq);
  // the consumer checks each producer's stream arrives strictly in order
  // and that nothing is lost or duplicated.
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 5000;
  MpscRing<std::uint64_t> ring(16);

  std::vector<std::thread> producers;
  std::atomic<bool> go{false};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, &go, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i)
        ring.push((static_cast<std::uint64_t>(p) << 32) |
                  static_cast<std::uint32_t>(i));
    });
  }
  go.store(true, std::memory_order_release);

  std::vector<std::uint32_t> next_expected(kProducers, 0);
  int received = 0;
  while (received < kProducers * kPerProducer) {
    std::uint64_t item = 0;
    if (!ring.try_pop(item)) {
      std::this_thread::yield();
      continue;
    }
    const auto p = static_cast<int>(item >> 32);
    const auto seq = static_cast<std::uint32_t>(item);
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(seq, next_expected[p]) << "producer " << p << " reordered";
    ++next_expected[p];
    ++received;
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_expected[p], kPerProducer);
  std::uint64_t leftover = 0;
  EXPECT_FALSE(ring.try_pop(leftover));
}

TEST(MpscRing, PopReleasesPayload) {
  // Popped slots must not keep closures (and their captures) alive until the
  // slot is overwritten a lap later.
  auto held = std::make_shared<int>(7);
  std::weak_ptr<int> observer = held;
  MpscRing<std::shared_ptr<int>> ring(8);
  ring.push(std::move(held));
  std::shared_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_NE(out, nullptr);
  out.reset();
  EXPECT_TRUE(observer.expired()) << "ring slot still owns the payload";
}

TEST(MpscRingWorker, ProducersRacingShutdownNeverLoseAcceptedWork) {
  // The Worker-level contract under the lock-free path: every submit() that
  // returns (did not throw) executes exactly once, even when shutdown()
  // lands in the middle of a multi-producer burst; every submit() after
  // shutdown is observed throws. Varying the shutdown delay sweeps the race
  // window across the accept-check/publish/doorbell sequence.
  constexpr int kProducers = 6;
  for (int round = 0; round < 8; ++round) {
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> completions{0};
    std::atomic<std::uint64_t> accepted{0};
    {
      Worker w(
          0, Policy::kTfEdf, 1, [] { return 0.0; },
          [&](ServerId, const RuntimeTask&, TimeMs, TimeMs, bool) {
            ++completions;
          });
      std::atomic<bool> go{false};
      std::vector<std::thread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&] {
          while (!go.load(std::memory_order_acquire))
            std::this_thread::yield();
          for (int i = 0; i < 2000; ++i) {
            RuntimeTask task;
            task.work = [&executed] {
              executed.fetch_add(1, std::memory_order_relaxed);
            };
            try {
              w.submit(std::move(task), 0.0, static_cast<TimeMs>(i % 7));
            } catch (const CheckFailure&) {
              return;  // shutdown won; every later submit would throw too
            }
            accepted.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      go.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      w.shutdown();
      for (auto& t : producers) t.join();
      EXPECT_THROW(
          {
            RuntimeTask late;
            w.submit(std::move(late), 0.0, 0.0);
          },
          CheckFailure);
    }  // ~Worker drains everything accepted, then joins
    EXPECT_EQ(executed.load(), accepted.load()) << "round " << round;
    EXPECT_EQ(completions.load(), accepted.load()) << "round " << round;
  }
}

TEST(MpscRingWorker, BurstBeyondRingCapacityAllExecuted) {
  // More in-flight submissions than kRingCapacity (1024): producers must
  // ride the ring-full spin path while the consumer is also busy executing,
  // and still nothing is lost. The first task blocks the worker so the
  // backlog genuinely exceeds the ring before draining resumes.
  std::atomic<std::uint64_t> executed{0};
  std::atomic<bool> release_gate{false};
  {
    Worker w(
        0, Policy::kFifo, 1, [] { return 0.0; },
        [](ServerId, const RuntimeTask&, TimeMs, TimeMs, bool) {});
    RuntimeTask gate;
    gate.work = [&release_gate] {
      while (!release_gate.load(std::memory_order_acquire))
        std::this_thread::yield();
    };
    w.submit(std::move(gate), 0.0, 0.0);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 800;  // 3200 > kRingCapacity
    std::vector<std::thread> producers;
    for (int p = 0; p < kThreads; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          RuntimeTask task;
          task.work = [&executed] {
            executed.fetch_add(1, std::memory_order_relaxed);
          };
          w.submit(std::move(task), 0.0, 0.0);
        }
      });
    }
    release_gate.store(true, std::memory_order_release);
    for (auto& t : producers) t.join();
  }  // ~Worker drains
  EXPECT_EQ(executed.load(), 4 * 800);
}

}  // namespace
}  // namespace tailguard
