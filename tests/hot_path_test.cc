// Hot-path contracts of the simulator event loop:
//
//  * No steady-state mallocs: this binary overrides global operator new with
//    a counting wrapper and installs it as the common/alloc_probe.h hook, so
//    SimResult::event_loop_allocs reports real allocation counts. The loop's
//    structures are slab-pooled and pre-reserved, so the count must not
//    scale with the query count (amortized vector doublings only).
//  * The future-event set's two layouts (dense / heap) pop the same
//    (time, server) sequence for the same stream of completions, and a
//    run's batched same-timestamp completion draining is repeatable: the
//    results of repeated runs are bit-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/alloc_probe.h"
#include "common/rng.h"
#include "dist/standard.h"
#include "sim/event_queue.h"
#include "sim/experiment.h"
#include "sim/simulator.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tailguard {
namespace {

std::uint64_t news_count() {
  return g_news.load(std::memory_order_relaxed);
}

struct ProbeInstaller {
  ProbeInstaller() { set_alloc_count_fn(&news_count); }
} g_installer;

SimConfig hot_config(std::size_t num_queries, std::uint64_t seed) {
  SimConfig cfg;
  cfg.num_servers = 20;
  cfg.policy = Policy::kTfEdf;
  cfg.classes = {{.slo_ms = 10.0, .percentile = 99.0}};
  cfg.fanout = std::make_shared<CategoricalFanout>(
      std::vector<std::uint32_t>{1, 4, 16},
      std::vector<double>{0.6, 0.3, 0.1});
  cfg.service_time = std::make_shared<Exponential>(1.0);
  cfg.num_queries = num_queries;
  cfg.seed = seed;
  return cfg;
}

/// Bit-exact fingerprint of everything a result reports; any scheduling
/// difference between two runs lands in at least the latency fields.
std::uint64_t fingerprint(const SimResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  const auto mix_d = [&](double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(r.queries_offered);
  mix(r.queries_admitted);
  mix(r.tasks_admitted);
  mix_d(r.task_deadline_miss_ratio);
  mix_d(r.measured_utilization);
  mix_d(r.end_time);
  for (const auto& g : r.groups) {
    mix(g.cls);
    mix(g.fanout);
    mix(g.queries);
    mix_d(g.tail_latency_ms);
    mix_d(g.mean_latency_ms);
  }
  for (double u : r.server_utilization) mix_d(u);
  return h;
}

TEST(HotPathAlloc, ProbeCountsThisBinarysAllocations) {
  const std::uint64_t before = alloc_count();
  auto* sink = new std::vector<int>(16);
  delete sink;
  EXPECT_GT(alloc_count(), before);
}

TEST(HotPathAlloc, EventLoopAllocsDoNotScaleWithQueries) {
  SimConfig small = hot_config(10000, 3);
  set_load(small, 0.7);
  SimConfig big = hot_config(40000, 3);
  set_load(big, 0.7);
  const SimResult rs = run_simulation(small);
  const SimResult rb = run_simulation(big);
  // The loop processes ~3 events per query; per-event allocation would put
  // these counts in the tens of thousands and make the big run ~4x the
  // small one. Pre-reserved slabs leave only warmup-sized noise: amortized
  // doublings of under-estimated vectors, O(log n) of them.
  EXPECT_LT(rb.event_loop_allocs, 256u) << "event loop allocates per event";
  EXPECT_LT(rb.event_loop_allocs, rs.event_loop_allocs + 128u)
      << "event-loop allocations scale with the query count";
}

TEST(HotPathAlloc, NoHookMeansZeroReported) {
  set_alloc_count_fn(nullptr);
  SimConfig cfg = hot_config(2000, 5);
  set_load(cfg, 0.5);
  const SimResult r = run_simulation(cfg);
  EXPECT_EQ(r.event_loop_allocs, 0u);
  set_alloc_count_fn(&news_count);
}

// Drives a dense-layout and a heap-layout EventQueue with one randomized
// stream of completions — at most one pending per server, many equal times,
// pops interleaved with pushes — and requires identical (time, server) pops
// and identical peek_time/empty after every operation. 20 is hot_config's
// server count; the others are not multiples of the 8-server block, so the
// kIdle padding is covered. The counts stop at 512 on purpose: above 512
// servers the dense rescan shifts its 64-bit block mask by >= 64, a known
// defect recorded in ROADMAP.md that this test does not cover.
TEST(EventQueueLayouts, DenseAndHeapPopIdenticalSequences) {
  using sim_internal::Event;
  using sim_internal::EventQueue;
  for (const std::size_t servers : {20, 1, 7, 13, 100, 509, 512}) {
    EventQueue dense(0, servers);
    EventQueue heap(servers, 0);
    std::vector<bool> pending(servers, false);
    std::vector<ServerId> idle;
    Rng rng(servers);
    TimeMs now = 0.0;
    for (int step = 0; step < 20000; ++step) {
      idle.clear();
      for (std::size_t s = 0; s < servers; ++s)
        if (!pending[s]) idle.push_back(static_cast<ServerId>(s));
      if (!idle.empty() && (dense.empty() || rng.bernoulli(0.55))) {
        const ServerId sid = idle[rng.uniform_index(idle.size())];
        // Quarter-ms grid a few steps ahead: equal times are common.
        const TimeMs t =
            now + 0.25 * static_cast<double>(rng.uniform_index(4));
        dense.push(Event(t, Event::kTaskDone, sid));
        heap.push(Event(t, Event::kTaskDone, sid));
        pending[sid] = true;
      } else {
        const Event a = dense.pop();
        const Event b = heap.pop();
        ASSERT_EQ(a.time, b.time) << servers << " servers, step " << step;
        ASSERT_EQ(a.server(), b.server())
            << servers << " servers, step " << step;
        ASSERT_GE(a.time, now);
        pending[a.server()] = false;
        now = a.time;
      }
      ASSERT_EQ(dense.empty(), heap.empty());
      if (!dense.empty()) {
        ASSERT_EQ(dense.peek_time(), heap.peek_time());
      }
    }
  }
}

// Batched same-timestamp draining must be repeatable: for randomized seeds
// and loads, rerunning a config reproduces its result bit for bit, on the
// dense layout (no network model) and on the heap (with one).
TEST(BatchedCompletionParity, RepeatedRunsBitIdentical) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 13ULL}) {
    for (const double load : {0.3, 0.7, 0.95}) {
      for (const bool network : {false, true}) {
        SimConfig cfg = hot_config(8000, seed);
        if (network) {
          cfg.dispatch_delay_ms = std::make_shared<Deterministic>(0.05);
          cfg.result_delay_ms = std::make_shared<Deterministic>(0.05);
        }
        set_load(cfg, load);
        EXPECT_EQ(fingerprint(run_simulation(cfg)),
                  fingerprint(run_simulation(cfg)))
            << "seed " << seed << " load " << load << " network " << network;
      }
    }
  }
}

}  // namespace
}  // namespace tailguard
