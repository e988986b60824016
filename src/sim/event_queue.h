// The simulator's future-event set (sim/simulator.cc). Internal to the
// simulator; it has its own header so tests can drive both layouts
// directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.h"
#include "core/types.h"

namespace tailguard::sim_internal {

// 16 bytes: the discriminant fields are packed into one integer whose
// numeric order equals the old lexicographic (kind, server, payload) order,
// so a tie on `time` is broken by a single compare and a heap move copies
// two words. Arrivals are not Events at all — they come from a
// time-monotone generator that the main loop merges with the queue (an
// arrival wins time ties because every queued kind is > kArrival's 0).
struct Event {
  TimeMs time = 0.0;
  std::uint64_t key = 0;  // kind << 62 | server << 32 | payload

  enum Kind : std::uint8_t {
    kTaskEnqueue = 1,    // task reaches its server after dispatch delay
    kTaskDone = 2,       // server finishes its current task
    kResultArrival = 3,  // result reaches the query handler
  };

  Event() = default;
  Event(TimeMs t, Kind k, ServerId server, std::uint32_t payload = 0)
      : time(t),
        key((std::uint64_t{k} << 62) | (std::uint64_t{server} << 32) |
            payload) {
    TG_DCHECK(server < (1u << 30));
  }

  Kind kind() const { return static_cast<Kind>(key >> 62); }
  ServerId server() const {
    return static_cast<ServerId>((key >> 32) & ((1u << 30) - 1));
  }
  std::uint32_t payload() const { return static_cast<std::uint32_t>(key); }

  // Min-heap ordering; the packed key breaks time ties deterministically.
  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.key > b.key;
  }
};

// The future event set. Two layouts, both yielding the identical event
// sequence (exact (time, key) order). The constructor picks one from the
// run; nothing else selects it:
//
//   * dense — whenever the run has no network model. Then every event is a
//     kTaskDone and a server has at most one outstanding, so the event set
//     is just "completion time per busy server": push is a store plus an
//     argmin update, pop rescans one 8-server block and the block minima.
//     O(num_servers/8) beats a tree because the whole structure is a few
//     flat cache lines.
//   * heap — binary heap, the general-purpose layout (network-model runs,
//     where enqueue and result events share the set with completions).
//
// Known defect: the SSE2 rescan gathers one bit per block into a 64-bit
// mask, so a dense set of more than 64 blocks (> 512 servers) shifts by
// >= 64, which is undefined behaviour and in practice pops the wrong server.
class EventQueue {
 public:
  static constexpr double kIdle = std::numeric_limits<double>::infinity();

  /// `dense_servers` > 0 marks the run dense-eligible (every event will be
  /// a kTaskDone with payload 0) with that many servers and selects the
  /// dense layout; 0 selects the heap, sized for `expected` events.
  EventQueue(std::size_t expected, std::size_t dense_servers)
      : mode_(dense_servers == 0 ? Mode::kHeap : Mode::kDense) {
    if (mode_ == Mode::kDense) {
      const std::size_t padded = (dense_servers + kBlock - 1) & ~(kBlock - 1);
      done_.assign(padded, kIdle);
      // Rounded up to an even count (any extra entry pinned at kIdle) so
      // the SSE2 rescan can always load block minima two at a time.
      block_min_.assign((padded / kBlock + 1) & ~std::size_t{1}, kIdle);
    } else {
      heap_.reserve(expected);
    }
  }

  void push(const Event& e) {
    if (mode_ == Mode::kDense) {
      TG_DCHECK(e.kind() == Event::kTaskDone && e.payload() == 0);
      const std::uint32_t sid = e.server();
      TG_DCHECK(done_[sid] == kIdle);
      done_[sid] = e.time;
      if (e.time < block_min_[sid / kBlock]) block_min_[sid / kBlock] = e.time;
      if (count_ == 0 || e.time < min_time_ ||
          (e.time == min_time_ && sid < min_idx_)) {
        min_time_ = e.time;
        min_idx_ = sid;
      }
      ++count_;
    } else {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  }

  Event pop() {
    if (mode_ == Mode::kDense) {
      const Event out(min_time_, Event::kTaskDone, min_idx_);
      done_[min_idx_] = kIdle;
      --count_;
      refresh_block(min_idx_ / kBlock);
      if (count_ != 0) rescan();
      return out;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
  }

  bool empty() const {
    return mode_ == Mode::kDense ? count_ == 0 : heap_.empty();
  }

  /// Time of the event pop() would return. Precondition: !empty().
  TimeMs peek_time() const {
    return mode_ == Mode::kDense ? min_time_ : heap_.front().time;
  }

 private:
  enum class Mode : std::uint8_t { kDense, kHeap };
  static constexpr std::size_t kBlock = 8;  // one cache line of doubles

  void refresh_block(std::size_t b) {
    const double* base = done_.data() + b * kBlock;
#if defined(__SSE2__)
    // Pairwise min reduction. minpd is the exact IEEE minimum and min is
    // order-independent (no NaNs here), so this equals the scalar scan.
    const __m128d m01 = _mm_min_pd(_mm_loadu_pd(base), _mm_loadu_pd(base + 2));
    const __m128d m23 =
        _mm_min_pd(_mm_loadu_pd(base + 4), _mm_loadu_pd(base + 6));
    const __m128d m = _mm_min_pd(m01, m23);
    block_min_[b] = _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
#else
    double m = kIdle;
    for (std::size_t i = 0; i < kBlock; ++i) m = std::min(m, base[i]);
    block_min_[b] = m;
#endif
  }

  // First minimal block, then the first minimal server inside it — exactly
  // the old (time, kind, server) tie order since dense events differ only in
  // server id. The SSE2 path keeps that order via two exact passes: reduce
  // to the minimum value, then take the first index comparing equal (cmpeq
  // ties resolve to the lowest lane, same as the scalar strict-< scan).
  void rescan() {
#if defined(__SSE2__)
    const double* bm = block_min_.data();
    const std::size_t nb = block_min_.size();  // even by construction
    // Two independent accumulator chains hide the minpd latency.
    __m128d acc0 = _mm_loadu_pd(bm);
    __m128d acc1 = _mm_set1_pd(kIdle);
    std::size_t b = 2;
    for (; b + 2 <= nb; b += 4) {
      acc1 = _mm_min_pd(acc1, _mm_loadu_pd(bm + b));
      if (b + 4 <= nb) acc0 = _mm_min_pd(acc0, _mm_loadu_pd(bm + b + 2));
    }
    const __m128d acc = _mm_min_pd(acc0, acc1);
    const double m =
        _mm_cvtsd_f64(_mm_min_sd(acc, _mm_unpackhi_pd(acc, acc)));
    // Branchless first-equal scan: accumulate the per-pair cmpeq masks into
    // one bitmask and take its lowest set bit. count_ != 0 here, so
    // m < kIdle and the kIdle padding can never match.
    const __m128d mv = _mm_set1_pd(m);
    std::uint64_t mask = 0;
    for (std::size_t p = 0; p < nb; p += 2)
      mask |= static_cast<std::uint64_t>(_mm_movemask_pd(
                  _mm_cmpeq_pd(_mm_loadu_pd(bm + p), mv)))
              << p;
    const std::size_t best =
        static_cast<std::size_t>(__builtin_ctzll(mask));
    const double* base = done_.data() + best * kBlock;
    std::uint64_t bmask = 0;
    for (std::size_t i = 0; i < kBlock; i += 2)
      bmask |= static_cast<std::uint64_t>(_mm_movemask_pd(
                   _mm_cmpeq_pd(_mm_loadu_pd(base + i), mv)))
               << i;
    const std::size_t off =
        static_cast<std::size_t>(__builtin_ctzll(bmask));
    min_time_ = m;
    min_idx_ = static_cast<std::uint32_t>(best * kBlock + off);
#else
    std::size_t best = 0;
    for (std::size_t b = 1; b < block_min_.size(); ++b)
      if (block_min_[b] < block_min_[best]) best = b;
    const double* base = done_.data() + best * kBlock;
    std::size_t off = 0;
    for (std::size_t i = 1; i < kBlock; ++i)
      if (base[i] < base[off]) off = i;
    min_time_ = base[off];
    min_idx_ = static_cast<std::uint32_t>(best * kBlock + off);
#endif
  }

  Mode mode_;
  // dense state
  std::vector<double> done_;       // completion time per server, kIdle if none
  std::vector<double> block_min_;  // min of each kBlock-server block
  std::size_t count_ = 0;
  double min_time_ = kIdle;
  std::uint32_t min_idx_ = 0;
  // heap state
  std::vector<Event> heap_;  // min-heap via std::greater (operator>)
};

}  // namespace tailguard::sim_internal
