// Slab-backed maps for the per-task hot paths.
//
// Generalizes the storage scheme QueryTracker pioneered (dense index table,
// uint32_t slots, freelist-recycled entries) into two reusable primitives:
//
//  * SlabMap<T>     — keys drawn from an arithmetic id progression
//                     (start, start + stride, ...). A lookup is two array
//                     loads — (id - start) / stride into the slot table, the
//                     slot into the entry slab — never a hash probe. Erased
//                     entries recycle through a freelist, so resident memory
//                     is proportional to the live count plus 4 bytes per id
//                     ever inserted.
//  * SlabHashCache<T> — insert-only cache keyed by caller-supplied 64-bit
//                     keys, open-addressed: a power-of-two bucket table of
//                     uint32_t slots over a dense entry slab. clear() keeps
//                     every allocation, so steady-state refills (e.g. after a
//                     CDF-model version bump) cost zero mallocs.
//  * TicketSlab<T>  — values parked under the ticket (slot index) put()
//                     hands out; take() recycles it, last freed first.
//
// All are deterministic: SlabMap iterates live entries in id order
// regardless of the insert/erase history, SlabHashCache's layout depends
// only on the key sequence, and TicketSlab's tickets only on the put/take
// sequence. None shrinks; all expose reserve() so callers sizing from a
// known workload can pin capacity before a hot loop.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace tailguard {

template <typename T>
class SlabMap {
 public:
  SlabMap() = default;
  /// Keys must come from the progression start, start + stride, ... with
  /// stride >= 1 and start < stride (the QueryTracker id scheme).
  SlabMap(std::uint64_t id_start, std::uint64_t id_stride)
      : start_(id_start), stride_(id_stride) {
    TG_CHECK_MSG(id_stride >= 1, "id stride must be >= 1");
    TG_CHECK_MSG(id_start < id_stride, "id start must be < stride");
  }

  /// Pre-sizes for `ids` total ids ever inserted and `live` simultaneously
  /// live entries, so a hot loop within those bounds never reallocates.
  void reserve(std::size_t ids, std::size_t live) {
    slot_by_idx_.reserve(ids);
    slab_.reserve(live);
    free_slots_.reserve(live);
  }

  /// Inserts a default-constructed entry for `id` (which must not be live)
  /// and returns it. Ids may arrive in any order within the progression;
  /// gaps in the slot table are backfilled as absent.
  T& emplace(std::uint64_t id) {
    const std::uint64_t idx = index_of(id);
    if (idx >= slot_by_idx_.size()) slot_by_idx_.resize(idx + 1, kNoSlot);
    TG_DCHECK(slot_by_idx_[idx] == kNoSlot);
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slab_[slot] = T{};
    } else {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    }
    slot_by_idx_[idx] = slot;
    ++size_;
    return slab_[slot];
  }

  /// Pointer to the live entry for `id`, or nullptr.
  T* find(std::uint64_t id) {
    const std::uint32_t slot = slot_of(id);
    return slot == kNoSlot ? nullptr : &slab_[slot];
  }
  const T* find(std::uint64_t id) const {
    const std::uint32_t slot = slot_of(id);
    return slot == kNoSlot ? nullptr : &slab_[slot];
  }

  bool contains(std::uint64_t id) const { return slot_of(id) != kNoSlot; }

  /// Removes `id`'s entry, recycling its slot. Returns whether it was live.
  bool erase(std::uint64_t id) {
    const std::uint64_t idx = index_of(id);
    if (idx >= slot_by_idx_.size() || slot_by_idx_[idx] == kNoSlot)
      return false;
    free_slots_.push_back(slot_by_idx_[idx]);
    slot_by_idx_[idx] = kNoSlot;
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Forgets every entry and the id history (ids restart from the
  /// progression's beginning) while keeping all allocations — the arena
  /// reset between simulator runs.
  void clear() {
    slot_by_idx_.clear();
    free_slots_.clear();
    slab_.clear();
    size_ = 0;
  }

  /// Visits live entries as fn(id, T&) in ascending id order — deterministic
  /// for any insert/erase history over the same live set.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::uint64_t idx = 0; idx < slot_by_idx_.size(); ++idx)
      if (slot_by_idx_[idx] != kNoSlot)
        fn(start_ + idx * stride_, slab_[slot_by_idx_[idx]]);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint64_t idx = 0; idx < slot_by_idx_.size(); ++idx)
      if (slot_by_idx_[idx] != kNoSlot)
        fn(start_ + idx * stride_, slab_[slot_by_idx_[idx]]);
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  std::uint64_t index_of(std::uint64_t id) const {
    return stride_ == 1 ? id : (id - start_) / stride_;
  }

  std::uint32_t slot_of(std::uint64_t id) const {
    const std::uint64_t idx = index_of(id);
    return idx < slot_by_idx_.size() ? slot_by_idx_[idx] : kNoSlot;
  }

  std::vector<T> slab_;                    ///< slot -> entry (recycled)
  std::vector<std::uint32_t> slot_by_idx_; ///< index -> slot, kNoSlot if dead
  std::vector<std::uint32_t> free_slots_;
  std::size_t size_ = 0;
  std::uint64_t start_ = 0;
  std::uint64_t stride_ = 1;
};

template <typename T>
class SlabHashCache {
 public:
  /// Finalizer mixing the caller's key into the bucket index. Keys are often
  /// already hashes, but structured keys ((cls << 32) | fanout) must not
  /// alias under the power-of-two mask.
  static std::uint64_t mix(std::uint64_t key) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    return key;
  }

  T* find(std::uint64_t key) {
    if (entries_.empty()) return nullptr;
    const std::uint64_t mask = buckets_.size() - 1;
    for (std::uint64_t b = mix(key) & mask;; b = (b + 1) & mask) {
      const std::uint32_t slot = buckets_[b];
      if (slot == kNoSlot) return nullptr;
      if (entries_[slot].first == key) return &entries_[slot].second;
    }
  }

  /// Inserts key -> value; `key` must not be present.
  T& insert(std::uint64_t key, T value) {
    if (entries_.size() + 1 > (buckets_.size() * 7) / 10) grow();
    entries_.emplace_back(key, std::move(value));
    const std::uint32_t slot = static_cast<std::uint32_t>(entries_.size() - 1);
    place(key, slot);
    return entries_[slot].second;
  }

  std::size_t size() const { return entries_.size(); }

  /// Drops every entry but keeps the bucket table and entry slab capacity:
  /// the steady-state refill after a version bump allocates nothing.
  void clear() {
    entries_.clear();
    buckets_.assign(buckets_.size(), kNoSlot);
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::size_t kMinBuckets = 16;

  void place(std::uint64_t key, std::uint32_t slot) {
    const std::uint64_t mask = buckets_.size() - 1;
    std::uint64_t b = mix(key) & mask;
    while (buckets_[b] != kNoSlot) b = (b + 1) & mask;
    buckets_[b] = slot;
  }

  void grow() {
    const std::size_t want =
        buckets_.empty() ? kMinBuckets : buckets_.size() * 2;
    buckets_.assign(want, kNoSlot);
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(entries_.size()); ++slot)
      place(entries_[slot].first, slot);
  }

  std::vector<std::pair<std::uint64_t, T>> entries_;  ///< insertion order
  std::vector<std::uint32_t> buckets_;  ///< power-of-two open addressing
};

template <typename T>
class TicketSlab {
 public:
  void reserve(std::size_t n) {
    slots_.reserve(n);
    free_.reserve(n);
  }

  /// Parks `value` and returns its ticket.
  std::uint32_t put(T value) {
    if (free_.empty()) {
      slots_.push_back(std::move(value));
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t ticket = free_.back();
    free_.pop_back();
    slots_[ticket] = std::move(value);
    return ticket;
  }

  /// Moves the value parked under `ticket` out and recycles the ticket.
  T take(std::uint32_t ticket) {
    TG_DCHECK(ticket < slots_.size());
    free_.push_back(ticket);
    return std::move(slots_[ticket]);
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace tailguard
