// Pending-event priority queue for the virtual-time engine.
//
// The engine pops events in the strict total order (at, seq): earliest
// virtual time first, scheduling order within a time. Because that order is
// total, *any* correct priority queue produces the exact same pop sequence —
// so the data structure is swappable without touching the determinism
// contract. Two implementations live behind `QueueKind`:
//
//   * heap  — explicit binary min-heap. O(log n) push/pop where n is the
//             number of pending events; n grows with the PE count, so at
//             4K-16K PEs every push/pop walks a ~12-14 level sift path. Kept
//             as the differential-testing reference, selected only in code.
//   * wheel — hierarchical timing wheel (Varghese & Lauck): 6 levels of 64
//             slots each, one uint64 occupancy bitmap per level. Level g has
//             granularity 64^g ns, so the wheel spans 64^6 ns (~68 s) of
//             virtual time beyond the current instant; events scheduled
//             farther out land in an overflow binary heap and are compared
//             against the wheel head at pop time, which keeps arbitrary
//             far-future timers correct. Push and pop are amortized O(1).
//             Default.
//
// Why pops stay bit-identical to the heap (sketch; see DESIGN.md for the
// full argument):
//   * an event's level is the lowest g where `at` and the wheel's current
//     time agree on all bits >= 6(g+1). Entries in one level therefore share
//     their high bits with `cur`, so slot indices never wrap and
//     countr_zero(bitmap) finds the earliest slot directly;
//   * a level-0 slot holds exactly one timestamp; within it, entries are
//     drained in ascending seq (direct pushes arrive seq-ordered; a cascade
//     can splice older seqs in, which marks the slot for one re-sort);
//   * the overflow heap is itself (at, seq)-ordered and its top is compared
//     against the wheel minimum on every pop, with (at, seq) deciding.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace gdrshmem::sim {

enum class QueueKind { kHeap, kWheel };

const char* to_string(QueueKind k);

class EventQueue {
 public:
  /// A pending event: ordering key (at, seq) plus the engine's callback-slot
  /// index. 24 bytes, so slot vectors and sift paths stay cache-friendly.
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool sooner(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  explicit EventQueue(QueueKind kind);

  QueueKind kind() const { return kind_; }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Insert an event. `e.at` must be >= the time of the last pop (the engine
  /// already enforces "no scheduling in the past").
  void push(Entry e);

  /// Remove and return the pending event with the smallest (at, seq).
  /// Precondition: !empty().
  Entry pop();

  // ---- retained-capacity bookkeeping --------------------------------------
  // Burst workloads (a 16K-PE barrier release) grow the internal vectors;
  // without intervention that capacity is retained for the life of the
  // engine. The high-water mark is tracked for the metrics registry and
  // release() drops the excess once the queue is quiescent.

  /// Largest number of simultaneously pending events ever observed.
  std::size_t size_hwm() const { return size_hwm_; }
  /// Bytes currently retained by internal storage (capacity, not size).
  std::size_t retained_bytes() const;
  /// Shrink internal storage to fit the current contents. Intended to be
  /// called at quiescence (empty queue); safe at any time.
  void release_retained();

 private:
  // Wheel geometry: 6 levels x 64 slots; level g covers bits
  // [6g, 6(g+1)) of the event time.
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;     // 64
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  static constexpr int kLevels = 6;
  static constexpr int kWheelBits = kSlotBits * kLevels;  // 36

  struct Level {
    std::array<std::vector<Entry>, kSlots> slots;
    std::uint64_t occupied = 0;
  };

  void heap_push(Entry e);
  Entry heap_pop_top(std::vector<Entry>& heap);

  void wheel_push(Entry e);
  Entry wheel_pop();
  /// Place `e` into the level/slot implied by (e.at, cur_ns_). Precondition:
  /// e.at differs from cur_ns_ only in the low kWheelBits bits.
  void wheel_place(Entry e);

  QueueKind kind_;
  std::size_t size_ = 0;
  std::size_t size_hwm_ = 0;

  // heap mode storage (also the overflow heap in wheel mode).
  std::vector<Entry> heap_;

  // wheel mode storage.
  std::int64_t cur_ns_ = 0;  ///< wheel time: time of the last pop (ns)
  std::array<Level, kLevels> levels_;
  std::array<std::uint32_t, kSlots> head0_{};  ///< level-0 per-slot drain cursor
  std::uint64_t unsorted0_ = 0;  ///< level-0 slots needing a seq re-sort
};

}  // namespace gdrshmem::sim
