#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace gdrshmem::sim {

const char* to_string(QueueKind k) {
  return k == QueueKind::kHeap ? "heap" : "wheel";
}

EventQueue::EventQueue(QueueKind kind) : kind_(kind) {}

// ---------------------------------------------------------------------------
// Binary heap (heap mode, and the wheel's far-future overflow)

void EventQueue::heap_push(Entry e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (!sooner(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

EventQueue::Entry EventQueue::heap_pop_top(std::vector<Entry>& heap) {
  assert(!heap.empty());
  Entry top = heap.front();
  heap.front() = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size();
  std::size_t i = 0;
  while (true) {
    std::size_t l = 2 * i + 1;
    std::size_t m = i;
    if (l < n && sooner(heap[l], heap[m])) m = l;
    if (l + 1 < n && sooner(heap[l + 1], heap[m])) m = l + 1;
    if (m == i) break;
    std::swap(heap[i], heap[m]);
    i = m;
  }
  return top;
}

// ---------------------------------------------------------------------------
// Hierarchical timing wheel

void EventQueue::wheel_place(Entry e) {
  const std::int64_t at = e.at.count_ns();
  const std::uint64_t diff = static_cast<std::uint64_t>(at ^ cur_ns_);
  assert((diff >> kWheelBits) == 0 && "entry outside the wheel horizon");
  const int g = diff == 0 ? 0 : (std::bit_width(diff) - 1) / kSlotBits;
  const auto idx = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(at) >> (kSlotBits * g)) & kSlotMask);
  std::vector<Entry>& v = levels_[static_cast<std::size_t>(g)].slots[idx];
  // A cascade can splice an entry with an older seq behind newer direct
  // pushes; mark the level-0 slot so the first pop from it re-sorts by seq.
  if (g == 0 && !v.empty() && v.back().seq > e.seq) {
    unsorted0_ |= std::uint64_t{1} << idx;
  }
  v.push_back(e);
  levels_[static_cast<std::size_t>(g)].occupied |= std::uint64_t{1} << idx;
}

void EventQueue::wheel_push(Entry e) {
  const std::uint64_t diff =
      static_cast<std::uint64_t>(e.at.count_ns() ^ cur_ns_);
  if ((diff >> kWheelBits) != 0) {
    heap_push(e);  // beyond the wheel horizon: overflow heap
  } else {
    wheel_place(e);
  }
}

EventQueue::Entry EventQueue::wheel_pop() {
  while (levels_[0].occupied == 0) {
    // Level 0 is dry: either the minimum lives in the overflow heap, or a
    // higher wheel level must cascade one slot down. The overflow check must
    // precede *every* cascade step — advancing the wheel's current time past
    // the overflow minimum would misplace later pushes.
    int g = 0;
    for (int l = 1; l < kLevels; ++l) {
      if (levels_[static_cast<std::size_t>(l)].occupied != 0) {
        g = l;
        break;
      }
    }
    if (g == 0) {
      // Wheel empty: the overflow heap owns the minimum.
      Entry top = heap_pop_top(heap_);
      cur_ns_ = top.at.count_ns();
      --size_;
      return top;
    }
    Level& lev = levels_[static_cast<std::size_t>(g)];
    const auto idx = static_cast<std::size_t>(std::countr_zero(lev.occupied));
    // Base virtual time of that slot: cur's bits above the level, the slot
    // index in the level's field, zero below. Every entry in the slot — and
    // every other wheel entry — is >= base.
    const std::int64_t span = std::int64_t{1} << (kSlotBits * (g + 1));
    const std::int64_t base =
        (cur_ns_ & ~(span - 1)) |
        (static_cast<std::int64_t>(idx) << (kSlotBits * g));
    if (!heap_.empty() && heap_[0].at.count_ns() < base) {
      // Overflow top beats everything still on the wheel. (A tie at `base`
      // would need the seq comparison below, hence `<`, not `<=`.)
      Entry top = heap_pop_top(heap_);
      cur_ns_ = top.at.count_ns();
      --size_;
      return top;
    }
    // Cascade one slot: entries land strictly below level g, so each entry
    // moves down at most kLevels times over its lifetime — amortized O(1).
    cur_ns_ = std::max(cur_ns_, base);
    lev.occupied &= ~(std::uint64_t{1} << idx);
    std::vector<Entry>& v = lev.slots[idx];
    for (const Entry& e : v) wheel_place(e);
    v.clear();
  }

  const auto idx =
      static_cast<std::size_t>(std::countr_zero(levels_[0].occupied));
  std::vector<Entry>& v = levels_[0].slots[idx];
  if (unsorted0_ & (std::uint64_t{1} << idx)) {
    assert(head0_[idx] == 0 && "cascade into a partially drained slot");
    std::sort(v.begin(), v.end(),
              [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
    unsorted0_ &= ~(std::uint64_t{1} << idx);
  }
  const Entry& wheel_min = v[head0_[idx]];
  if (!heap_.empty() && sooner(heap_[0], wheel_min)) {
    Entry top = heap_pop_top(heap_);
    cur_ns_ = top.at.count_ns();
    --size_;
    return top;
  }
  Entry out = wheel_min;
  if (++head0_[idx] == v.size()) {
    v.clear();  // keeps capacity for the next burst into this slot
    head0_[idx] = 0;
    levels_[0].occupied &= ~(std::uint64_t{1} << idx);
  }
  cur_ns_ = out.at.count_ns();
  --size_;
  return out;
}

// ---------------------------------------------------------------------------
// Public interface

void EventQueue::push(Entry e) {
  if (kind_ == QueueKind::kHeap) {
    heap_push(e);
  } else {
    assert(e.at.count_ns() >= cur_ns_ && "push before the wheel's current time");
    wheel_push(e);
  }
  ++size_;
  size_hwm_ = std::max(size_hwm_, size_);
}

EventQueue::Entry EventQueue::pop() {
  assert(size_ > 0);
  if (kind_ == QueueKind::kHeap) {
    --size_;
    return heap_pop_top(heap_);
  }
  return wheel_pop();
}

std::size_t EventQueue::retained_bytes() const {
  std::size_t cap = heap_.capacity();
  for (const Level& lev : levels_) {
    for (const std::vector<Entry>& v : lev.slots) cap += v.capacity();
  }
  return cap * sizeof(Entry);
}

void EventQueue::release_retained() {
  heap_.shrink_to_fit();
  for (Level& lev : levels_) {
    for (std::vector<Entry>& v : lev.slots) {
      if (v.empty()) {
        std::vector<Entry>().swap(v);
      } else {
        v.shrink_to_fit();
      }
    }
  }
}

}  // namespace gdrshmem::sim
