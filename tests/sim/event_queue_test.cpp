// EventQueue unit + differential tests.
//
// The pop order (at, seq) is a strict total order, so the timing wheel and
// the binary heap must produce bit-identical pop sequences for any legal
// push/pop interleaving ("legal" = never push before the time of the last
// pop, which is what the engine guarantees). The differential tests drive
// both structures with the same randomized-but-seeded operation streams and
// demand equality; the directed tests pin down the wheel's edge cases
// (slot/level boundaries, cascades into partially filled slots, the overflow
// heap, seq tie-breaks across a cascade splice).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace gdrshmem::sim {
namespace {

EventQueue::Entry entry(std::int64_t at_ns, std::uint64_t seq) {
  return EventQueue::Entry{Time::zero() + Duration::ns(at_ns), seq,
                           static_cast<std::uint32_t>(seq & 0xffffffffu)};
}

/// Push `entries` into both structures in order, then pop everything and
/// compare the full sequences element-wise.
void expect_identical_drain(const std::vector<EventQueue::Entry>& entries) {
  EventQueue heap(QueueKind::kHeap);
  EventQueue wheel(QueueKind::kWheel);
  for (const auto& e : entries) {
    heap.push(e);
    wheel.push(e);
  }
  ASSERT_EQ(heap.size(), wheel.size());
  std::size_t i = 0;
  while (!heap.empty()) {
    EventQueue::Entry h = heap.pop();
    EventQueue::Entry w = wheel.pop();
    ASSERT_EQ(h.at.count_ns(), w.at.count_ns()) << "pop #" << i;
    ASSERT_EQ(h.seq, w.seq) << "pop #" << i;
    ASSERT_EQ(h.slot, w.slot) << "pop #" << i;
    ++i;
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(EventQueue, EngineDefaultsToWheel) {
  // The heap is selected only in code; the environment has no say.
  ::setenv("GDRSHMEM_SIM_QUEUE", "heap", 1);
  EXPECT_EQ(QueueKind::kWheel, Engine().queue_kind());
  ::unsetenv("GDRSHMEM_SIM_QUEUE");
  const Engine heap(BackendKind::kFibers, QueueKind::kHeap);
  EXPECT_EQ(QueueKind::kHeap, heap.queue_kind());
  EXPECT_STREQ("heap", to_string(QueueKind::kHeap));
  EXPECT_STREQ("wheel", to_string(QueueKind::kWheel));
}

TEST(EventQueue, PopsInTimeThenSeqOrder) {
  for (QueueKind kind : {QueueKind::kHeap, QueueKind::kWheel}) {
    EventQueue q(kind);
    q.push(entry(50, 0));
    q.push(entry(10, 1));
    q.push(entry(10, 2));
    q.push(entry(0, 3));
    EXPECT_EQ(4u, q.size());
    EXPECT_EQ(3u, q.pop().seq);   // t=0
    EXPECT_EQ(1u, q.pop().seq);   // t=10, seq ties broken by seq
    EXPECT_EQ(2u, q.pop().seq);
    EXPECT_EQ(0u, q.pop().seq);   // t=50
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, SlotAndLevelBoundaries) {
  // Times straddling every level boundary: 63|64, 4095|4096, 64^2..64^5,
  // plus the exact wheel horizon where entries spill into the overflow heap.
  std::vector<EventQueue::Entry> es;
  std::uint64_t seq = 0;
  for (int level = 0; level < 7; ++level) {
    const std::int64_t edge = std::int64_t{1} << (6 * level);
    es.push_back(entry(edge - 1, seq++));
    es.push_back(entry(edge, seq++));
    es.push_back(entry(edge + 1, seq++));
  }
  expect_identical_drain(es);
}

TEST(EventQueue, OverflowBeyondWheelHorizon) {
  // 2^36 ns past zero is outside the wheel; these must come back in order
  // interleaved correctly with near-term entries.
  std::vector<EventQueue::Entry> es = {
      entry((std::int64_t{1} << 36) + 5, 0),
      entry(3, 1),
      entry((std::int64_t{1} << 40), 2),
      entry((std::int64_t{1} << 36) + 5, 3),  // same time as seq 0
      entry(0, 4),
  };
  expect_identical_drain(es);
}

TEST(EventQueue, CascadeWithInterleavedPushes) {
  // Entries at one far time land at level >= 1, the wheel advances via pops,
  // later same-time pushes land at lower levels, and a cascade finally
  // merges both populations into level 0. (The slot re-sort path in the
  // wheel is a defensive net: cascaded entries always carry older seqs than
  // any direct push made after cur advanced, so slots arrive seq-sorted —
  // this test pins the merge order either way, against the heap.)
  EventQueue heap(QueueKind::kHeap);
  EventQueue wheel(QueueKind::kWheel);
  for (auto* q : {&heap, &wheel}) {
    q->push(entry(70, 0));   // level 1 from cur=0
    q->push(entry(10, 4));   // level 0
  }
  ASSERT_EQ(4u, heap.pop().seq);
  ASSERT_EQ(4u, wheel.pop().seq);  // cur -> 10
  for (auto* q : {&heap, &wheel}) {
    q->push(entry(70, 5));   // still level 1 (crosses the 64 boundary)
    q->push(entry(70, 6));
    q->push(entry(65, 7));   // same level-1 slot, earlier time
  }
  // Draining forces the cascade of slot [64,128) holding two timestamps and
  // four entries; pops must interleave them identically to the heap.
  for (int i = 0; i < 4; ++i) {
    EventQueue::Entry h = heap.pop();
    EventQueue::Entry w = wheel.pop();
    EXPECT_EQ(h.at.count_ns(), w.at.count_ns()) << "pop " << i;
    EXPECT_EQ(h.seq, w.seq) << "pop " << i;
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_TRUE(wheel.empty());
}

TEST(EventQueue, DifferentialRandomizedInterleaving) {
  // Seeded random push/pop streams, including same-time bursts (the barrier
  // pattern), zero-delay pushes, and far-future outliers. Any divergence in
  // pop order between the two structures fails the run.
  for (std::uint32_t seed : {1u, 7u, 42u, 1234u}) {
    std::mt19937 rng(seed);
    EventQueue heap(QueueKind::kHeap);
    EventQueue wheel(QueueKind::kWheel);
    std::int64_t now = 0;
    std::uint64_t seq = 0;
    std::uniform_int_distribution<int> op(0, 99);
    std::uniform_int_distribution<std::int64_t> small(0, 200);
    std::uniform_int_distribution<std::int64_t> medium(0, 1 << 20);
    std::uniform_int_distribution<std::int64_t> huge(std::int64_t{1} << 36,
                                                     std::int64_t{1} << 44);
    for (int step = 0; step < 20000; ++step) {
      const int r = op(rng);
      if (r < 55 || heap.empty()) {
        std::int64_t at = now;
        if (r < 25) {
          at += small(rng);
        } else if (r < 50) {
          at += medium(rng);
        } else if (r < 52) {
          at += huge(rng);  // overflow-heap territory
        }  // else: exactly `now` (same-time burst)
        EventQueue::Entry e = entry(at, seq++);
        heap.push(e);
        wheel.push(e);
      } else {
        EventQueue::Entry h = heap.pop();
        EventQueue::Entry w = wheel.pop();
        ASSERT_EQ(h.at.count_ns(), w.at.count_ns())
            << "seed " << seed << " step " << step;
        ASSERT_EQ(h.seq, w.seq) << "seed " << seed << " step " << step;
        ASSERT_GE(h.at.count_ns(), now) << "time went backwards";
        now = h.at.count_ns();
      }
    }
    while (!heap.empty()) {
      EventQueue::Entry h = heap.pop();
      EventQueue::Entry w = wheel.pop();
      ASSERT_EQ(h.at.count_ns(), w.at.count_ns()) << "seed " << seed;
      ASSERT_EQ(h.seq, w.seq) << "seed " << seed;
    }
    EXPECT_TRUE(wheel.empty());
  }
}

TEST(EventQueue, BarrierBurstAtOneTimestamp) {
  // 16K entries at a single instant — the N-PE barrier-release shape the
  // wheel's per-slot vectors are designed for.
  std::vector<EventQueue::Entry> es;
  for (std::uint64_t s = 0; s < 16384; ++s) es.push_back(entry(1000, s));
  expect_identical_drain(es);
}

TEST(EventQueue, HwmAndReleaseRetained) {
  EventQueue q(QueueKind::kWheel);
  for (std::uint64_t s = 0; s < 4096; ++s) q.push(entry(64, s));
  EXPECT_EQ(4096u, q.size_hwm());
  EXPECT_GE(q.retained_bytes(), 4096 * sizeof(EventQueue::Entry));
  while (!q.empty()) q.pop();
  EXPECT_EQ(4096u, q.size_hwm()) << "HWM must be sticky";
  // Drained slot vectors keep their capacity until release is requested.
  EXPECT_GE(q.retained_bytes(), 4096 * sizeof(EventQueue::Entry));
  q.release_retained();
  EXPECT_EQ(0u, q.retained_bytes());
  EXPECT_EQ(4096u, q.size_hwm());
  // The queue stays usable after a release.
  q.push(entry(100, 9999));
  EXPECT_EQ(9999u, q.pop().seq);
}

}  // namespace
}  // namespace gdrshmem::sim
