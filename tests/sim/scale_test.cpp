// Engine behaviour at simulation scale (thousands of PEs).
//
// These tests run raw-engine workloads — no runtime, no transports — so 4K
// processes stay cheap enough for CI. They pin down the three scale-out
// mechanisms of the engine:
//   * the timing-wheel queue stays bit-identical to the heap per seed,
//   * the queue/slot-pool high-water marks reflect the O(PE) burst and the
//     capacity is dropped again at quiescence,
//   * fiber stacks are recycled through the pool instead of re-mmapped.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/stack_pool.hpp"
#include "sim/time.hpp"

namespace gdrshmem::sim {
namespace {

struct ScaleResult {
  std::uint64_t checksum = 0;  // order-sensitive digest of every observable step
  std::int64_t end_ns = 0;
  std::size_t queue_hwm = 0;

  bool operator==(const ScaleResult&) const = default;
};

/// A 3-round barrier + neighbour-exchange over `pes` processes with seeded
/// pseudo-random per-PE delays: the (at, seq) stream covers same-instant
/// bursts of the full PE count and scattered timestamps in between.
ScaleResult run_scaled(QueueKind queue, int pes, std::uint32_t seed) {
  ScaleResult out;
  Engine eng(BackendKind::kFibers, queue);
  Notification barrier;
  int waiting = 0;
  std::vector<std::int64_t> cells(static_cast<std::size_t>(pes), 0);

  for (int pe = 0; pe < pes; ++pe) {
    // Per-PE deterministic jitter; seeding by (seed, pe) keeps the schedule
    // independent of spawn order internals.
    std::mt19937 rng(seed ^ static_cast<std::uint32_t>(pe) * 2654435761u);
    std::uniform_int_distribution<int> jitter(0, 997);
    const int d0 = jitter(rng), d1 = jitter(rng), d2 = jitter(rng);
    eng.spawn("pe" + std::to_string(pe), [&, pe, d0, d1, d2](Process& p) {
      const auto me = static_cast<std::size_t>(pe);
      for (int round = 0; round < 3; ++round) {
        p.delay(Duration::ns(round == 0 ? d0 : round == 1 ? d1 : d2));
        cells[me] += pe + round;
        if (++waiting == pes) {
          waiting = 0;
          barrier.notify();
        } else {
          p.await(barrier);
        }
        // Neighbour read after the barrier: order-sensitive state.
        const std::size_t right = static_cast<std::size_t>((pe + 1) % pes);
        cells[me] ^= static_cast<std::int64_t>(cells[right] << (round + 1));
      }
    });
  }
  eng.run();

  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the final cells
  for (std::int64_t c : cells) {
    h = (h ^ static_cast<std::uint64_t>(c)) * 1099511628211ull;
  }
  out.checksum = h;
  out.end_ns = eng.now().count_ns();
  out.queue_hwm = eng.queue_size_hwm();

  // Release-on-quiescence: after run() the O(PE) burst capacity is gone.
  EXPECT_EQ(0u, eng.retained_bytes());
  EXPECT_GE(eng.queue_size_hwm(), static_cast<std::size_t>(pes))
      << "a full-PE barrier release must show up in the queue HWM";
  EXPECT_GE(eng.slot_pool_hwm(), 1u);
  return out;
}

TEST(Scale, FourKPeBitIdenticalPerSeed) {
  for (std::uint32_t seed : {11u, 42u}) {
    ScaleResult a = run_scaled(QueueKind::kWheel, 4096, seed);
    ScaleResult b = run_scaled(QueueKind::kWheel, 4096, seed);
    EXPECT_EQ(a, b) << "4K-PE run diverged across repeats, seed " << seed;
  }
  // Different seeds must actually change the schedule, or the test is vacuous.
  EXPECT_NE(run_scaled(QueueKind::kWheel, 4096, 11u).checksum,
            run_scaled(QueueKind::kWheel, 4096, 42u).checksum);
}

TEST(Scale, FourKPeWheelMatchesHeap) {
  ScaleResult heap = run_scaled(QueueKind::kHeap, 4096, 7u);
  ScaleResult wheel = run_scaled(QueueKind::kWheel, 4096, 7u);
  EXPECT_EQ(heap, wheel);
}

TEST(Scale, StackPoolRecyclesAcrossEngines) {
  FiberStackPool& pool = FiberStackPool::instance();
  auto run_once = [] {
    Engine eng(BackendKind::kFibers);
    for (int pe = 0; pe < 64; ++pe) {
      eng.spawn("pe" + std::to_string(pe),
                [](Process& p) { p.delay(Duration::ns(1)); });
    }
    eng.run();
  };
  run_once();  // warm: 64 stacks now pooled (or reused from earlier tests)
  const std::uint64_t mapped_before = pool.mapped();
  const std::uint64_t reused_before = pool.reused();
  run_once();
  EXPECT_EQ(mapped_before, pool.mapped())
      << "second engine of the same geometry must not mmap new stacks";
  EXPECT_GE(pool.reused(), reused_before + 64);
  EXPECT_GE(pool.pooled(), 64u);
}

}  // namespace
}  // namespace gdrshmem::sim
