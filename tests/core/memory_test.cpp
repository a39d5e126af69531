// Runtime memory model: heaps and staging are lazily committed zero pages,
// so a fresh runtime reads as zero everywhere, its resident set grows with
// the pages a program touches (not with np x heap), a grown staging buffer
// leaves no stale registration behind, and the host-pipeline transport maps
// nothing per peer pair up front.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>

#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

bool all_zero(const std::byte* p, std::size_t n) {
  return std::all_of(p, p + n, [](std::byte b) { return b == std::byte{0}; });
}

/// Field `index` of /proc/self/statm in bytes (0: mapped address space,
/// 1: resident set).
std::size_t statm_bytes(int index) {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  for (int i = 0; i <= index; ++i) statm >> pages;
  return pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}
std::size_t mapped_bytes() { return statm_bytes(0); }
std::size_t resident_bytes() { return statm_bytes(1); }

TEST(MemoryModel, FreshHeapsReadAsZeroAcrossRuntimeLifetimes) {
  // Several runtimes in one process: every one must start zeroed even after
  // its predecessor dirtied (and released) the same amount of memory.
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.pmem_heap_bytes = 1u << 20;
  for (int round = 0; round < 3; ++round) {
    Runtime rt(make_cluster(1, 2), opts);
    for (int pe = 0; pe < rt.num_pes(); ++pe) {
      for (Domain d : {Domain::kHost, Domain::kGpu, Domain::kPmem}) {
        const SymmetricHeap& h = rt.heap(pe, d);
        ASSERT_EQ(h.size(), d == Domain::kPmem ? opts.pmem_heap_bytes
                                               : std::size_t{16} << 20);
        EXPECT_TRUE(all_zero(h.base(), h.size()))
            << "round " << round << " pe " << pe << " " << to_string(d);
      }
    }
    rt.run([](Ctx& ctx) {
      Runtime& r = ctx.runtime();
      for (Domain d : {Domain::kHost, Domain::kGpu, Domain::kPmem}) {
        SymmetricHeap& h = r.heap(ctx.my_pe(), d);
        std::memset(h.base() + h.used(), 0xff, h.size() - h.used());
      }
    });
  }
}

// The host-pipeline transport's eager buffers are per (peer, direction)
// and made on first use. Mapped up front, one eager_limit slot per source
// PE in every PE's region, 256 PEs would map 512 MiB more than a naive
// runtime of the same shape.
TEST(MemoryModel, HostPipelineMapsNoPerPeerRegionsUpFront) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "address-space bound not meaningful under AddressSanitizer";
#endif
  constexpr int kPes = 256;
  constexpr std::size_t kBound = std::size_t{64} << 20;
  RuntimeOptions opts = make_options(TransportKind::kNaive);
  opts.host_heap_bytes = 2u << 20;
  opts.gpu_heap_bytes = 1u << 20;
  auto mapped_growth = [&](TransportKind kind) {
    opts.transport = kind;
    const std::size_t before = mapped_bytes();
    Runtime rt(make_cluster(kPes / 2, 2), opts);
    return mapped_bytes() - std::min(before, mapped_bytes());
  };
  const std::size_t naive = mapped_growth(TransportKind::kNaive);
  const std::size_t pipeline = mapped_growth(TransportKind::kHostPipeline);
  EXPECT_LT(pipeline, naive + kBound)
      << "host-pipeline mapped " << (pipeline >> 20) << " MiB, naive "
      << (naive >> 20) << " MiB, for " << kPes << " PEs";
}

// Zero-filled up front, a 1024-PE runtime with the default 16 MiB heaps
// would need about 45 GB. With lazy zero pages only what
// the program writes is committed: here the collectives sync pool at the
// head of each host heap (kept on base pages, so a barrier commits a few
// KiB per PE rather than a 2 MiB huge page), the fiber stacks and the
// bookkeeping.
TEST(MemoryModel, ThousandPeDefaultHeapRuntimeCommitsOnlyTouchedPages) {
#if defined(__SANITIZE_ADDRESS__)
  // ASan's shadow and quarantine inflate every resident figure; the bound
  // below is only meaningful for an uninstrumented build.
  GTEST_SKIP() << "RSS bound not meaningful under AddressSanitizer";
#endif
  constexpr int kPes = 1024;
  constexpr std::size_t kBound = std::size_t{256} << 20;
  const std::size_t before = resident_bytes();
  std::size_t grown = 0;
  {
    Runtime rt(make_cluster(kPes / 2, 2), make_options(TransportKind::kEnhancedGdr));
    ASSERT_EQ(rt.num_pes(), kPes);
    ASSERT_EQ(rt.options().host_heap_bytes, std::size_t{16} << 20);
    ASSERT_EQ(rt.options().gpu_heap_bytes, std::size_t{16} << 20);
    rt.run([](Ctx& ctx) { ctx.barrier_all(); });
    grown = resident_bytes() - std::min(before, resident_bytes());
  }
  EXPECT_LT(grown, kBound) << "resident set grew by " << (grown >> 20)
                           << " MiB building and running " << kPes << " PEs";
}

// A symmetric flag lands right after the sync pool. With a heap of 8 KiB per
// PE the pool fills a quarter of it, so the flag can open a fresh 2 MiB
// region of the hinted heap: were small blocks hinted too, its one write
// would commit a whole huge page per PE (2.2 GB at 1024 PEs).
TEST(MemoryModel, SmallBlocksCommitBasePagesOnly) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "RSS bound not meaningful under AddressSanitizer";
#endif
  constexpr int kPes = 1024;
  constexpr std::size_t kBound = std::size_t{256} << 20;
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = std::size_t{kPes} * (8u << 10);
  opts.gpu_heap_bytes = 1u << 20;
  const std::size_t before = resident_bytes();
  std::size_t grown = 0;
  {
    Runtime rt(make_cluster(kPes / 2, 2), opts);
    rt.run([](Ctx& ctx) {
      auto* flag = static_cast<long*>(ctx.shmalloc(sizeof(long), Domain::kHost));
      *flag = ctx.my_pe() + 1;
      ctx.barrier_all();
    });
    grown = resident_bytes() - std::min(before, resident_bytes());
  }
  EXPECT_LT(grown, kBound) << "resident set grew by " << (grown >> 20)
                           << " MiB for one 8-byte flag on " << kPes << " PEs";
}

// Ctx::regrow is the one grow path: the bounce buffer and the host-pipeline
// transport's rendezvous staging both go through it.
TEST(MemoryModel, GrownStagingDropsTheOldRegistration) {
  RuntimeOptions opts = make_options(TransportKind::kHostPipeline);
  run_spmd(make_cluster(1, 1), opts, [](Ctx& ctx) {
    ib::RegistrationCache& rc = ctx.runtime().verbs().reg_cache();
    const int me = ctx.my_pe();
    const std::size_t initial = 2 * ctx.runtime().tuning().pipeline_chunk;

    std::byte* old_bounce = ctx.bounce(1);
    ASSERT_TRUE(rc.covered(me, old_bounce, initial));
    const std::uint64_t misses = rc.misses();
    std::byte* new_bounce = ctx.bounce(2 * initial);
    // The grown buffer pays exactly one registration, as before.
    EXPECT_EQ(rc.misses(), misses + 1);
    EXPECT_TRUE(rc.covered(me, new_bounce, 2 * initial));
    const bool reused = old_bounce >= new_bounce && old_bounce < new_bounce + 2 * initial;
    EXPECT_EQ(rc.covered(me, old_bounce, 1), reused);
    EXPECT_TRUE(all_zero(new_bounce, 2 * initial));
  });
}

}  // namespace
}  // namespace gdrshmem::core
