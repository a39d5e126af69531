// Write-side staging moves each payload byte once. The pipeline GDR-write,
// the proxy's staged put and its reverse pipeline for gets charge their
// staging hop (copy engine, registration, the slot as the write's source
// leg) but carry the bytes from the source straight to the destination at
// delivery. These suites pin what that must not change: back-to-back
// staged puts keep their own bytes, a blocking put's source is reusable on
// return, and one op on each rma_mix path copies exactly its payload.
#include <gtest/gtest.h>

#include <string>

#include "core/device_api.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

unsigned char pattern(int tag, std::size_t i) {
  return static_cast<unsigned char>(tag * 37 + i * 13 + (i >> 9) + 1);
}

void fill(unsigned char* p, std::size_t n, int tag) {
  for (std::size_t i = 0; i < n; ++i) p[i] = pattern(tag, i);
}

std::size_t wrong_bytes(const unsigned char* p, std::size_t n, int tag) {
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < n; ++i) wrong += p[i] != pattern(tag, i);
  return wrong;
}

// ---------------------------------------------------------------------------
// Back-to-back staged puts of distinct sources: the second must not clobber
// the first's chunks while they are still in flight.

struct ClobberConfig {
  ib::QpKind kind;
  int rails;
};

struct ClobberCase {
  const char* name;
  Protocol proto;
  bool blocking;
  std::size_t bytes;
};

constexpr ClobberCase kClobberCases[] = {
    {"pipeline/nbi/300000", Protocol::kPipelineGdrWrite, false, 300000},
    {"pipeline/nbi/262145", Protocol::kPipelineGdrWrite, false, 262145},
    {"pipeline/nbi/1MiB", Protocol::kPipelineGdrWrite, false, 1u << 20},
    {"pipeline/blocking/300000", Protocol::kPipelineGdrWrite, true, 300000},
    {"pipeline/blocking/262145", Protocol::kPipelineGdrWrite, true, 262145},
    {"pipeline/blocking/1MiB", Protocol::kPipelineGdrWrite, true, 1u << 20},
    // Inter-socket target GPU: the whole message is staged locally and the
    // target's proxy does the last hop.
    {"staged-proxy/nbi/300000", Protocol::kProxyPut, false, 300000},
    {"staged-proxy/nbi/1MiB", Protocol::kProxyPut, false, 1u << 20},
};

class StagingClobber : public ::testing::TestWithParam<ClobberConfig> {};

TEST_P(StagingClobber, BackToBackPutsKeepTheirBytes) {
  for (const ClobberCase& c : kClobberCases) {
    SCOPED_TRACE(c.name);
    RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
    opts.ib_transport = GetParam().kind;
    opts.ib_rails = GetParam().rails;
    const bool same_socket = c.proto == Protocol::kPipelineGdrWrite;
    const std::size_t n = c.bytes;
    std::size_t wrong_a = 0, wrong_b = 0;
    auto rt = run_spmd(
        make_cluster(2, 1, same_socket), opts, [&](Ctx& ctx) {
          auto* dst_a = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
          auto* dst_b = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
          auto* src_a = static_cast<unsigned char*>(ctx.cuda_malloc(n));
          auto* src_b = static_cast<unsigned char*>(ctx.cuda_malloc(n));
          fill(src_a, n, 1);
          fill(src_b, n, 2);
          ctx.barrier_all();
          if (ctx.my_pe() == 0) {
            if (c.blocking) {
              ctx.putmem(dst_a, src_a, n, 1);
              ctx.putmem(dst_b, src_b, n, 1);
            } else {
              ctx.putmem_nbi(dst_a, src_a, n, 1);
              ctx.putmem_nbi(dst_b, src_b, n, 1);
            }
            ctx.quiet();
          }
          ctx.barrier_all();
          if (ctx.my_pe() == 1) {
            wrong_a = wrong_bytes(dst_a, n, 1);
            wrong_b = wrong_bytes(dst_b, n, 2);
          }
        });
    EXPECT_EQ(rt->stats().ops(c.proto), 2u);
    EXPECT_EQ(wrong_a, 0u) << "first put";
    EXPECT_EQ(wrong_b, 0u) << "second put";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Transports, StagingClobber,
    ::testing::Values(ClobberConfig{ib::QpKind::kRc, 1},
                      ClobberConfig{ib::QpKind::kRc, 2},
                      ClobberConfig{ib::QpKind::kUd, 1},
                      ClobberConfig{ib::QpKind::kUd, 2},
                      ClobberConfig{ib::QpKind::kDc, 1},
                      ClobberConfig{ib::QpKind::kDc, 2},
                      ClobberConfig{ib::QpKind::kSrd, 1},
                      ClobberConfig{ib::QpKind::kSrd, 2}),
    [](const ::testing::TestParamInfo<ClobberConfig>& p) {
      return std::string(ib::to_string(p.param.kind)) + "_" +
             std::to_string(p.param.rails) + "rail";
    });

// ---------------------------------------------------------------------------
// Source reuse: once a blocking put returns (or a device-initiated put
// completes) the program may overwrite its source at once. The target must
// hold the bytes from before the overwrite. Transport and rails follow the
// environment, so the tier-1 A/B passes cover every QP kind.

const char* const kPlans[] = {"", "seed=3,wire_error_rate=0.3"};

RuntimeOptions reuse_options(const char* plan) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.faults = sim::FaultPlan::parse(plan);
  return opts;
}

TEST(SourceReuse, BlockingPipelinePutOwnsItsBytesOnReturn) {
  for (const char* plan : kPlans) {
    for (std::size_t n : {std::size_t{262145}, std::size_t{300000},
                          std::size_t{1} << 20}) {
      SCOPED_TRACE(std::string("plan '") + plan + "', " + std::to_string(n) +
                   " B");
      std::size_t wrong = 0;
      auto rt = run_spmd(make_cluster(2, 1), reuse_options(plan), [&](Ctx& ctx) {
        auto* dst = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
        auto* src = static_cast<unsigned char*>(ctx.cuda_malloc(n));
        fill(src, n, 3);
        ctx.barrier_all();
        if (ctx.my_pe() == 0) {
          ctx.putmem(dst, src, n, 1);
          fill(src, n, 4);  // reuse the source at once
          ctx.quiet();
        }
        ctx.barrier_all();
        if (ctx.my_pe() == 1) wrong = wrong_bytes(dst, n, 3);
      });
      EXPECT_EQ(rt->stats().ops(Protocol::kPipelineGdrWrite), 1u);
      EXPECT_EQ(wrong, 0u);
    }
  }
}

TEST(SourceReuse, DeviceStagedPutOwnsItsBytesOnCompletion) {
  for (const char* plan : kPlans) {
    SCOPED_TRACE(std::string("plan '") + plan + "'");
    const std::size_t n = 1u << 20;
    std::size_t wrong = 0;
    auto rt = run_spmd(make_cluster(2, 1), reuse_options(plan), [&](Ctx& ctx) {
      auto* dst = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
      auto* src = static_cast<unsigned char*>(ctx.cuda_malloc(n));
      fill(src, n, 5);
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        ctx.launch_kernel_device(1.0, DeviceScope::kThread, [&](DeviceCtx& d) {
          d.putmem(dst, src, n, 1);
          fill(src, n, 6);  // the put completed: the source is ours again
        });
      }
      ctx.barrier_all();
      if (ctx.my_pe() == 1) wrong = wrong_bytes(dst, n, 5);
    });
    EXPECT_EQ(rt->stats().ops(Protocol::kProxyPut), 1u);
    EXPECT_EQ(wrong, 0u);
  }
}

// ---------------------------------------------------------------------------
// Functional copy bytes: a payload that crosses no staging the program can
// observe is memcpy'd exactly once, on every protocol path rma_mix drives
// (its 64-bit AMOs read-modify-write the word and copy nothing). Measured as
// the difference between the same program with and without the op, so the
// barriers' own flag traffic cancels out.

struct PathCase {
  const char* name;
  Protocol proto;
  bool is_get;
  bool blocking;
  int target;           // 1: same node as PE 0; 2: the other node
  bool local_device;    // PE 0's buffer on its GPU
  bool remote_device;   // target's symmetric buffer on its GPU
  std::size_t bytes;
  std::size_t copies;   // memcpy'd payload, in multiples of `bytes`
};

constexpr PathCase kPathCases[] = {
    {"put/host-shm", Protocol::kHostShm, false, true, 1, false, false, 4096, 1},
    {"get/host-shm", Protocol::kHostShm, true, true, 1, false, false, 4096, 1},
    {"put/loopback-gdr", Protocol::kLoopbackGdr, false, false, 1, false, true, 4096, 1},
    {"get/loopback-gdr", Protocol::kLoopbackGdr, true, true, 1, true, false, 4096, 1},
    {"put/ipc-copy", Protocol::kIpcCopy, false, false, 1, false, true, 300000, 1},
    {"get/ipc-copy", Protocol::kIpcCopy, true, true, 1, false, true, 300000, 1},
    {"put/shmem-ptr-copy", Protocol::kShmemPtrCopy, false, false, 1, true, false, 300000, 1},
    {"get/shmem-ptr-copy", Protocol::kShmemPtrCopy, true, true, 1, true, false, 300000, 1},
    {"put/direct-rdma", Protocol::kDirectRdma, false, false, 2, false, false, 4096, 1},
    {"get/direct-rdma", Protocol::kDirectRdma, true, true, 2, false, false, 4096, 1},
    {"put/direct-gdr", Protocol::kDirectGdr, false, false, 2, false, true, 4096, 1},
    {"get/direct-gdr", Protocol::kDirectGdr, true, true, 2, true, true, 4096, 1},
    {"put/pipeline-gdr-write", Protocol::kPipelineGdrWrite, false, false, 2, true, true, 600000, 1},
    {"get/proxy-get", Protocol::kProxyGet, true, true, 2, false, true, 600000, 1},
    // Staging the program can observe is copied: a blocking inline put
    // returns before delivery, its bytes parked in a pre-registered slot.
    {"put/inline", Protocol::kDirectRdma, false, true, 2, false, false, 64, 2},
};

std::uint64_t copy_bytes(const PathCase& c, bool with_op, RuntimeOptions opts,
                         std::uint64_t* proto_ops) {
  auto rt = run_spmd(make_cluster(2, 2), opts, [&](Ctx& ctx) {
    const Domain remote = c.remote_device ? Domain::kGpu : Domain::kHost;
    auto* sym = static_cast<unsigned char*>(ctx.shmalloc(c.bytes, remote));
    void* local = c.local_device ? ctx.cuda_malloc(c.bytes)
                                 : ctx.shmalloc(c.bytes, Domain::kHost);
    ctx.barrier_all();
    if (with_op && ctx.my_pe() == 0) {
      if (c.is_get) {
        ctx.getmem(local, sym, c.bytes, c.target);
      } else if (c.blocking) {
        ctx.putmem(sym, local, c.bytes, c.target);
      } else {
        ctx.putmem_nbi(sym, local, c.bytes, c.target);
      }
      ctx.quiet();
    }
    ctx.barrier_all();
  });
  *proto_ops = rt->stats().ops(c.proto);
  return rt->functional_copy_bytes();
}

TEST(FunctionalCopy, EachRmaMixPathMovesItsPayloadOnce) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  for (const PathCase& c : kPathCases) {
    SCOPED_TRACE(c.name);
    std::uint64_t ops_without = 0, ops_with = 0;
    const std::uint64_t without = copy_bytes(c, false, opts, &ops_without);
    const std::uint64_t with = copy_bytes(c, true, opts, &ops_with);
    EXPECT_EQ(ops_with, ops_without + 1) << "the op took another path";
    EXPECT_EQ(with - without, c.copies * c.bytes);
  }
}

TEST(FunctionalCopy, BlockingPipelinePutSnapshotsOnlyItsInFlightTail) {
  // A blocking pipeline put returns with its last two chunks in flight; of
  // 600000 bytes in 256 KiB chunks those are the last 600000 - 262144.
  const std::size_t n = 600000;
  const std::size_t tail = n - Tuning{}.pipeline_chunk;
  const PathCase c{"put/pipeline-gdr-write/blocking",
                   Protocol::kPipelineGdrWrite, false, true, 2, true, true, n,
                   0};
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  std::uint64_t ops = 0;
  const std::uint64_t without = copy_bytes(c, false, opts, &ops);
  const std::uint64_t with = copy_bytes(c, true, opts, &ops);
  EXPECT_EQ(with - without, n + tail);
}

}  // namespace
}  // namespace gdrshmem::core
