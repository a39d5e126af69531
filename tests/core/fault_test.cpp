// Fault injection end-to-end: correctness of every recovery path under a
// seeded plan, bit-identical determinism across runs and across execution
// backends, and the report/trace surfacing of fault counters.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "core/device_api.hpp"
#include "core/report.hpp"
#include "core/trace.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

constexpr std::size_t kNumFaultEvents =
    static_cast<std::size_t>(sim::FaultEvent::kCount_);

std::array<std::uint64_t, kNumFaultEvents> fault_counts(Runtime& rt) {
  std::array<std::uint64_t, kNumFaultEvents> c{};
  for (std::size_t i = 0; i < kNumFaultEvents; ++i) {
    c[i] = rt.faults().count(static_cast<sim::FaultEvent>(i));
  }
  return c;
}

unsigned char pattern(int pe, int iter, std::size_t i) {
  return static_cast<unsigned char>(pe * 131 + iter * 17 + i * 7 + 3);
}

/// A mixed RMA + atomics workload that exercises direct RDMA, the chunked
/// GDR pipeline, and remote atomics; every byte is verified at the target.
void mixed_workload(Ctx& ctx, int iters, std::size_t n) {
  const int np = ctx.n_pes();
  const int me = ctx.my_pe();
  const int target = (me + 1) % np;
  const int from = (me + np - 1) % np;
  auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
  auto* host = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kHost));
  auto* ctr = static_cast<std::int64_t*>(
      ctx.shmalloc(sizeof(std::int64_t), Domain::kHost));
  *ctr = 0;
  auto* src = static_cast<unsigned char*>(ctx.cuda_malloc(n));
  std::vector<unsigned char> hsrc(n);
  ctx.barrier_all();

  for (int iter = 0; iter < iters; ++iter) {
    for (std::size_t i = 0; i < n; ++i) src[i] = pattern(me, iter, i);
    for (std::size_t i = 0; i < n; ++i) hsrc[i] = pattern(me, iter + 100, i);
    ctx.putmem(dev, src, n, target);           // D->D: pipeline / proxy
    ctx.putmem(host, hsrc.data(), n, target);  // H->H: direct RDMA
    for (int k = 0; k < 8; ++k) ctx.atomic_fetch_add(ctr, 1, iter % np);
    ctx.quiet();
    ctx.barrier_all();
    for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 64)) {
      ASSERT_EQ(dev[i], pattern(from, iter, i)) << "dev byte " << i;
      ASSERT_EQ(host[i], pattern(from, iter + 100, i)) << "host byte " << i;
    }
    ctx.barrier_all();
  }
  ctx.barrier_all();
  // Every PE added 8 per iteration to one rotating counter owner; each
  // owner's total must be exact — lost or double-applied atomics both fail.
  std::int64_t expect = 0;
  for (int iter = 0; iter < iters; ++iter) {
    if (iter % np == me) expect += 8 * np;
  }
  ASSERT_EQ(*ctr, expect);
  ctx.barrier_all();
}

struct RunResult {
  std::int64_t end_ns = 0;
  std::array<std::uint64_t, kNumFaultEvents> counts{};
  bool operator==(const RunResult&) const = default;
};

RunResult run_mixed(sim::BackendKind backend, const std::string& plan) {
  hw::ClusterConfig cluster = make_cluster(2, 2);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.sim_backend = backend;
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  opts.faults = sim::FaultPlan::parse(plan);
  auto rt = run_spmd(cluster, opts,
                     [&](Ctx& ctx) { mixed_workload(ctx, 3, 256u << 10); });
  RunResult r;
  r.end_ns = rt->engine().now().count_ns();
  r.counts = fault_counts(*rt);
  return r;
}

const char* kMixedPlan = "seed=11,wire_error_rate=8e-3,atomic_error_rate=5e-3";

TEST(FaultInjection, WireErrorsAreRecoveredAndDeterministic) {
  RunResult a = run_mixed(sim::BackendKind::kFibers, kMixedPlan);
  RunResult b = run_mixed(sim::BackendKind::kFibers, kMixedPlan);
  EXPECT_EQ(a, b) << "same seed must give a bit-identical run";
  EXPECT_GT(a.counts[static_cast<std::size_t>(sim::FaultEvent::kRetransmit)], 0u)
      << "plan with wire_error_rate=8e-3 should have caused retransmits";
}

TEST(FaultInjection, FiberAndThreadBackendsAgreeUnderFaults) {
  RunResult fib = run_mixed(sim::BackendKind::kFibers, kMixedPlan);
  RunResult thr = run_mixed(sim::BackendKind::kThreads, kMixedPlan);
  EXPECT_EQ(fib, thr)
      << "fault behaviour must be bit-identical on fibers and threads";
}

TEST(FaultInjection, ShortFlapRidesThroughOnHcaRetransmits) {
  hw::ClusterConfig cluster = make_cluster(2, 1);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 8u << 20;
  // 300 us outage starting at t=40 us: well inside the 7-retry exponential
  // envelope, so the HCA alone must absorb it — no CQ error surfaces.
  opts.faults = sim::FaultPlan::parse("flap=1@40+300");
  const std::size_t n = 256u << 10;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* host = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kHost));
    std::vector<unsigned char> buf(n);
    if (ctx.my_pe() == 0) {
      for (int iter = 0; iter < 20; ++iter) {
        for (std::size_t i = 0; i < n; ++i) buf[i] = pattern(0, iter, i);
        ctx.putmem(host, buf.data(), n, 1);
        ctx.quiet();
      }
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < n; i += 997) {
        ASSERT_EQ(host[i], pattern(0, 19, i));
      }
    }
  });
  EXPECT_GT(rt->faults().count(sim::FaultEvent::kRetransmit), 0u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kCompletionError), 0u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kSwReplay), 0u);
}

TEST(FaultInjection, LongFlapSurfacesErrorsAndSoftwareReplays) {
  hw::ClusterConfig cluster = make_cluster(2, 1);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 8u << 20;
  // 2.5 ms outage: longer than the whole tier-1 retry envelope, so at least
  // one op must exhaust its HCA retries and be replayed by software.
  opts.faults = sim::FaultPlan::parse("flap=1@40+2500");
  const std::size_t n = 256u << 10;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* host = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kHost));
    std::vector<unsigned char> buf(n);
    if (ctx.my_pe() == 0) {
      for (int iter = 0; iter < 6; ++iter) {
        for (std::size_t i = 0; i < n; ++i) buf[i] = pattern(0, iter, i);
        ctx.putmem(host, buf.data(), n, 1);
        ctx.quiet();
      }
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < n; i += 997) {
        ASSERT_EQ(host[i], pattern(0, 5, i));
      }
    }
  });
  EXPECT_GT(rt->faults().count(sim::FaultEvent::kCompletionError), 0u);
  EXPECT_GT(rt->faults().count(sim::FaultEvent::kSwReplay), 0u);
}

TEST(FaultInjection, SmallBlockingPutsLeaveFromTheInlineSlot) {
  // Under a fault plan a small blocking put still leaves from a
  // pre-registered inline slot, replays included. The caller's buffer —
  // here a stack array — is never registered, so no registration-cache hit
  // can depend on where the compiler placed it.
  hw::ClusterConfig cluster = make_cluster(2, 1);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 8u << 20;
  opts.faults = sim::FaultPlan::parse("flap=1@40+2500");
  constexpr std::size_t kWords = 8;
  constexpr int kIters = 40;
  bool source_registered = true;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* dst = static_cast<std::uint64_t*>(
        ctx.shmalloc(kWords * sizeof(std::uint64_t), Domain::kHost));
    if (ctx.my_pe() == 0) {
      std::uint64_t words[kWords];
      for (int iter = 0; iter < kIters; ++iter) {
        for (std::size_t i = 0; i < kWords; ++i) words[i] = iter * 100u + i;
        ctx.putmem(dst, words, sizeof(words), 1);
      }
      source_registered = ctx.runtime().verbs().reg_cache().covered(0, words, 1);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < kWords; ++i) {
        ASSERT_EQ(dst[i], (kIters - 1) * 100u + i);
      }
    }
  });
  EXPECT_FALSE(source_registered);
  EXPECT_GT(rt->faults().count(sim::FaultEvent::kSwReplay), 0u);
}

TEST(FaultInjection, ProxyCrashMidGetIsRecovered) {
  hw::ClusterConfig cluster = make_cluster(2, 1);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  // Kill the serving node's proxy 300 us into a ~multi-hundred-us 4 MB
  // proxied get; the requester must time out, reissue, and still read the
  // right bytes from the restarted daemon.
  opts.faults = sim::FaultPlan::parse("crash=1@300");
  const std::size_t n = 4u << 20;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < n; ++i) dev[i] = pattern(1, 0, i);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      std::vector<unsigned char> out(n, 0xee);
      ctx.getmem(out.data(), dev, n, 1);
      for (std::size_t i = 0; i < n; i += 4093) {
        ASSERT_EQ(out[i], pattern(1, 0, i)) << "byte " << i;
      }
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyCrash), 1u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyRestart), 1u);
  EXPECT_GE(rt->faults().count(sim::FaultEvent::kProxyReissue), 1u);
}

TEST(FaultInjection, ProxyCrashMidPutIsRecovered) {
  // Inter-socket HCA<->GPU so a large H->D put takes the proxy pipeline.
  hw::ClusterConfig cluster = make_cluster(2, 1, /*same_socket=*/false);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  opts.faults = sim::FaultPlan::parse("crash=1@300");
  const std::size_t n = 4u << 20;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    if (ctx.my_pe() == 0) {
      std::vector<unsigned char> src(n);
      for (std::size_t i = 0; i < n; ++i) src[i] = pattern(0, 1, i);
      ctx.putmem(dev, src.data(), n, 1);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < n; i += 4093) {
        ASSERT_EQ(dev[i], pattern(0, 1, i)) << "byte " << i;
      }
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyCrash), 1u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyRestart), 1u);
  EXPECT_GE(rt->faults().count(sim::FaultEvent::kProxyReissue), 1u);
}

TEST(FaultInjection, P2pRevocationFallsBackAndStaysCorrect) {
  hw::ClusterConfig cluster = make_cluster(2, 2);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  // Node 1 loses GPUDirect before any traffic flows: every D-D transfer
  // touching it must reroute (proxy / host staging) yet move the same bytes.
  opts.faults = sim::FaultPlan::parse("revoke=1@0");
  const std::size_t n = 512u << 10;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    const int me = ctx.my_pe();
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    auto* src = static_cast<unsigned char*>(ctx.cuda_malloc(n));
    ctx.barrier_all();
    if (me == 0) {
      // Healthy node -> revoked node, large and small.
      for (std::size_t i = 0; i < n; ++i) src[i] = pattern(0, 0, i);
      ctx.putmem(dev, src, n, 2);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (me == 2) {
      for (std::size_t i = 0; i < n; i += 1021) {
        ASSERT_EQ(dev[i], pattern(0, 0, i));
      }
      // Revoked node -> healthy node.
      for (std::size_t i = 0; i < n; ++i) src[i] = pattern(2, 1, i);
      ctx.putmem(dev, src, n, 0);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (me == 0) {
      for (std::size_t i = 0; i < n; i += 1021) {
        ASSERT_EQ(dev[i], pattern(2, 1, i));
      }
      // Large get from the revoked node's GPU (served by its proxy).
      std::vector<unsigned char> out(n);
      ctx.getmem(out.data(), dev, n, 2);
      for (std::size_t i = 0; i < n; i += 1021) {
        ASSERT_EQ(out[i], pattern(0, 0, i));
      }
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kP2pRevoke), 1u);
  EXPECT_GT(rt->faults().count(sim::FaultEvent::kGdrFallback), 0u);
}

TEST(FaultInjection, EmptyPlanLeavesNoTrace) {
  auto rt = run_spmd(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr),
                     [&](Ctx& ctx) {
                       auto* h = static_cast<int*>(ctx.shmalloc(sizeof(int)));
                       int v = 7;
                       ctx.putmem(h, &v, sizeof(v), (ctx.my_pe() + 1) % 4);
                       ctx.quiet();
                       ctx.barrier_all();
                     });
  EXPECT_FALSE(rt->faults_enabled());
  for (std::size_t i = 0; i < kNumFaultEvents; ++i) {
    EXPECT_EQ(rt->faults().count(static_cast<sim::FaultEvent>(i)), 0u);
  }
  EXPECT_EQ(format_report(*rt).find("fault injection"), std::string::npos);
}

TEST(FaultInjection, ReportAndTracerSurfaceFaultCounters) {
  hw::ClusterConfig cluster = make_cluster(2, 2);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  opts.faults = sim::FaultPlan::parse(kMixedPlan);
  Runtime rt(cluster, opts);
  rt.tracer().enable();
  rt.run([&](Ctx& ctx) { mixed_workload(ctx, 2, 256u << 10); });

  std::string report = format_report(rt);
  EXPECT_NE(report.find("fault injection (plan:"), std::string::npos);
  EXPECT_NE(report.find("retransmit"), std::string::npos);

  std::uint64_t traced_retransmits = 0;
  for (const TraceEvent& ev : rt.tracer().events()) {
    if (ev.kind == TraceEvent::Kind::kRetransmit) ++traced_retransmits;
  }
  EXPECT_EQ(traced_retransmits,
            rt.faults().count(sim::FaultEvent::kRetransmit))
      << "every injector event must be mirrored into the tracer";
}

// ---------------------------------------------------------------------------
// Event-stream pin of the recovery paths
//
// One fixed two-node program drives every protocol whose healthy and faulted
// behaviour share a body: pipeline-gdr-write, host-staged-get, proxy put and
// get (blocking and nbi), direct RDMA put/get (blocking, inline and nbi),
// host atomics, and device-initiated staged put, staged get and AMO. Each
// cell pins the end instant and the number of executed engine events, so a
// recovery step that is not a no-op on a healthy fabric, or a fold that
// moves one event under a plan, fails here.

/// HCA and GPU on different sockets: large H-D puts take the proxy, large
/// D-H puts the GDR-write pipeline, and large host-to-device gets the host
/// staging path. PE 0 issues host-side ops to PE 1; PE 1's kernel issues
/// device-side ops to PE 0 (served by node 1's proxy either way, so the
/// plan's crashes of node 1 land in both phases).
void recovery_path_program(Ctx& ctx) {
  const std::size_t n = 1u << 20;  // four pipeline chunks
  const int me = ctx.my_pe();
  const int peer = 1 - me;
  auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
  auto* host = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kHost));
  auto* words = static_cast<std::int64_t*>(
      ctx.shmalloc(8 * sizeof(std::int64_t), Domain::kHost));
  auto* src_dev = static_cast<unsigned char*>(ctx.cuda_malloc(n));
  auto* out_dev = static_cast<unsigned char*>(ctx.cuda_malloc(n));
  std::vector<unsigned char> hsrc(n), hout(n), small(4 * 4096);
  for (std::size_t i = 0; i < n; ++i) {
    src_dev[i] = pattern(me, 0, i);
    hsrc[i] = pattern(me, 1, i);
  }
  std::memset(dev, 0, n);
  std::memset(host, 0, n);
  std::memset(words, 0, 8 * sizeof(std::int64_t));
  ctx.barrier_all();

  if (me == 0) {
    ctx.putmem(host, src_dev, n, peer);          // pipeline-gdr-write
    ctx.getmem(out_dev, host, n, peer);          // host-staged-get
    ctx.putmem(dev, hsrc.data(), n, peer);       // proxy-put
    ctx.getmem(hout.data(), dev, n, peer);       // proxy-get
    ctx.putmem_nbi(dev, hsrc.data(), n, peer);   // proxy-put, nbi
    ctx.getmem_nbi(hout.data(), dev, n, peer);   // proxy-get, nbi
    ctx.putmem_nbi(host, src_dev, n, peer);      // pipeline-gdr-write, nbi
    ctx.quiet();
    for (int k = 0; k < 4; ++k) {
      std::int64_t v = 100 + k;
      ctx.putmem(words + k, &v, sizeof(v), peer);             // inline
      ctx.putmem_nbi(host + k * 8192, hsrc.data(), 4096, peer);  // direct
      ctx.getmem_nbi(small.data() + k * 4096, host + k * 8192 + 4096, 4096,
                     peer);
      ctx.atomic_fetch_add(words + 4, 1, peer);
    }
    ctx.quiet();
    for (std::size_t i = 0; i < n; i += 4093) {
      ASSERT_EQ(out_dev[i], pattern(0, 0, i)) << "host-staged-get byte " << i;
      ASSERT_EQ(hout[i], pattern(0, 1, i)) << "proxy-get byte " << i;
    }
  }
  ctx.barrier_all();
  if (me == 1) {
    ASSERT_EQ(words[4], 4);
    ctx.launch_kernel_device(1.0, DeviceScope::kThread, [&](DeviceCtx& d) {
      d.putmem(dev, src_dev, n, peer);      // staged device put
      d.getmem(out_dev, dev, n, peer);      // staged device get
      d.putmem_nbi(dev, src_dev, n, peer);
      for (int k = 0; k < 4; ++k) d.atomic_fetch_add(words + 5, 1, peer);
      d.quiet();
    });
    for (std::size_t i = 0; i < n; i += 4093) {
      ASSERT_EQ(out_dev[i], pattern(1, 0, i)) << "staged device get byte " << i;
    }
  }
  ctx.barrier_all();
  if (me == 0) {
    ASSERT_EQ(words[5], 4);
    for (std::size_t i = 0; i < n; i += 4093) {
      ASSERT_EQ(dev[i], pattern(1, 0, i)) << "staged device put byte " << i;
    }
  }
  ctx.barrier_all();
}

struct PinnedCell {
  ib::QpKind qp;
  DeviceBackendKind device;
  const char* plan;  // empty: healthy fabric
  std::int64_t end_ns;
  std::uint64_t events;
};

// High error rates so some ops exhaust the HCA's retries and surface to
// software replay, plus two crashes of node 1's proxy: one lands in PE 0's
// proxied host ops, the other in PE 1's offloaded device put. srd retries
// each 8 KiB segment on its own, so it gets a lower wire error rate.
const char* kRcRecoveryPlan =
    "seed=5,wire_error_rate=0.6,atomic_error_rate=0.7,"
    "crash=1@4000,crash=1@13000";
const char* kSrdRecoveryPlan =
    "seed=5,wire_error_rate=0.45,atomic_error_rate=0.7,"
    "crash=1@5000,crash=1@22000";

TEST(FaultInjection, RecoveryPathsKeepTheirEventStream) {
  // Recorded while each protocol still had separate healthy and faulted
  // bodies; the single bodies must reproduce every cell exactly.
  const PinnedCell cells[] = {
      {ib::QpKind::kRc, DeviceBackendKind::kGpuIb, "",
       8202878, 459},
      {ib::QpKind::kRc, DeviceBackendKind::kGpuIb, kRcRecoveryPlan,
       66186619, 669},
      {ib::QpKind::kRc, DeviceBackendKind::kReverseOffload, "",
       8224894, 482},
      {ib::QpKind::kRc, DeviceBackendKind::kReverseOffload, kRcRecoveryPlan,
       66181819, 697},
      {ib::QpKind::kSrd, DeviceBackendKind::kGpuIb, "",
       8495352, 6015},
      {ib::QpKind::kSrd, DeviceBackendKind::kGpuIb, kSrdRecoveryPlan,
       77836240, 9249},
      {ib::QpKind::kSrd, DeviceBackendKind::kReverseOffload, "",
       8517368, 6038},
      {ib::QpKind::kSrd, DeviceBackendKind::kReverseOffload, kSrdRecoveryPlan,
       77831440, 9277},
  };
  for (const PinnedCell& cell : cells) {
    RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
    opts.ib_transport = cell.qp;
    opts.ib_rails = 1;
    opts.device_backend = cell.device;
    opts.faults = sim::FaultPlan::parse(cell.plan);
    auto rt = run_spmd(make_cluster(2, 1, /*same_socket=*/false), opts,
                       recovery_path_program);
    const std::string name = std::string(ib::to_string(cell.qp)) + "/" +
                             std::string(to_string(cell.device)) + "/" +
                             (cell.plan[0] != '\0' ? "faulted" : "healthy");
    EXPECT_EQ(rt->engine().now().count_ns(), cell.end_ns) << name;
    EXPECT_EQ(rt->engine().events_executed(), cell.events) << name;
    if (cell.plan[0] != '\0') {
      EXPECT_GT(rt->faults().count(sim::FaultEvent::kSwReplay), 0u) << name;
      EXPECT_GT(rt->faults().count(sim::FaultEvent::kProxyReissue), 0u) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Recovery budgets: each exhausted budget fails as an error naming its knob.

/// Run `body` on a 2-node runtime and return the message of the error the
/// run ends with ("" when it completes).
template <typename Fn>
std::string run_error(bool same_socket, const RuntimeOptions& opts, Fn&& body) {
  try {
    run_spmd(make_cluster(2, 1, same_socket), opts, body);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

RuntimeOptions budget_options(const char* plan) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.ib_transport = ib::QpKind::kRc;
  opts.ib_rails = 1;
  opts.faults = sim::FaultPlan::parse(plan);
  return opts;
}

constexpr std::size_t kBudgetBytes = 4u << 20;
// A port down for 200 ms: every replay of a surfaced error fails again.
const char* kEndlessFlap = "flap=1@40+200000";
// Node 1's proxy dies 300 us in and stays down for the rest of the run.
const char* kDeadProxy = "crash=1@300,restart_us=1e9";

TEST(FaultBudget, BlockingReplayNamesItsKnob) {
  RuntimeOptions opts = budget_options(kEndlessFlap);
  opts.tuning.max_sw_replays = 1;
  std::string err = run_error(true, opts, [](Ctx& ctx) {
    auto* host = ctx.shmalloc(kBudgetBytes, Domain::kHost);
    std::vector<unsigned char> src(kBudgetBytes, 1);
    if (ctx.my_pe() == 0) ctx.putmem(host, src.data(), kBudgetBytes, 1);
    ctx.barrier_all();
  });
  EXPECT_NE(err.find("pe 0: operation still failing after 1 software "
                     "replays (GDRSHMEM_MAX_SW_REPLAYS)"),
            std::string::npos)
      << err;
}

TEST(FaultBudget, NbiReplayNamesItsKnob) {
  RuntimeOptions opts = budget_options(kEndlessFlap);
  opts.tuning.max_sw_replays = 1;
  std::string err = run_error(true, opts, [](Ctx& ctx) {
    auto* host = ctx.shmalloc(kBudgetBytes, Domain::kHost);
    std::vector<unsigned char> src(kBudgetBytes, 1);
    if (ctx.my_pe() == 0) {
      ctx.putmem_nbi(host, src.data(), kBudgetBytes, 1);
      ctx.quiet();
    }
    ctx.barrier_all();
  });
  EXPECT_NE(err.find("pe 0: operation still failing after 1 software "
                     "replays (GDRSHMEM_MAX_SW_REPLAYS)"),
            std::string::npos)
      << err;
}

TEST(FaultBudget, ProxyPutReissuesNameTheirKnob) {
  // Inter-socket target GPU: a large H-D put takes the target's proxy.
  RuntimeOptions opts = budget_options(kDeadProxy);
  opts.tuning.proxy_max_reissues = 1;
  std::string err = run_error(false, opts, [](Ctx& ctx) {
    auto* dev = ctx.shmalloc(kBudgetBytes, Domain::kGpu);
    std::vector<unsigned char> src(kBudgetBytes, 1);
    if (ctx.my_pe() == 0) ctx.putmem(dev, src.data(), kBudgetBytes, 1);
    ctx.barrier_all();
  });
  EXPECT_NE(err.find("proxy put: reissue budget exhausted after 1 reissues "
                     "(GDRSHMEM_PROXY_MAX_REISSUES)"),
            std::string::npos)
      << err;
}

TEST(FaultBudget, ProxyGetReissuesNameTheirKnob) {
  RuntimeOptions opts = budget_options(kDeadProxy);
  opts.tuning.proxy_max_reissues = 1;
  std::string err = run_error(true, opts, [](Ctx& ctx) {
    auto* dev = ctx.shmalloc(kBudgetBytes, Domain::kGpu);
    std::vector<unsigned char> out(kBudgetBytes);
    if (ctx.my_pe() == 0) ctx.getmem(out.data(), dev, kBudgetBytes, 1);
    ctx.barrier_all();
  });
  EXPECT_NE(err.find("proxy get: reissue budget exhausted after 1 reissues "
                     "(GDRSHMEM_PROXY_MAX_REISSUES)"),
            std::string::npos)
      << err;
}

TEST(FaultBudget, DeviceOffloadReissuesNameTheirKnob) {
  // Reverse offload: PE 1's kernel hands its put to node 1's (dead) proxy.
  RuntimeOptions opts = budget_options(kDeadProxy);
  opts.device_backend = DeviceBackendKind::kReverseOffload;
  opts.tuning.proxy_max_reissues = 1;
  std::string err = run_error(true, opts, [](Ctx& ctx) {
    auto* dev = ctx.shmalloc(kBudgetBytes, Domain::kGpu);
    auto* src = ctx.cuda_malloc(kBudgetBytes);
    if (ctx.my_pe() == 1) {
      ctx.launch_kernel_device(1.0, DeviceScope::kThread, [&](DeviceCtx& d) {
        d.putmem(dev, src, kBudgetBytes, 0);
      });
    }
    ctx.barrier_all();
  });
  EXPECT_NE(err.find("device offload: reissue budget exhausted after 1 "
                     "reissues (GDRSHMEM_PROXY_MAX_REISSUES)"),
            std::string::npos)
      << err;
}

}  // namespace
}  // namespace gdrshmem::core
