// Cross-backend determinism at the full-runtime level.
//
// The fiber and thread execution backends must be indistinguishable in
// virtual time: same engine event count, same OpStats, same bytes landing in
// the symmetric heaps, same per-op trace. This is the regression gate for
// the fiber backend — any scheduling divergence in the proxy daemons,
// progress engines, or protocol state machines shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;

struct RunResult {
  std::uint64_t events_executed = 0;
  std::int64_t end_ns = 0;
  OpStats stats;
  std::vector<std::int64_t> final_values;  // gathered symmetric heap contents
  std::string trace_csv;                   // per-op virtual-time trace

  bool same_as(const RunResult& o) const {
    return events_executed == o.events_executed && end_ns == o.end_ns &&
           stats.ops_by_protocol == o.stats.ops_by_protocol &&
           stats.bytes_by_protocol == o.stats.bytes_by_protocol &&
           stats.puts == o.stats.puts && stats.gets == o.stats.gets &&
           stats.atomics == o.stats.atomics &&
           stats.barriers == o.stats.barriers &&
           final_values == o.final_values && trace_csv == o.trace_csv;
  }
};

/// A mixed workload across 2 nodes x 2 PEs: GPU-domain ring puts (exercises
/// the proxy/pipeline paths), host gets, remote atomics, and barriers.
/// `faults` optionally layers a seeded fault plan (wire errors, a proxy
/// crash) on top, which exercises retransmits, replays and proxy restarts.
RunResult run_workload(sim::BackendKind backend,
                       sim::QueueKind queue = sim::QueueKind::kWheel,
                       const char* faults = nullptr) {
  RunResult out;
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.sim_backend = backend;
  opts.sim_queue = queue;
  if (faults != nullptr) opts.faults = sim::FaultPlan::parse(faults);
  Runtime rt(make_cluster(2), opts);
  rt.tracer().enable();

  const int np = rt.num_pes();
  out.final_values.assign(static_cast<std::size_t>(np) * 2, 0);

  rt.run([&](Ctx& ctx) {
    const int me = ctx.my_pe();
    const int right = (me + 1) % ctx.n_pes();
    auto* ring = static_cast<std::int64_t*>(
        ctx.shmalloc(sizeof(std::int64_t), Domain::kGpu));
    auto* counter = static_cast<std::int64_t*>(
        ctx.shmalloc(sizeof(std::int64_t), Domain::kHost));
    auto* big = static_cast<std::byte*>(ctx.shmalloc(64 * 1024, Domain::kGpu));
    *counter = 0;
    ctx.barrier_all();

    // Small GPU put ring + a large put that crosses the rendezvous/proxy
    // threshold, then a host get back from the left neighbour.
    std::vector<std::byte> buf(64 * 1024,
                               std::byte{static_cast<unsigned char>(me + 1)});
    for (int r = 0; r < 3; ++r) {
      std::int64_t v = me * 100 + r;
      ctx.putmem(ring, &v, sizeof v, right);
      ctx.putmem_nbi(big, buf.data(), buf.size(), right);
      ctx.quiet();
      ctx.atomic_fetch_add(counter, 1, right);
      ctx.barrier_all();
    }

    std::int64_t got = 0;
    ctx.getmem(&got, ring, sizeof got, right);
    ctx.barrier_all();

    out.final_values[static_cast<std::size_t>(me) * 2] = got;
    out.final_values[static_cast<std::size_t>(me) * 2 + 1] = *counter;
  });

  out.events_executed = rt.engine().events_executed();
  out.end_ns = (rt.engine().now() - sim::Time::zero()).count_ns();
  out.stats = rt.stats();
  out.trace_csv = rt.tracer().to_csv();
  return out;
}

TEST(RuntimeDeterminism, RepeatedRunsIdenticalPerBackend) {
  for (sim::BackendKind kind :
       {sim::BackendKind::kThreads, sim::BackendKind::kFibers}) {
    RunResult a = run_workload(kind);
    RunResult b = run_workload(kind);
    EXPECT_TRUE(a.same_as(b))
        << "backend " << sim::to_string(kind) << " diverged across runs";
    EXPECT_GT(a.events_executed, 0u);
    EXPECT_GT(a.stats.puts, 0u);
  }
}

TEST(RuntimeDeterminism, FibersMatchThreadsBitIdentically) {
  RunResult threads = run_workload(sim::BackendKind::kThreads);
  RunResult fibers = run_workload(sim::BackendKind::kFibers);
  EXPECT_EQ(threads.events_executed, fibers.events_executed);
  EXPECT_EQ(threads.end_ns, fibers.end_ns);
  EXPECT_EQ(threads.final_values, fibers.final_values);
  EXPECT_EQ(threads.trace_csv, fibers.trace_csv);
  EXPECT_TRUE(threads.same_as(fibers));
}

TEST(RuntimeDeterminism, HeapAndWheelQueuesMatchOnFaultInjectedRun) {
  // Cross-structure differential at full-runtime depth: a seeded
  // fault-injected run (wire errors forcing retransmits/replays plus a proxy
  // crash and restart) must produce the identical per-op trace, event count,
  // and heap contents whether the engine orders events with the binary heap
  // or the timing wheel — on both execution backends. Fault injection makes
  // the event stream as adversarial as this runtime can produce: failures
  // reschedule work at scattered future times while barriers keep producing
  // same-instant bursts.
  constexpr const char* kFaults = "seed=11,wire_error_rate=8e-3,crash=1@300";
  for (sim::BackendKind kind :
       {sim::BackendKind::kThreads, sim::BackendKind::kFibers}) {
    RunResult heap = run_workload(kind, sim::QueueKind::kHeap, kFaults);
    RunResult wheel = run_workload(kind, sim::QueueKind::kWheel, kFaults);
    EXPECT_EQ(heap.trace_csv, wheel.trace_csv)
        << "queue divergence on backend " << sim::to_string(kind);
    EXPECT_TRUE(heap.same_as(wheel))
        << "queue divergence on backend " << sim::to_string(kind);
  }
}

TEST(RuntimeDeterminism, ServiceThreadConfigMatchesAcrossBackends) {
  // The service-thread ablation spawns extra daemons racing the progress
  // engine — the most handoff-heavy configuration we have.
  auto run_once = [](sim::BackendKind kind) {
    RuntimeOptions opts = make_options(TransportKind::kHostPipeline);
    opts.sim_backend = kind;
    opts.service_thread = true;
    Runtime rt(make_cluster(2), opts);
    std::vector<std::int64_t> vals(4);
    rt.run([&](Ctx& ctx) {
      const int me = ctx.my_pe();
      auto* slot = static_cast<std::int64_t*>(
          ctx.shmalloc(sizeof(std::int64_t), Domain::kHost));
      *slot = 0;
      ctx.barrier_all();
      std::int64_t v = me + 1;
      ctx.putmem(slot, &v, sizeof v, (me + 1) % ctx.n_pes());
      ctx.barrier_all();
      vals[static_cast<std::size_t>(me)] = *slot;
    });
    return std::pair{rt.engine().events_executed(), vals};
  };
  auto threads = run_once(sim::BackendKind::kThreads);
  auto fibers = run_once(sim::BackendKind::kFibers);
  EXPECT_EQ(threads, fibers);
}

}  // namespace
}  // namespace gdrshmem::core
