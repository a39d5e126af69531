// Engine execution overhead: how fast does the simulator itself run?
//
// Every other bench in this directory reports *virtual* time; this one
// reports *wall* time. Five sections:
//
//   1. runtime sweep — the real OpenSHMEM runtime, not raw mailboxes, at
//                      64 -> 4096 PEs: construct a Runtime, run a barrier,
//                      a put ring and an allreduce through Ctx, tear down.
//                      Each point records setup time and the process's
//                      peak RSS beside its wall time (the sweep runs first,
//                      in ascending order, so the peak is the point's own),
//                      so runtime memory growing faster than O(np) shows up
//                      here.
//   2. backend A/B   — the original 64-PE message-rate workload under the
//                      thread and fiber backends (fiber speedup headline).
//   3. PE sweep      — the same workload at 64 -> 16384 PEs (fibers; 16K OS
//                      threads is not a thing), reporting events/sec per
//                      scale point. This is the scale-out regression series:
//                      events/sec collapsing at high PE counts means the
//                      event queue or the stack management stopped scaling.
//   4. 4K lifecycle  — a barrier+message-rate job at 4096 PEs, timed
//                      end-to-end (engine construction, spawn, run,
//                      teardown) over 3 jobs with a warm fiber-stack pool:
//                      the pool only pays off across repeated engine
//                      lifetimes in one process, which is exactly the
//                      sweep/CI shape.
//   5. cross-checks  — heap and wheel must execute identical event counts to
//                      identical virtual end times (and batching must not
//                      move virtual time) or the bench aborts: the perf
//                      numbers are meaningless if determinism broke.
//
// `--scale-smoke` runs a single 1K-PE barrier+message-rate round under a
// wall-clock budget and exits — the cheap scale canary for check_tier1.sh.
//
// Wall numbers are machine-dependent; the perf gate compares the
// deterministic `events` per wall point exactly, events/sec only against a
// loose floor (PERF_WALL_FRAC), and virtual_us points tightly.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/ctx.hpp"
#include "core/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/time.hpp"

using namespace gdrshmem;
using sim::BackendKind;
using sim::Duration;
using sim::Engine;
using sim::Mailbox;
using sim::Process;
using sim::QueueKind;

namespace {

struct Result {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::int64_t virtual_end_ns = 0;
  std::size_t queue_hwm = 0;

  double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0;
  }
};

struct Config {
  BackendKind backend = BackendKind::kFibers;
  QueueKind queue = QueueKind::kWheel;
  bool batch = true;
  bool barrier = false;  ///< add a notification barrier per iteration
  bool time_lifecycle = false;  ///< include construct/spawn/teardown in wall_s
};

/// Message-rate workload: each PE posts a window of messages to its right
/// neighbour's mailbox, drains its own, and optionally joins a full-PE
/// barrier — so every message costs a blocked receive and a wakeup, and each
/// barrier release is a PE-count-sized same-instant burst.
Result run_message_rate(const Config& cfg, int pes, int iters, int window) {
  Result res;
  const double t0 = bench::wall_now();
  double run_wall = 0;
  {
    Engine eng(cfg.backend, cfg.queue);
    eng.set_batch_wakeups(cfg.batch);
    std::vector<Mailbox<int>> boxes(static_cast<std::size_t>(pes));
    sim::Notification barrier;
    int waiting = 0;

    for (int pe = 0; pe < pes; ++pe) {
      eng.spawn("pe" + std::to_string(pe), [&, pe](Process& p) {
        const int right = (pe + 1) % pes;
        for (int i = 0; i < iters; ++i) {
          for (int w = 0; w < window; ++w) {
            boxes[static_cast<std::size_t>(right)].post(w);
            p.delay(Duration::ns(5));  // per-message injection cost
          }
          for (int w = 0; w < window; ++w) {
            boxes[static_cast<std::size_t>(pe)].receive(p);
          }
          if (cfg.barrier) {
            if (++waiting == pes) {
              waiting = 0;
              barrier.notify();
            } else {
              p.await(barrier);
            }
          }
        }
      });
    }

    const double r0 = bench::wall_now();
    eng.run();
    run_wall = bench::wall_now() - r0;
    res.events = eng.events_executed();
    res.virtual_end_ns = (eng.now() - sim::Time::zero()).count_ns();
    res.queue_hwm = eng.queue_size_hwm();
  }  // engine teardown (stack release/unmap) inside the lifecycle window
  res.wall_s = cfg.time_lifecycle ? bench::wall_now() - t0 : run_wall;
  return res;
}

[[noreturn]] void die_divergence(const char* what, const Result& a,
                                 const Result& b) {
  std::fprintf(stderr,
               "FATAL: %s diverged (events %llu vs %llu, end %lld vs %lld "
               "ns) — determinism contract broken\n",
               what, static_cast<unsigned long long>(a.events),
               static_cast<unsigned long long>(b.events),
               static_cast<long long>(a.virtual_end_ns),
               static_cast<long long>(b.virtual_end_ns));
  std::exit(1);
}

/// Peak resident set of this process so far, in MB (10^6 bytes).
double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024 / 1e6;
}

struct RuntimeJob {
  double setup_s = 0;  ///< Runtime construction
  double wall_s = 0;   ///< construct + run + teardown
  std::uint64_t events = 0;
  std::int64_t virtual_end_ns = 0;  ///< when the last PE finished
};

/// One real-runtime job: `pes` PEs (2 per node, enhanced-gdr, small heaps)
/// run a barrier, an 8-byte put ring and a sum_to_all through Ctx. Aborts
/// when an answer is wrong.
RuntimeJob run_runtime_job(int pes) {
  hw::ClusterConfig cluster;
  cluster.num_nodes = pes / 2;
  cluster.pes_per_node = 2;
  core::RuntimeOptions opts;
  opts.transport = core::TransportKind::kEnhancedGdr;
  // The collectives sync pool holds O(np) flags per team slot and may take
  // at most a quarter of the host heap: 8 KiB per PE covers it.
  opts.host_heap_bytes =
      std::max<std::size_t>(1u << 20, static_cast<std::size_t>(pes) * (8u << 10));
  opts.gpu_heap_bytes = 1u << 20;

  RuntimeJob job;
  int wrong = 0;
  const double t0 = bench::wall_now();
  {
    core::Runtime rt(cluster, opts);
    job.setup_s = bench::wall_now() - t0;
    sim::Time last_done = sim::Time::zero();
    rt.run([&wrong, &last_done](core::Ctx& ctx) {
      const long me = ctx.my_pe(), np = ctx.n_pes();
      // src, ring slot, sum; shmalloc's barrier makes every slot live.
      auto* words = static_cast<long*>(ctx.shmalloc(3 * sizeof(long), core::Domain::kHost));
      long *src = words, *ring = words + 1, *sum = words + 2;
      *src = me;
      ctx.putmem(ring, src, sizeof(long), static_cast<int>((me + 1) % np));
      ctx.barrier_all();
      ctx.sum_to_all(sum, src, 1);
      if (*ring != (me + np - 1) % np || *sum != np * (np - 1) / 2) ++wrong;
      last_done = std::max(last_done, ctx.now());
    });
    job.events = rt.engine().events_executed();
    job.virtual_end_ns = (last_done - sim::Time::zero()).count_ns();
  }
  job.wall_s = bench::wall_now() - t0;
  if (wrong != 0) {
    std::fprintf(stderr, "FATAL: runtime sweep at %d PEs: %d PEs saw a wrong "
                 "ring or sum_to_all answer\n", pes, wrong);
    std::exit(1);
  }
  return job;
}

/// --scale-smoke: one 1K-PE barrier+message-rate round under a wall budget.
/// The budget is deliberately loose (CI boxes vary wildly); it catches
/// catastrophic scale regressions, not percent-level drift.
int scale_smoke() {
  constexpr double kBudgetSeconds = 20.0;
  Config cfg;
  cfg.barrier = true;
  cfg.time_lifecycle = true;
  Result warm = run_message_rate(cfg, 128, 2, 4);  // warm the stack pool
  Result r = run_message_rate(cfg, 1024, 4, 8);
  std::printf("scale-smoke: 1024-PE barrier+msgrate: %llu events, %.3f s "
              "(budget %.0f s), queue hwm %zu\n",
              static_cast<unsigned long long>(r.events), r.wall_s,
              kBudgetSeconds, r.queue_hwm);
  (void)warm;
  if (r.wall_s > kBudgetSeconds) {
    std::fprintf(stderr, "scale-smoke FAILED: %.3f s exceeds %.0f s budget\n",
                 r.wall_s, kBudgetSeconds);
    return 1;
  }
  if (r.queue_hwm < 1024) {
    std::fprintf(stderr, "scale-smoke FAILED: queue hwm %zu < PE count — "
                 "barrier burst did not reach the queue\n", r.queue_hwm);
    return 1;
  }
  std::printf("scale-smoke OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale-smoke") == 0) return scale_smoke();
  }

  // ---- 1. real-runtime sweep 64 -> 4096 PEs ------------------------------
  // The gated quantity is the exact event count (plus the virtual end time,
  // a virtual point); setup_ms and peak_rss_mb ride along as informational
  // fields.
  std::printf("== runtime sweep (enhanced-gdr, small heaps: barrier + put "
              "ring + sum_to_all through Ctx) ==\n");
  std::printf("%8s %12s %12s %12s %12s\n", "pes", "events", "setup (ms)",
              "wall (s)", "peak rss (MB)");
  for (int sweep_pes : {64, 256, 1024, 4096}) {
    RuntimeJob job = run_runtime_job(sweep_pes);
    const double rss = peak_rss_mb();
    std::printf("%8d %12llu %12.3f %12.4f %12.1f\n", sweep_pes,
                static_cast<unsigned long long>(job.events), job.setup_s * 1e3,
                job.wall_s, rss);
    const std::string name = "runtime/sweep/" + std::to_string(sweep_pes) + "pe";
    bench::add_wall_point(name, job.wall_s, job.events,
                          {{"setup_ms", job.setup_s * 1e3},
                           {"peak_rss_mb", rss}});
    bench::add_point(name + "/virtual_end",
                     static_cast<double>(job.virtual_end_ns) * 1e-3);
  }
  std::printf("\n");

  // ---- 2. backend A/B at 64 PEs (the original headline) ------------------
  const int pes = 64, iters = 50, window = 16;
  std::printf("== engine overhead: %d-PE message-rate workload, "
              "%d iters x window %d ==\n", pes, iters, window);

  Config threads_cfg, fibers_cfg;
  threads_cfg.backend = BackendKind::kThreads;
  // Warm both backends once (thread pool spin-up, stack pool, page faults).
  run_message_rate(fibers_cfg, 8, 2, 4);
  run_message_rate(threads_cfg, 8, 2, 4);

  Result threads = run_message_rate(threads_cfg, pes, iters, window);
  Result fibers = run_message_rate(fibers_cfg, pes, iters, window);

  std::printf("%-10s %12s %14s %16s\n", "backend", "events", "wall (s)",
              "events/sec");
  std::printf("%-10s %12llu %14.4f %16.0f\n", "threads",
              static_cast<unsigned long long>(threads.events), threads.wall_s,
              threads.events_per_sec());
  std::printf("%-10s %12llu %14.4f %16.0f\n", "fibers",
              static_cast<unsigned long long>(fibers.events), fibers.wall_s,
              fibers.events_per_sec());
  if (threads.events != fibers.events ||
      threads.virtual_end_ns != fibers.virtual_end_ns) {
    die_divergence("backends", threads, fibers);
  }
  const double speedup = fibers.events_per_sec() / threads.events_per_sec();
  std::printf("fiber speedup: %.1fx (target: >= 5x)\n\n", speedup);

  const std::string base = "engine/msgrate/" + std::to_string(pes) + "pe";
  bench::add_wall_point(base + "/threads", threads.wall_s, threads.events);
  bench::add_wall_point(base + "/fibers", fibers.wall_s, fibers.events);
  bench::add_point(base + "/virtual_end",
                   static_cast<double>(fibers.virtual_end_ns) * 1e-3);
  bench::add_metric("speedup_fibers_vs_threads", speedup);
  bench::add_metric("pes", static_cast<double>(pes));

  // ---- 3. PE-count sweep 64 -> 16384 (fibers) ----------------------------
  // iters*window shrinks as PEs grow so each point stays seconds-scale; the
  // gated quantity is events (exact) and events/sec (floor), not wall time.
  struct SweepPoint { int pes, iters, window; };
  const SweepPoint sweep[] = {
      {64, 50, 16}, {256, 24, 16}, {1024, 12, 8}, {4096, 6, 8}, {16384, 2, 6},
  };
  std::printf("== PE-count sweep (fibers, wheel queue, batched wakeups, "
              "barrier each iter) ==\n");
  std::printf("%8s %12s %14s %16s %12s\n", "pes", "events", "wall (s)",
              "events/sec", "queue hwm");
  for (const SweepPoint& sp : sweep) {
    Config cfg;
    cfg.barrier = true;
    Result r = run_message_rate(cfg, sp.pes, sp.iters, sp.window);
    std::printf("%8d %12llu %14.4f %16.0f %12zu\n", sp.pes,
                static_cast<unsigned long long>(r.events), r.wall_s,
                r.events_per_sec(), r.queue_hwm);
    const std::string name = "engine/sweep/" + std::to_string(sp.pes) + "pe";
    bench::add_wall_point(name + "/fibers", r.wall_s, r.events);
    bench::add_point(name + "/virtual_end",
                     static_cast<double>(r.virtual_end_ns) * 1e-3);
  }
  std::printf("\n");

  // ---- 4. 4K-PE job lifecycle --------------------------------------------
  // The unit under test is a *job*: construct, spawn 4K PEs, run a
  // barrier+message-rate round, tear down — repeated kJobs times in one
  // process, which is exactly how the engine is used (every test, bench
  // point, and sweep iteration is its own Engine lifetime). The window
  // covers the pooled stack reuse, the queue and the fiber switch.
  {
    constexpr int kPes = 4096, kJobs = 3;
    Config cfg;
    cfg.barrier = true;
    cfg.time_lifecycle = true;
    run_message_rate(cfg, kPes, 1, 1);  // warm the pool at 4K geometry
    Result total;
    for (int job = 0; job < kJobs; ++job) {
      Result r = run_message_rate(cfg, kPes, 1, 4);
      total.wall_s += r.wall_s;
      total.events += r.events;
      if (job == 0) {
        total.virtual_end_ns = r.virtual_end_ns;
      } else if (r.virtual_end_ns != total.virtual_end_ns) {
        die_divergence("4K lifecycle jobs", total, r);
      }
    }
    std::printf("== 4K-PE lifecycle (%d jobs, construct+spawn+run+teardown "
                "each) ==\n%.4f s, %llu events\n\n",
                kJobs, total.wall_s,
                static_cast<unsigned long long>(total.events));
    bench::add_wall_point("engine/lifecycle/4096pe", total.wall_s,
                          total.events);
  }

  // ---- 5. queue/batching determinism cross-checks ------------------------
  {
    Config heap_cfg, wheel_cfg;
    heap_cfg.queue = QueueKind::kHeap;
    heap_cfg.barrier = wheel_cfg.barrier = true;
    Result h = run_message_rate(heap_cfg, 256, 6, 8);
    Result w = run_message_rate(wheel_cfg, 256, 6, 8);
    if (h.events != w.events || h.virtual_end_ns != w.virtual_end_ns) {
      die_divergence("heap/wheel queues", h, w);
    }
    Config nobatch_cfg = wheel_cfg;
    nobatch_cfg.batch = false;
    Result nb = run_message_rate(nobatch_cfg, 256, 6, 8);
    if (nb.virtual_end_ns != w.virtual_end_ns) {
      die_divergence("batching (virtual time)", nb, w);
    }
    std::printf("cross-check OK: heap == wheel (%llu events), batching "
                "preserves virtual time\n\n",
                static_cast<unsigned long long>(h.events));
  }

  return bench::report_and_run(argc, argv, "engine");
}
