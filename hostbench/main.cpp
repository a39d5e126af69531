// hostbench: the host-cost benchmark harness.
//
//   hostbench --workload <pe_scale|rma_mix|lbm> --seed <n> --seconds <s>
//             --trace <0|1> [--small] [--spans <file>]
//   hostbench --selftest
//
// A run generates the workload's inputs from the seed, runs one untimed
// warm-up episode, then repeats episodes of the same inputs until `seconds`
// have passed (at least three rounds) and reports medians. With --trace 0
// it prints the end-to-end metrics; with --trace 1 it alternates timed and
// traced episodes (plus lbm's cost-only companion) and prints the per-layer
// metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every episode checks the program's answers, and every episode of a run
// must reproduce the warm-up's exact counts (virtual time, events,
// per-protocol and per-link counts) bit for bit. Any failure makes
// `correct` false and the exit code 1.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace hostbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool small = false;
  bool selftest = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload <pe_scale|rma_mix|lbm> --seed <n> "
               "--seconds <s> --trace <0|1> [--small] [--spans <file>]\n"
               "       hostbench --selftest\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
        have_seconds = true;
      } else if (k == "--trace") {
        std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
        have_trace = true;
      } else if (k == "--small") {
        a.small = true;
      } else if (k == "--spans") {
        a.spans_path = value();
      } else if (k == "--selftest") {
        a.selftest = true;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.selftest) return a;
  if (std::find(workload_names().begin(), workload_names().end(), a.workload) ==
      workload_names().end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) usage("--seed, --seconds and --trace are required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Episodes of one run, grouped by mode, plus the running check tally.
struct Run {
  std::vector<Episode> timed, traced, cost_only;
  std::map<std::string, double> reference;  // exact counts of the warm-up
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Record an episode's answer checks and its determinism check against
  /// the warm-up episode (cost-only episodes must match its virtual time).
  void absorb(Episode ep, Mode mode) {
    std::fprintf(stderr, "hostbench: episode %-9s setup %.4f s  run %.4f s  teardown %.4f s\n",
                 mode == Mode::kTimed ? "timed" : mode == Mode::kTraced ? "traced" : "cost-only",
                 ep.setup_s, ep.run_s, ep.teardown_s);
    attempted += ep.checks + 1;
    failed += ep.failures;
    for (const auto& note : ep.failure_notes) std::fprintf(stderr, "hostbench: FAIL %s\n", note.c_str());
    bool same = mode == Mode::kCostOnly
                    ? ep.exact.at("virtual_ns") == reference.at("virtual_ns")
                    : ep.exact == reference;
    if (!same) {
      ++failed;
      std::fprintf(stderr, "hostbench: FAIL exact counts differ from the warm-up episode%s\n",
                   mode == Mode::kCostOnly ? " (cost-only virtual time)" : "");
      for (const auto& [k, v] : ep.exact) {
        auto it = reference.find(k);
        if (it == reference.end() || it->second != v) {
          std::fprintf(stderr, "hostbench:   %s = %.17g (warm-up %.17g)\n", k.c_str(), v,
                       it == reference.end() ? NAN : it->second);
        }
      }
    }
    switch (mode) {
      case Mode::kTimed: timed.push_back(std::move(ep)); break;
      case Mode::kTraced:
        // Only the last traced episode's spans are written out.
        if (!traced.empty()) traced.back().recorder.reset();
        traced.push_back(std::move(ep));
        break;
      case Mode::kCostOnly: cost_only.push_back(std::move(ep)); break;
    }
  }
};

template <typename Get>
double median_of(const std::vector<Episode>& eps, Get get) {
  std::vector<double> v;
  for (const auto& e : eps) v.push_back(get(e));
  return median(v);
}

std::vector<Metric> end_to_end(const Run& run) {
  const auto& eps = run.timed;
  return {
      {"setup_s", median_of(eps, [](const Episode& e) { return e.setup_s; }), "s"},
      {"run_s", median_of(eps, [](const Episode& e) { return e.run_s; }), "s"},
      {"teardown_s", median_of(eps, [](const Episode& e) { return e.teardown_s; }), "s"},
      {"wall_s", median_of(eps, [](const Episode& e) { return e.wall_s; }), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ops_per_s", median_of(eps, [](const Episode& e) { return e.work / e.run_s; }), "1/s"},
      {"virtual_us", run.reference.at("virtual_ns") * 1e-3, "us"},
  };
}

std::vector<Metric> per_layer(const Run& run, const std::string& workload) {
  auto exact = [&](const std::string& k) {
    auto it = run.reference.find(k);
    return it == run.reference.end() ? 0.0 : it->second;
  };
  auto traced_layer = [&](const std::string& k) {
    return median_of(run.traced, [&](const Episode& e) {
      auto it = e.layer.find(k);
      return it == e.layer.end() ? 0.0 : it->second;
    });
  };
  auto run_s = [](const Episode& e) { return e.run_s; };
  const double timed_run_s = median_of(run.timed, run_s);
  const double events = exact("sim.events");
  const double hits = exact("ib.reg_cache.hits");
  const double lookups = hits + exact("ib.reg_cache.misses");
  const bool lbm = workload == "lbm";

  std::vector<Metric> m = {
      {"sim.events", events, "count"},
      {"sim.ns_per_event", events > 0 ? timed_run_s / events * 1e9 : 0.0, "ns"},
      {"sim.queue_hwm", exact("sim.queue_hwm"), "count"},
      {"sim.slot_pool_hwm", exact("sim.slot_pool_hwm"), "count"},
      {"hw.gpu_pcie_bytes", exact("hw.gpu_pcie_bytes"), "B"},
      {"hw.hca_pcie_bytes", exact("hw.hca_pcie_bytes"), "B"},
      {"hw.ib_port_bytes", exact("hw.ib_port_bytes"), "B"},
      {"hw.host_mem_bytes", exact("hw.host_mem_bytes"), "B"},
      {"cudart.copy_ops", exact("cudart.copy_ops"), "count"},
      {"cudart.copy_bytes", exact("cudart.copy_bytes"), "B"},
      {"ib.ops_posted", exact("ib.ops_posted"), "count"},
      {"ib.reg_cache.hits", hits, "count"},
      {"ib.reg_cache.misses", exact("ib.reg_cache.misses"), "count"},
      {"ib.reg_cache.lookups", lookups, "count"},
      {"ib.reg_cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio"},
  };
  for (std::size_t i = 0; i < static_cast<std::size_t>(gdrshmem::core::Protocol::kCount_); ++i) {
    std::string base =
        std::string("core.proto.") + gdrshmem::core::to_string(static_cast<gdrshmem::core::Protocol>(i));
    m.push_back({base + ".ops", exact(base + ".ops"), "count"});
    m.push_back({base + ".bytes", exact(base + ".bytes"), "B"});
  }
  m.push_back({"core.proxy.gets_served", exact("core.proxy.gets_served"), "count"});
  m.push_back({"core.proxy.puts_served", exact("core.proxy.puts_served"), "count"});
  for (std::size_t f = 0; f < kFamilies; ++f) {
    std::string base = std::string("core.") + family_name(static_cast<Family>(f));
    m.push_back({base + ".calls", exact(base + ".calls"), "count"});
    m.push_back({base + ".wall_s", traced_layer(base + ".wall_s"), "s"});
    m.push_back({base + ".virt_p50_us", traced_layer(base + ".virt_p50_us"), "us"});
    m.push_back({base + ".virt_p99_us", traced_layer(base + ".virt_p99_us"), "us"});
  }
  const double functional_run_s = median_of(run.traced, run_s);
  m.push_back({"apps.program_self_s", traced_layer("apps.program_self_s"), "s"});
  m.push_back({"apps.lbm.compute_s",
               lbm ? functional_run_s - median_of(run.cost_only, run_s) : 0.0, "s"});
  m.push_back({"apps.lbm.halo_bytes_per_step", traced_layer("apps.lbm.halo_bytes_per_step"),
               "B"});
  m.push_back({"apps.lbm.site_updates_per_s",
               lbm ? median_of(run.traced, [](const Episode& e) { return e.work / e.run_s; })
                   : 0.0,
               "1/s"});
  m.push_back({"failed_frac",
               run.attempted ? static_cast<double>(run.failed) / static_cast<double>(run.attempted)
                             : 0.0,
               "ratio"});
  m.push_back({"trace_overhead_frac", timed_run_s > 0 ? functional_run_s / timed_run_s - 1 : 0.0,
               "ratio"});
  return m;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Spans of the last traced episode, one per line (times in seconds from
/// the episode's first span).
void write_spans(const std::string& path, const Recorder& rec) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "hostbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  const auto& spans = rec.spans();
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  std::fprintf(f, "id\tname\tstart_s\tend_s\tparent\tpe\titer\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%s\t%.9f\t%.9f\t%d\t%d\t%d\n", i, s.name, s.start - origin,
                 s.end - origin, s.parent, s.pe, s.iter);
  }
  std::fclose(f);
}

int run_benchmark(const Args& a) {
  auto w = make_workload(a.workload, a.seed, a.small ? Size::kSmall : Size::kFull);
  Run run;

  Episode warm = w->episode(Mode::kTimed);
  run.reference = warm.exact;
  run.attempted += warm.checks;
  run.failed += warm.failures;
  for (const auto& note : warm.failure_notes) std::fprintf(stderr, "hostbench: FAIL %s\n", note.c_str());

  std::vector<Mode> round = {Mode::kTimed};
  if (a.trace) {
    round.push_back(Mode::kTraced);
    if (w->has_cost_only()) round.push_back(Mode::kCostOnly);
  }
  constexpr int kMinRounds = 3;
  const double start = wall_now();
  for (int r = 0; r < kMinRounds || wall_now() - start < a.seconds; ++r) {
    for (Mode m : round) run.absorb(w->episode(m), m);
  }

  std::printf("hostbench: workload=%s seed=%llu episodes timed=%zu traced=%zu cost_only=%zu\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), run.timed.size(),
              run.traced.size(), run.cost_only.size());
  if (a.trace && !a.spans_path.empty() && !run.traced.empty()) {
    write_spans(a.spans_path, *run.traced.back().recorder);
  }
  auto metrics = a.trace ? per_layer(run, a.workload) : end_to_end(run);
  print_result(run.failed == 0, run.attempted, run.failed, metrics);
  return run.failed == 0 ? 0 : 1;
}

/// The benchmark's own determinism test, on the small sizes: a workload run
/// twice with one seed (timed, then traced, from freshly generated inputs)
/// gives identical exact counts and passes every check; lbm's cost-only
/// companion reaches the functional run's virtual time; a second seed
/// changes every workload's inputs, and on rma_mix it changes the op stream
/// and the exact counts and still passes every check.
int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  const std::uint64_t seed = 1, other = 2;
  for (const auto& name : workload_names()) {
    Episode a = make_workload(name, seed, Size::kSmall)->episode(Mode::kTimed);
    auto w = make_workload(name, seed, Size::kSmall);
    Episode b = w->episode(Mode::kTraced);
    expect(a.failures == 0 && b.failures == 0 && a.checks > 0,
           name + ": every answer check passes (" + std::to_string(a.checks) + " checks)");
    expect(a.exact == b.exact && !a.exact.empty(),
           name + ": same seed, identical virtual time and exact counts");
    if (w->has_cost_only()) {
      Episode c = w->episode(Mode::kCostOnly);
      expect(c.failures == 0 && c.exact.at("virtual_ns") == a.exact.at("virtual_ns"),
             name + ": cost-only companion has the functional run's virtual time");
    }
    auto w2 = make_workload(name, other, Size::kSmall);
    expect(w->input_digest() != w2->input_digest(), name + ": a second seed changes the inputs");
    if (name == "rma_mix") {
      Episode e2 = w2->episode(Mode::kTimed);
      expect(e2.exact != a.exact, name + ": a second seed changes the exact counts");
      expect(e2.failures == 0 && e2.checks > 0, name + ": the second seed passes every check");
    }
  }
  std::printf("selftest: %s\n", failures ? "FAILED" : "ok");
  return failures ? 1 : 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  // A fixed mmap threshold keeps glibc from raising it after the first
  // Runtime frees its heaps, so every episode's setup maps and faults fresh
  // memory as a new process would.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // The simulator is single-threaded: stay on the CPU we started on, so a
  // migration never splits a measurement and teardown's TLB shootdowns stay
  // local to one CPU.
  if (int cpu = sched_getcpu(); cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
  }
  auto args = hostbench::parse(argc, argv);
  try {
    return args.selftest ? hostbench::selftest() : hostbench::run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: error: %s\n", e.what());
    return 1;
  }
}
