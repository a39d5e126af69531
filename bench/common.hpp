// Shared plumbing for the per-table/per-figure benchmark binaries.
//
// Each binary computes its experiment data once (virtual-time simulation),
// prints the paper-style table/series, and registers one google-benchmark
// entry per data point that reports the cached virtual time as manual time —
// so `./bench_figX` emits both the paper-shaped table and standard
// benchmark output without re-running the simulations.
//
// Every bench also writes BENCH_<tag>.json (uniform schema, rendered by the
// same core::json::Writer as the runtime's JSON report) — override the
// destination with `--out <path>`. scripts/check_perf.sh compares the
// deterministic virtual_us points in these files against the committed
// baselines in bench/baselines/.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/json.hpp"

namespace gdrshmem::bench {

struct Point {
  std::string name;      // benchmark entry name, e.g. "fig6/put/enhanced/4B"
  double virtual_us = 0; // measured virtual time for the op/run
};

inline std::vector<Point>& points() {
  static std::vector<Point> pts;
  return pts;
}

inline void add_point(std::string name, double virtual_us) {
  points().push_back(Point{std::move(name), virtual_us});
}

// ---------------------------------------------------------------------------
// Wall-clock reporting.
//
// The paper-figure benches report *virtual* time (what the simulated
// hardware would take); engine-efficiency benches report *wall* time (what
// the simulation itself costs to run). Wall points carry an event count so
// throughput (events/sec) is comparable across engine changes. The perf
// gate compares virtual_us points tightly (deterministic), wall-point
// `events` exactly (also deterministic), and events_per_sec only against a
// loose machine-variance floor (PERF_WALL_FRAC).

struct WallPoint {
  std::string name;       // e.g. "engine/msgrate/fibers/64pe"
  double wall_seconds = 0;
  std::uint64_t events = 0;  // simulation events executed during the run
  // Informational machine-dependent fields (e.g. setup_ms, peak_rss_mb),
  // written beside the gated ones; the perf gate ignores them.
  std::vector<std::pair<std::string, double>> extras;

  double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0;
  }
};

inline std::vector<WallPoint>& wall_points() {
  static std::vector<WallPoint> pts;
  return pts;
}

inline void add_wall_point(
    std::string name, double wall_seconds, std::uint64_t events,
    std::vector<std::pair<std::string, double>> extras = {}) {
  wall_points().push_back(
      WallPoint{std::move(name), wall_seconds, events, std::move(extras)});
}

/// Scalar headline metrics (speedups, configuration), landed in the JSON
/// under "metrics".
inline std::vector<std::pair<std::string, double>>& scalar_metrics() {
  static std::vector<std::pair<std::string, double>> ms;
  return ms;
}

inline void add_metric(std::string name, double v) {
  scalar_metrics().emplace_back(std::move(name), v);
}

/// Monotonic wall-clock stamp for measuring simulation cost.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// JSON output + google-benchmark driver.

/// Strip `--out <path>` / `--out=<path>` from argv (google-benchmark rejects
/// flags it does not know). Returns the path, or "" when absent.
inline std::string take_out_flag(int& argc, char** argv) {
  std::string out;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    std::string_view arg(argv[r]);
    if (arg == "--out" && r + 1 < argc) {
      out = argv[++r];
    } else if (arg.rfind("--out=", 0) == 0) {
      out = std::string(arg.substr(6));
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  return out;
}

/// Write every registered point to `path` (default: BENCH_<tag>.json in the
/// working directory) in the uniform schema the perf gate consumes.
inline void write_bench_json(const std::string& tag, std::string path = "") {
  if (path.empty()) path = "BENCH_" + tag + ".json";
  core::json::Writer w;
  w.begin_object();
  w.field("schema", 1);
  w.field("bench", tag);
  w.key("points").begin_array();
  for (const Point& p : points()) {
    w.begin_object();
    w.field("name", p.name);
    w.field_fixed("virtual_us", p.virtual_us, 3);
    w.end_object();
  }
  w.end_array();
  w.key("wall_points").begin_array();
  for (const WallPoint& p : wall_points()) {
    w.begin_object();
    w.field("name", p.name);
    w.field_fixed("wall_seconds", p.wall_seconds, 6);
    w.field("events", p.events);
    w.field_fixed("events_per_sec", p.events_per_sec(), 1);
    for (const auto& [k, v] : p.extras) w.field_fixed(k, v, 3);
    w.end_object();
  }
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [k, v] : scalar_metrics()) w.field(k, v);
  w.end_object();
  w.end_object();
  std::ofstream os(path);
  os << w.str() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

/// Register every wall point as a manual-time benchmark entry (so engine
/// benches appear in standard google-benchmark output too).
inline void register_wall_benchmarks() {
  for (const WallPoint& p : wall_points()) {
    benchmark::RegisterBenchmark(p.name.c_str(), [p](benchmark::State& state) {
      for (auto _ : state) {
        state.SetIterationTime(p.wall_seconds);
      }
      state.counters["events_per_sec"] = p.events_per_sec();
      state.counters["events"] = static_cast<double>(p.events);
    })->UseManualTime()->Iterations(1);
  }
}

/// Register every cached point as a manual-time benchmark, run them, and
/// persist BENCH_<tag>.json (or the --out destination).
inline int report_and_run(int argc, char** argv, const std::string& tag) {
  std::string out = take_out_flag(argc, argv);
  for (const Point& p : points()) {
    benchmark::RegisterBenchmark(p.name.c_str(), [p](benchmark::State& state) {
      for (auto _ : state) {
        state.SetIterationTime(p.virtual_us * 1e-6);
      }
      state.counters["virtual_us"] = p.virtual_us;
    })->UseManualTime()->Iterations(1);
  }
  register_wall_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_bench_json(tag, out);
  return 0;
}

/// Pretty size label (paper figures use powers of two).
inline std::string size_label(std::size_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20)) {
    std::snprintf(buf, sizeof buf, "%zuM", bytes >> 20);
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof buf, "%zuK", bytes >> 10);
  } else {
    std::snprintf(buf, sizeof buf, "%zuB", bytes);
  }
  return buf;
}

}  // namespace gdrshmem::bench
