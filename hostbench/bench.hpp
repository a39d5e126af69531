// Host-cost benchmark: shared types between the harness (main.cpp) and the
// seeded workloads (workloads.cpp).
//
// One *episode* runs one generated OpenSHMEM program end to end: Runtime
// construction (setup), Runtime::run, Runtime destruction (teardown). A
// benchmark run repeats episodes of the same generated inputs until its time
// budget is spent and reports medians. Every episode checks the program's
// answers and returns an exact fingerprint (virtual time, event count,
// per-protocol and per-link counts) that must repeat bit for bit.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ctx.hpp"

namespace hostbench {

/// Wall clock for every host-time number, in seconds since an arbitrary
/// origin.
inline double wall_now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// OpenSHMEM call families the programs issue through the Recorder.
enum class Family { kPut, kGet, kAmo, kQuiet, kBarrier, kAllreduce, kShmalloc, kCount_ };
constexpr std::size_t kFamilies = static_cast<std::size_t>(Family::kCount_);
/// "put", "get", ... as used in metric names ("core.put.calls").
const char* family_name(Family f);

/// One timed interval. `parent` indexes the recorder's span list (-1 for a
/// root); `pe` and `iter` identify the PE and program iteration, and
/// `family` the call family of a call span (-1 where not applicable).
struct Span {
  const char* name;
  double start;
  double end;
  int parent;
  int pe;
  int iter;
  int family;
};

/// Counts every OpenSHMEM call a program makes; when tracing, also keeps a
/// span around each call (and around setup / run / teardown / each PE's
/// program) plus the call's modelled latency from Ctx::now(). Untraced
/// episodes pay one counter increment per call.
class Recorder {
 public:
  Recorder(int num_pes, bool traced);

  bool traced() const { return traced_; }

  /// Open/close a span; returns its index (-1 when untraced).
  int open(const char* name, int parent, int pe = -1, int iter = -1, int family = -1);
  void close(int span);

  /// The PE program's enclosing span (parent of its call spans).
  void begin_program(int pe, int run_span);
  void end_program(int pe);

  /// Issue one OpenSHMEM call `fn` of family `f` on behalf of ctx's PE.
  template <typename Fn>
  void call(Family f, gdrshmem::core::Ctx& ctx, int iter, Fn&& fn);

  std::uint64_t calls(Family f) const { return calls_[static_cast<std::size_t>(f)]; }
  std::uint64_t total_calls() const;
  const std::vector<Span>& spans() const { return spans_; }
  /// Modelled latencies (ns) per family, traced episodes only.
  const std::vector<std::int64_t>& virt_ns(Family f) const {
    return virt_ns_[static_cast<std::size_t>(f)];
  }

 private:
  int begin_call(Family f, int pe, int iter);
  void end_call(Family f, int span, std::int64_t virt_ns);

  bool traced_;
  std::array<std::uint64_t, kFamilies> calls_{};
  std::vector<Span> spans_;
  std::vector<int> program_span_;
  std::array<std::vector<std::int64_t>, kFamilies> virt_ns_;
};

template <typename Fn>
void Recorder::call(Family f, gdrshmem::core::Ctx& ctx, int iter, Fn&& fn) {
  if (!traced_) {
    ++calls_[static_cast<std::size_t>(f)];
    fn();
    return;
  }
  const gdrshmem::sim::Time v0 = ctx.now();
  const int span = begin_call(f, ctx.my_pe(), iter);
  fn();
  end_call(f, span, (ctx.now() - v0).count_ns());
}

/// What one episode measured. `exact` holds every count that must repeat
/// bit for bit across episodes of one workload and seed (it includes
/// "virtual_ns"); `layer` holds per-layer host-time figures (traced only).
struct Episode {
  double setup_s = 0;
  double run_s = 0;
  double teardown_s = 0;
  double wall_s = 0;
  /// Units of program work done in run_s: OpenSHMEM calls, or lattice-site
  /// updates for lbm.
  double work = 0;
  std::uint64_t checks = 0;
  std::uint64_t failures = 0;
  std::vector<std::string> failure_notes;
  std::map<std::string, double> exact;
  std::map<std::string, double> layer;
  std::unique_ptr<Recorder> recorder;  // traced episodes only
};

/// Episode kinds: timed (untraced), traced, and lbm's cost-only companion.
enum class Mode { kTimed, kTraced, kCostOnly };

/// Problem size: the benchmark's sizes, or the small self-test sizes.
enum class Size { kFull, kSmall };

/// A seeded workload. The constructor draws every input from the seed;
/// episodes see only the generated inputs.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Episode episode(Mode mode) = 0;
  /// Digest of the generated inputs (the self-test checks that a second
  /// seed changes them).
  virtual std::uint64_t input_digest() const = 0;
  /// Whether Mode::kCostOnly applies (only lbm has a cost-only companion).
  virtual bool has_cost_only() const { return false; }
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size);
const std::vector<std::string>& workload_names();

}  // namespace hostbench
