// The three seeded programs: pe_scale, rma_mix and lbm. Each generator draws
// every input from the seed; the SPMD program and its answer checks see only
// the generated inputs.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "apps/lbm.hpp"
#include "bench.hpp"
#include "core/ctx.hpp"
#include "core/proxy.hpp"
#include "core/runtime.hpp"
#include "core/tuning.hpp"
#include "sim/rng.hpp"

namespace hostbench {

using gdrshmem::core::Ctx;
using gdrshmem::core::Domain;
using gdrshmem::core::Protocol;
using gdrshmem::core::Runtime;
using gdrshmem::core::RuntimeOptions;
using gdrshmem::sim::Rng;
namespace hw = gdrshmem::hw;

// ---------------------------------------------------------------------------
// Recorder

namespace {
constexpr const char* kProgramSpan = "apps.program";
}  // namespace

const char* family_name(Family f) {
  switch (f) {
    case Family::kPut: return "put";
    case Family::kGet: return "get";
    case Family::kAmo: return "amo";
    case Family::kQuiet: return "quiet";
    case Family::kBarrier: return "barrier";
    case Family::kAllreduce: return "allreduce";
    case Family::kShmalloc: return "shmalloc";
    case Family::kCount_: break;
  }
  return "?";
}

Recorder::Recorder(int num_pes, bool traced)
    : traced_(traced), program_span_(static_cast<std::size_t>(num_pes), -1) {}

int Recorder::open(const char* name, int parent, int pe, int iter, int family) {
  if (!traced_) return -1;
  spans_.push_back({name, wall_now(), 0.0, parent, pe, iter, family});
  return static_cast<int>(spans_.size()) - 1;
}

void Recorder::close(int span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end = wall_now();
}

void Recorder::begin_program(int pe, int run_span) {
  program_span_[static_cast<std::size_t>(pe)] = open(kProgramSpan, run_span, pe);
}

void Recorder::end_program(int pe) { close(program_span_[static_cast<std::size_t>(pe)]); }

std::uint64_t Recorder::total_calls() const {
  std::uint64_t n = 0;
  for (auto c : calls_) n += c;
  return n;
}

int Recorder::begin_call(Family f, int pe, int iter) {
  static constexpr const char* kSpanNames[kFamilies] = {
      "core.put", "core.get", "core.amo", "core.quiet", "core.barrier", "core.allreduce",
      "core.shmalloc"};
  const auto i = static_cast<std::size_t>(f);
  ++calls_[i];
  return open(kSpanNames[i], program_span_[static_cast<std::size_t>(pe)], pe, iter,
              static_cast<int>(i));
}

void Recorder::end_call(Family f, int span, std::int64_t virt_ns) {
  close(span);
  virt_ns_[static_cast<std::size_t>(f)].push_back(virt_ns);
}


namespace {

// ---------------------------------------------------------------------------
// Shared episode machinery

constexpr std::size_t kProtocols = static_cast<std::size_t>(Protocol::kCount_);

/// Fixed runtime configuration: enhanced-gdr, rc, 1 rail, fibers, timing
/// wheel, batched wakeups, no tracing, no faults — whatever GDRSHMEM_*
/// variables the environment holds.
RuntimeOptions bench_options() {
  RuntimeOptions o;
  o.transport = gdrshmem::core::TransportKind::kEnhancedGdr;
  o.tuning = gdrshmem::core::Tuning{};
  o.sim_backend = gdrshmem::sim::BackendKind::kFibers;
  o.sim_queue = gdrshmem::sim::QueueKind::kWheel;
  o.sim_batch = true;
  o.trace = false;
  o.faults = gdrshmem::sim::FaultPlan{};
  o.ib_transport = gdrshmem::ib::QpKind::kRc;
  o.ib_rails = 1;
  o.ib_srq = false;
  return o;
}

/// Uniform in [lo, hi]: the generators draw every input through this and Rng.
std::uint64_t uniform(Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + rng.next_below(hi - lo + 1);
}

hw::ClusterConfig cluster_of(int nodes, int pes_per_node) {
  hw::ClusterConfig c;
  c.num_nodes = nodes;
  c.pes_per_node = pes_per_node;
  return c;
}

/// Answer-check tally shared by every PE of one episode (fibers run on one
/// OS thread, so no locking).
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (notes.size() < 8) notes.push_back(what);
  }
};

bool is_copy_engine(Protocol p) {
  switch (p) {
    case Protocol::kIpcCopy:
    case Protocol::kIpcStaged:
    case Protocol::kShmemPtrCopy:
    case Protocol::kHostStagedGet:
    case Protocol::kPipelineGdrWrite:
      return true;
    default:
      return false;
  }
}

/// Read every layer's public counters after a run. All of them are exact.
void read_counters(Runtime& rt, const Recorder& rec, Episode& ep) {
  auto& x = ep.exact;
  auto& eng = rt.engine();
  x["virtual_ns"] = static_cast<double>(eng.now().count_ns());
  x["sim.events"] = static_cast<double>(eng.events_executed());
  x["sim.queue_hwm"] = static_cast<double>(eng.queue_size_hwm());
  x["sim.slot_pool_hwm"] = static_cast<double>(eng.slot_pool_hwm());

  double gpu_pcie = 0, hca_pcie = 0, ib_port = 0, host_mem = 0;
  auto& cl = rt.cluster();
  for (int n = 0; n < cl.num_nodes(); ++n) {
    auto& node = cl.node(n);
    for (auto& g : node.gpus) gpu_pcie += static_cast<double>(g.pcie->bytes_transferred());
    for (auto& h : node.hcas) {
      hca_pcie += static_cast<double>(h.pcie->bytes_transferred());
      ib_port += static_cast<double>(h.port->bytes_transferred());
    }
    host_mem += static_cast<double>(node.host_mem->bytes_transferred());
  }
  x["hw.gpu_pcie_bytes"] = gpu_pcie;
  x["hw.hca_pcie_bytes"] = hca_pcie;
  x["hw.ib_port_bytes"] = ib_port;
  x["hw.host_mem_bytes"] = host_mem;

  const auto& st = rt.stats();
  double copy_ops = 0, copy_bytes = 0;
  for (std::size_t i = 0; i < kProtocols; ++i) {
    auto p = static_cast<Protocol>(i);
    std::string base = std::string("core.proto.") + gdrshmem::core::to_string(p);
    auto ops = static_cast<double>(st.ops_by_protocol[i]);
    auto bytes = static_cast<double>(st.bytes_by_protocol[i]);
    x[base + ".ops"] = ops;
    x[base + ".bytes"] = bytes;
    if (is_copy_engine(p)) {
      copy_ops += ops;
      copy_bytes += bytes;
    }
  }
  x["cudart.copy_ops"] = copy_ops;
  x["cudart.copy_bytes"] = copy_bytes;

  x["ib.ops_posted"] = static_cast<double>(rt.ib().ops_posted());
  x["ib.reg_cache.hits"] = static_cast<double>(rt.ib().reg_cache().hits());
  x["ib.reg_cache.misses"] = static_cast<double>(rt.ib().reg_cache().misses());

  double gets = 0, puts = 0;
  if (rt.proxies_enabled()) {
    for (int n = 0; n < cl.num_nodes(); ++n) {
      gets += static_cast<double>(rt.proxy(n).gets_served());
      puts += static_cast<double>(rt.proxy(n).puts_served());
    }
  }
  x["core.proxy.gets_served"] = gets;
  x["core.proxy.puts_served"] = puts;

  for (std::size_t f = 0; f < kFamilies; ++f) {
    auto fam = static_cast<Family>(f);
    x[std::string("core.") + family_name(fam) + ".calls"] =
        static_cast<double>(rec.calls(fam));
  }
}

/// Nearest-rank percentile of modelled latencies, in microseconds.
double percentile_us(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) * 1e-3;
}

/// Host-time attribution from a traced episode's spans: inclusive wall time
/// per call family, modelled latency percentiles, and the programs' own
/// time between calls (program span minus its call spans).
void attribute_spans(const Recorder& rec, Episode& ep) {
  const auto& spans = rec.spans();
  std::array<double, kFamilies> fam_wall{};
  std::vector<double> child_time(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    if (s.family >= 0) fam_wall[static_cast<std::size_t>(s.family)] += s.end - s.start;
  }
  double self = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, kProgramSpan) == 0) {
      self += spans[i].end - spans[i].start - child_time[i];
    }
  }
  ep.layer["apps.program_self_s"] = self;
  for (std::size_t f = 0; f < kFamilies; ++f) {
    auto fam = static_cast<Family>(f);
    std::string base = std::string("core.") + family_name(fam);
    ep.layer[base + ".wall_s"] = fam_wall[f];
    ep.layer[base + ".virt_p50_us"] = percentile_us(rec.virt_ns(fam), 0.50);
    ep.layer[base + ".virt_p99_us"] = percentile_us(rec.virt_ns(fam), 0.99);
  }
}

/// One Runtime episode: time construction, run and destruction separately,
/// read the counters between run and destruction (untimed).
template <typename Program>
Episode runtime_episode(const hw::ClusterConfig& cluster, const RuntimeOptions& opts,
                        Mode mode, Program&& program) {
  Episode ep;
  const int np = cluster.num_nodes * cluster.pes_per_node;
  auto rec = std::make_unique<Recorder>(np, mode == Mode::kTraced);
  Checks checks;

  int root = rec->open("episode", -1);
  int span = rec->open("core.setup", root);
  double t0 = wall_now();
  auto rt = std::make_unique<Runtime>(cluster, opts);
  double t1 = wall_now();
  rec->close(span);

  span = rec->open("core.run", root);
  rt->run([&](Ctx& ctx) {
    rec->begin_program(ctx.my_pe(), span);
    program(ctx, *rec, checks);
    rec->end_program(ctx.my_pe());
  });
  double t2 = wall_now();
  rec->close(span);

  read_counters(*rt, *rec, ep);

  span = rec->open("core.teardown", root);
  double t3 = wall_now();
  rt.reset();
  double t4 = wall_now();
  rec->close(span);
  rec->close(root);

  ep.setup_s = t1 - t0;
  ep.run_s = t2 - t1;
  ep.teardown_s = t4 - t3;
  ep.wall_s = ep.setup_s + ep.run_s + ep.teardown_s;
  ep.work = static_cast<double>(rec->total_calls());
  ep.checks = checks.attempted;
  ep.failures = checks.failed;
  ep.failure_notes = std::move(checks.notes);
  if (rec->traced()) {
    attribute_spans(*rec, ep);
    ep.recorder = std::move(rec);
  }
  return ep;
}

/// FNV-1a over raw bytes: digest of generated inputs.
std::uint64_t digest(const void* p, std::size_t n, std::uint64_t h = 1469598103934665603ULL) {
  auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  return h;
}

template <typename T>
std::uint64_t digest_vec(const std::vector<T>& v, std::uint64_t h) {
  return digest(v.data(), v.size() * sizeof(T), h);
}

// ---------------------------------------------------------------------------
// pe_scale: many PEs, little data. Per iteration every PE puts a short
// payload around a GPU-heap ring with a seeded shift and size, then
// barrier_all, then an 8-element sum_to_all; both answers are checked.

class PeScale final : public Workload {
 public:
  static constexpr std::size_t kMaxWords = 32;
  static constexpr std::size_t kReduce = 8;

  PeScale(std::uint64_t seed, Size size)
      : nodes_(size == Size::kFull ? 128 : 8),
        iters_(size == Size::kFull ? 30 : 3) {
    const auto np = static_cast<std::size_t>(num_pes());
    Rng rng(seed);
    for (int it = 0; it < iters_; ++it) {
      shift_.push_back(static_cast<int>(uniform(rng, 1, np - 1)));
      words_.push_back(uniform(rng, 1, kMaxWords));
    }
    payload_.resize(static_cast<std::size_t>(iters_) * np * kMaxWords);
    for (auto& w : payload_) w = rng.next_u64();
    addend_.resize(static_cast<std::size_t>(iters_) * np * kReduce);
    for (auto& a : addend_) a = static_cast<std::int64_t>(uniform(rng, 0, 1u << 20));
    expected_.assign(static_cast<std::size_t>(iters_) * kReduce, 0);
    for (std::size_t it = 0; it < static_cast<std::size_t>(iters_); ++it) {
      for (std::size_t pe = 0; pe < np; ++pe) {
        for (std::size_t j = 0; j < kReduce; ++j) {
          expected_[it * kReduce + j] += addend_[(it * np + pe) * kReduce + j];
        }
      }
    }
  }

  Episode episode(Mode mode) override {
    RuntimeOptions opts = bench_options();
    opts.host_heap_bytes = 1u << 20;
    opts.gpu_heap_bytes = 1u << 20;
    return runtime_episode(cluster_of(nodes_, kPesPerNode), opts, mode,
                           [this](Ctx& ctx, Recorder& rec, Checks& checks) {
                             program(ctx, rec, checks);
                           });
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = digest_vec(shift_, 1469598103934665603ULL);
    h = digest_vec(words_, h);
    h = digest_vec(payload_, h);
    return digest_vec(addend_, h);
  }

 private:
  static constexpr int kPesPerNode = 2;
  int num_pes() const { return nodes_ * kPesPerNode; }

  void program(Ctx& ctx, Recorder& rec, Checks& checks) const {
    const int me = ctx.my_pe();
    const auto np = static_cast<std::size_t>(ctx.n_pes());
    std::uint64_t* slot = nullptr;
    std::uint64_t* src = nullptr;
    std::int64_t* red_src = nullptr;
    std::int64_t* red_dst = nullptr;
    auto alloc = [&](auto*& p, std::size_t bytes, Domain d) {
      rec.call(Family::kShmalloc, ctx, -1, [&] {
        p = static_cast<std::remove_reference_t<decltype(p)>>(ctx.shmalloc(bytes, d));
      });
    };
    alloc(slot, kMaxWords * 8, Domain::kGpu);
    alloc(src, kMaxWords * 8, Domain::kGpu);
    alloc(red_src, kReduce * 8, Domain::kHost);
    alloc(red_dst, kReduce * 8, Domain::kHost);

    for (int it = 0; it < iters_; ++it) {
      const auto i = static_cast<std::size_t>(it);
      const int shift = shift_[i];
      const std::size_t bytes = words_[i] * 8;
      const int to = (me + shift) % ctx.n_pes();
      const int from = (me - shift + ctx.n_pes()) % ctx.n_pes();
      std::memcpy(src, &payload_[(i * np + static_cast<std::size_t>(me)) * kMaxWords], bytes);
      rec.call(Family::kPut, ctx, it, [&] { ctx.putmem(slot, src, bytes, to); });
      rec.call(Family::kBarrier, ctx, it, [&] { ctx.barrier_all(); });
      checks.expect(std::memcmp(slot, &payload_[(i * np + static_cast<std::size_t>(from)) * kMaxWords],
                                bytes) == 0,
                    "pe_scale: ring payload mismatch at pe " + std::to_string(me) +
                        " iter " + std::to_string(it));

      std::memcpy(red_src, &addend_[(i * np + static_cast<std::size_t>(me)) * kReduce],
                  kReduce * 8);
      rec.call(Family::kAllreduce, ctx, it,
               [&] { ctx.sum_to_all(red_dst, red_src, kReduce); });
      checks.expect(std::memcmp(red_dst, &expected_[i * kReduce], kReduce * 8) == 0,
                    "pe_scale: sum_to_all mismatch at pe " + std::to_string(me) +
                        " iter " + std::to_string(it));
    }
  }

  int nodes_;
  int iters_;
  std::vector<int> shift_;
  std::vector<std::size_t> words_;
  std::vector<std::uint64_t> payload_;  // [iter][pe][kMaxWords]
  std::vector<std::int64_t> addend_;    // [iter][pe][kReduce]
  std::vector<std::int64_t> expected_;  // [iter][kReduce]
};

// ---------------------------------------------------------------------------
// rma_mix: 16 PEs, each running a seeded stream of ~50% blocking getmem,
// 25% 64-bit atomic_fetch_add and 25% putmem_nbi at random targets and
// domains, with log-uniform sizes from 8 B to twice the largest Tuning size
// threshold (512 KiB). Gets read a seeded pattern and are checked byte for
// byte; AMO counters are checked against the reduced aim counts.

class RmaMix final : public Workload {
 public:
  enum Kind : std::uint8_t { kGet, kAmo, kPut };
  struct Op {
    Kind kind;
    std::uint8_t target;
    std::uint8_t remote_gpu;  // target-side domain: 0 host, 1 GPU
    std::uint8_t local_gpu;   // initiator-side domain
    std::uint32_t offset;     // in 8-byte words
    std::uint32_t bytes;
  };

  static constexpr std::size_t kRegionWords = (4u << 20) / 8;  // 4 MiB
  static constexpr std::uint32_t kMinBytes = 8;
  static constexpr int kQuietEvery = 32;

  RmaMix(std::uint64_t seed, Size size)
      : nodes_(8), ops_per_pe_(size == Size::kFull ? 10000 : 400), max_bytes_(max_bytes()) {
    if (max_bytes_ > kRegionWords * 8) {
      throw std::logic_error("rma_mix: largest op size exceeds the 4 MiB regions");
    }
    const int np = nodes_ * kPesPerNode;
    Rng rng(seed);
    pattern_.resize(kRegionWords);
    for (auto& w : pattern_) w = rng.next_u64();
    for (int i = 0; i < 2 * np; ++i) {
      rotation_.push_back(static_cast<std::uint32_t>(uniform(rng, 0, kRegionWords - 1)));
    }
    // Stratified per PE: exactly half gets, a quarter AMOs and a quarter
    // puts, and the j-th of a kind's n sizes lies in the j-th of n equal
    // strata of the log-uniform size distribution; the seed draws the
    // order, targets, domains, offsets and the sizes within each stratum.
    // Seeds then differ in op stream, not in op mix.
    ops_.reserve(static_cast<std::size_t>(np * ops_per_pe_));
    const int per_kind = ops_per_pe_ / 4;
    for (int pe = 0; pe < np; ++pe) {
      const auto first = ops_.size();
      for (int i = 0; i < ops_per_pe_; ++i) {
        Op op{};
        const int slot = i % 4;
        op.kind = slot < 2 ? kGet : (slot == 2 ? kAmo : kPut);
        op.target = static_cast<std::uint8_t>(uniform(rng, 0, static_cast<std::uint64_t>(np - 1)));
        op.remote_gpu = static_cast<std::uint8_t>(uniform(rng, 0, 1));
        op.local_gpu = static_cast<std::uint8_t>(uniform(rng, 0, 1));
        const double stratum = (i / 4) * (slot < 2 ? 2 : 1) + (slot == 1);
        const double quantile =
            (stratum + rng.next_double()) / (per_kind * (slot < 2 ? 2.0 : 1.0));
        op.bytes = op.kind == kAmo ? 8 : log_uniform_bytes(quantile);
        op.offset = static_cast<std::uint32_t>(uniform(rng, 0, kRegionWords - op.bytes / 8));
        ops_.push_back(op);
      }
      for (auto i = ops_.size() - 1; i > first; --i) {
        std::swap(ops_[i], ops_[first + uniform(rng, 0, i - first)]);
      }
    }
  }

  Episode episode(Mode mode) override {
    return runtime_episode(cluster_of(nodes_, kPesPerNode), bench_options(), mode,
                           [this](Ctx& ctx, Recorder& rec, Checks& checks) {
                             program(ctx, rec, checks);
                           });
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = digest_vec(pattern_, 1469598103934665603ULL);
    h = digest_vec(rotation_, h);
    return digest_vec(ops_, h);
  }

 private:
  static constexpr int kPesPerNode = 2;

  /// Twice the largest size threshold of the default Tuning (the one the
  /// benchmark runs with), so every protocol switch lies inside the size
  /// range with sizes on both sides of it.
  static std::uint32_t max_bytes() {
    const gdrshmem::core::Tuning t;
    const std::size_t top =
        std::max({t.inline_put_limit, t.eager_limit, t.loopback_gdr_read_limit,
                  t.loopback_gdr_write_limit, t.direct_gdr_read_limit,
                  t.direct_gdr_write_limit, t.pipeline_chunk});
    return static_cast<std::uint32_t>(2 * top);
  }

  /// The size at `quantile` of the log-uniform distribution on
  /// [kMinBytes, max_bytes_], rounded down to whole words.
  std::uint32_t log_uniform_bytes(double quantile) const {
    const double x =
        kMinBytes * std::exp(quantile * std::log(static_cast<double>(max_bytes_) / kMinBytes));
    const auto words = static_cast<std::uint32_t>(x / 8);
    return std::clamp<std::uint32_t>(words * 8, kMinBytes, max_bytes_);
  }

  void program(Ctx& ctx, Recorder& rec, Checks& checks) const {
    const int me = ctx.my_pe();
    const int np = ctx.n_pes();
    auto alloc = [&](std::size_t bytes, Domain d) {
      void* p = nullptr;
      rec.call(Family::kShmalloc, ctx, -1, [&] { p = ctx.shmalloc(bytes, d); });
      return static_cast<std::uint64_t*>(p);
    };
    const std::size_t region = kRegionWords * 8;
    std::array<std::uint64_t*, 2> pattern{}, put_region{}, get_dst{}, put_src{}, counter{};
    for (int d = 0; d < 2; ++d) {
      Domain dom = d ? Domain::kGpu : Domain::kHost;
      pattern[d] = alloc(region, dom);
      put_region[d] = alloc(region, dom);
      get_dst[d] = alloc(max_bytes_, dom);
      put_src[d] = alloc(max_bytes_, dom);
      counter[d] = alloc(8, dom);
    }
    auto* aimed = reinterpret_cast<std::int64_t*>(alloc(2 * static_cast<std::size_t>(np) * 8, Domain::kHost));
    auto* total = reinterpret_cast<std::int64_t*>(alloc(2 * static_cast<std::size_t>(np) * 8, Domain::kHost));

    for (int d = 0; d < 2; ++d) {
      std::size_t rot = rotation_[static_cast<std::size_t>(2 * me + d)];
      std::memcpy(pattern[d], &pattern_[rot], (kRegionWords - rot) * 8);
      std::memcpy(pattern[d] + (kRegionWords - rot), pattern_.data(), rot * 8);
      std::memcpy(put_src[d], pattern_.data(), max_bytes_);
      *counter[d] = 0;
    }
    std::fill(aimed, aimed + 2 * np, 0);
    rec.call(Family::kBarrier, ctx, -1, [&] { ctx.barrier_all(); });

    const auto first = static_cast<std::size_t>(me * ops_per_pe_);
    for (int i = 0; i < ops_per_pe_; ++i) {
      const Op& op = ops_[first + static_cast<std::size_t>(i)];
      switch (op.kind) {
        case kGet: {
          std::uint64_t* dst = get_dst[op.local_gpu];
          rec.call(Family::kGet, ctx, i, [&] {
            ctx.getmem(dst, pattern[op.remote_gpu] + op.offset, op.bytes, op.target);
          });
          checks.expect(matches_pattern(dst, op), "rma_mix: get mismatch at pe " +
                                                      std::to_string(me) + " op " +
                                                      std::to_string(i));
          break;
        }
        case kAmo:
          rec.call(Family::kAmo, ctx, i, [&] {
            ctx.atomic_fetch_add(reinterpret_cast<std::int64_t*>(counter[op.remote_gpu]), 1,
                                 op.target);
          });
          ++aimed[2 * op.target + op.remote_gpu];
          break;
        case kPut:
          rec.call(Family::kPut, ctx, i, [&] {
            ctx.putmem_nbi(put_region[op.remote_gpu] + op.offset, put_src[op.local_gpu],
                           op.bytes, op.target);
          });
          break;
      }
      if ((i + 1) % kQuietEvery == 0) rec.call(Family::kQuiet, ctx, i, [&] { ctx.quiet(); });
    }
    rec.call(Family::kQuiet, ctx, -1, [&] { ctx.quiet(); });
    rec.call(Family::kBarrier, ctx, -1, [&] { ctx.barrier_all(); });
    rec.call(Family::kAllreduce, ctx, -1,
             [&] { ctx.sum_to_all(total, aimed, 2 * static_cast<std::size_t>(np)); });
    for (int d = 0; d < 2; ++d) {
      auto got = static_cast<std::int64_t>(*counter[d]);
      checks.expect(got == total[2 * me + d],
                    "rma_mix: pe " + std::to_string(me) + (d ? " gpu" : " host") +
                        " counter " + std::to_string(got) + " != " +
                        std::to_string(total[2 * me + d]) + " AMOs aimed at it");
    }
  }

  /// The target's pattern region holds pattern_ rotated by its rotation, so
  /// word w there is pattern_[(w + rot) % kRegionWords].
  bool matches_pattern(const std::uint64_t* got, const Op& op) const {
    std::size_t start =
        (op.offset + rotation_[static_cast<std::size_t>(2 * op.target + op.remote_gpu)]) %
        kRegionWords;
    std::size_t words = op.bytes / 8;
    std::size_t head = std::min(words, kRegionWords - start);
    return std::memcmp(got, &pattern_[start], head * 8) == 0 &&
           std::memcmp(got + head, pattern_.data(), (words - head) * 8) == 0;
  }

  int nodes_;
  int ops_per_pe_;
  std::uint32_t max_bytes_;
  std::vector<std::uint64_t> pattern_;
  std::vector<std::uint32_t> rotation_;  // [pe][domain], in words
  std::vector<Op> ops_;                  // [pe][ops_per_pe_]
};

// ---------------------------------------------------------------------------
// lbm: apps::run_lbm, functional, nbi halo exchange. run_lbm builds its own
// Runtime, so run_s covers the whole call; setup_s and teardown_s time a
// Runtime of the same shape built and torn down beside it.

class Lbm final : public Workload {
 public:
  Lbm(std::uint64_t seed, Size size) {
    Rng rng(seed);
    const std::size_t edge = size == Size::kFull ? 64 : 16;
    cfg_.x = cfg_.y = cfg_.z = edge;
    cfg_.iterations = size == Size::kFull ? 40 : 4;
    cfg_.blocking_exchange = false;
    // Seeded physics (all stable: taus > 0.5) and the modelled GPU cost per
    // site, within 2% of the default 3 ns.
    cfg_.tau_f = static_cast<float>(0.85 + 0.10 * rng.next_double());
    cfg_.tau_g = static_cast<float>(0.75 + 0.10 * rng.next_double());
    cfg_.gamma = static_cast<float>(0.008 + 0.004 * rng.next_double());
    cfg_.per_cell_ns = 3.0 * (0.98 + 0.04 * rng.next_double());
  }

  Episode episode(Mode mode) override {
    Episode ep;
    const auto cluster = cluster_of(kNodes, kPesPerNode);
    const RuntimeOptions opts = bench_options();
    auto rec = std::make_unique<Recorder>(kNodes * kPesPerNode, mode == Mode::kTraced);
    int root = rec->open("episode", -1);

    if (mode != Mode::kCostOnly) {
      int span = rec->open("core.setup", root);
      double t0 = wall_now();
      auto rt = std::make_unique<Runtime>(cluster, opts);
      double t1 = wall_now();
      rec->close(span);
      rt->run([](Ctx&) {});
      span = rec->open("core.teardown", root);
      double t2 = wall_now();
      rt.reset();
      double t3 = wall_now();
      rec->close(span);
      ep.setup_s = t1 - t0;
      ep.teardown_s = t3 - t2;
    }

    gdrshmem::apps::LbmConfig cfg = cfg_;
    cfg.functional = mode != Mode::kCostOnly;
    int span = rec->open("apps.run_lbm", root);
    double t0 = wall_now();
    auto res = gdrshmem::apps::run_lbm(cluster, opts, cfg);
    double t1 = wall_now();
    rec->close(span);
    rec->close(root);

    ep.run_s = t1 - t0;
    ep.wall_s = ep.run_s;  // run_lbm's own setup and teardown are inside it
    ep.work = static_cast<double>(cfg.x * cfg.y * cfg.z) * cfg.iterations;
    // Exact: run_lbm exposes only the evolution loop's virtual time.
    ep.exact["virtual_ns"] = std::round(res.evolution_ms * 1e6);
    ep.layer["apps.lbm.halo_bytes_per_step"] = static_cast<double>(res.halo_bytes_per_step);

    Checks checks;
    checks.expect(res.evolution_ms > 0, "lbm: no virtual time elapsed");
    if (cfg.functional) {
      checks.expect(res.fluid_mass_initial > 0, "lbm: empty lattice");
      checks.expect(std::abs(res.phase_mass_final - res.phase_mass_initial) <=
                        kPhaseTol * std::abs(res.phase_mass_initial) + kPhaseAbsTol,
                    "lbm: phase mass " + std::to_string(res.phase_mass_initial) + " -> " +
                        std::to_string(res.phase_mass_final));
      checks.expect(std::abs(res.fluid_mass_final - res.fluid_mass_initial) <=
                        kFluidTol * res.fluid_mass_initial,
                    "lbm: fluid mass " + std::to_string(res.fluid_mass_initial) + " -> " +
                        std::to_string(res.fluid_mass_final));
    }
    ep.checks = checks.attempted;
    ep.failures = checks.failed;
    ep.failure_notes = std::move(checks.notes);
    if (rec->traced()) ep.recorder = std::move(rec);
    return ep;
  }

  std::uint64_t input_digest() const override {
    const double drawn[] = {cfg_.tau_f, cfg_.tau_g, cfg_.gamma, cfg_.per_cell_ns};
    return digest(drawn, sizeof drawn);
  }
  bool has_cost_only() const override { return true; }

 private:
  static constexpr int kNodes = 4;
  static constexpr int kPesPerNode = 2;
  // Conservation tolerances: relative 1e-3 (+0.01 absolute, phase mass sums
  // to near zero) for phase mass and 1e-4 for fluid mass, as in the lbm unit
  // tests.
  static constexpr double kPhaseTol = 1e-3;
  static constexpr double kPhaseAbsTol = 1e-2;
  static constexpr double kFluidTol = 1e-4;

  gdrshmem::apps::LbmConfig cfg_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"pe_scale", "rma_mix", "lbm"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Size size) {
  if (name == "pe_scale") return std::make_unique<PeScale>(seed, size);
  if (name == "rma_mix") return std::make_unique<RmaMix>(seed, size);
  if (name == "lbm") return std::make_unique<Lbm>(seed, size);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace hostbench
