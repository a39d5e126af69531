#include "ib/transport.hpp"

#include <algorithm>
#include <utility>

#include "sim/rng.hpp"

namespace gdrshmem::ib {

using sim::CompletionPtr;
using sim::Duration;

// ---------------------------------------------------------------------------
// Transport base: endpoint registry + 2-rail striping shared by RC and DC.

Transport::Transport(Verbs& verbs, const TransportConfig& cfg)
    : verbs_(verbs), cfg_(cfg) {}

Transport::~Transport() = default;

Endpoint& Transport::endpoint(int id) {
  auto idx = static_cast<std::size_t>(id);
  if (idx >= endpoints_.size()) endpoints_.resize(idx + 1);
  if (!endpoints_[idx]) endpoints_[idx] = std::make_unique<Endpoint>(*this, id);
  return *endpoints_[idx];
}

bool Transport::stripe_eligible(std::size_t n) const {
  return cfg_.rails >= 2 && n >= params().rail_stripe_min_bytes &&
         verbs_.cluster().config().hcas_per_node >= 2;
}

namespace {
int other_hca(const hw::Cluster& cl, int hca) {
  return (hca + 1) % cl.config().hcas_per_node;
}
}  // namespace

CompletionPtr Transport::striped_write(sim::Process& proc, int src_pe,
                                       const void* lbuf, int dst_pe, void* rbuf,
                                       std::size_t n, const void* payload) {
  ++striped_ops_;
  hw::Cluster& cl = verbs_.cluster();
  hw::PePlacement sp = cl.placement(src_pe);
  hw::PePlacement dp = cl.placement(dst_pe);
  // One registration for the whole source range, so the two stripes don't
  // each pay (and cache) a half-range registration.
  verbs_.reg_cache().get_or_register(proc, src_pe, lbuf, n);
  const auto* lb = static_cast<const std::byte*>(lbuf);
  const auto* pl = static_cast<const std::byte*>(payload);
  auto* rb = static_cast<std::byte*>(rbuf);
  std::size_t half = n / 2;
  std::vector<CompletionPtr> parts;
  parts.push_back(verbs_.rdma_write(proc, src_pe, lb, dst_pe, rb, half,
                                    Rail{sp.hca, dp.hca}, {}, pl));
  parts.push_back(verbs_.rdma_write(
      proc, src_pe, lb + half, dst_pe, rb + half, n - half,
      Rail{other_hca(cl, sp.hca), other_hca(cl, dp.hca)}, {}, pl + half));
  return sim::aggregate(std::move(parts));
}

CompletionPtr Transport::striped_read(sim::Process& proc, int src_pe,
                                      void* lbuf, int dst_pe, const void* rbuf,
                                      std::size_t n) {
  ++striped_ops_;
  hw::Cluster& cl = verbs_.cluster();
  hw::PePlacement sp = cl.placement(src_pe);
  hw::PePlacement dp = cl.placement(dst_pe);
  verbs_.reg_cache().get_or_register(proc, src_pe, lbuf, n);
  auto* lb = static_cast<std::byte*>(lbuf);
  const auto* rb = static_cast<const std::byte*>(rbuf);
  std::size_t half = n / 2;
  std::vector<CompletionPtr> parts;
  parts.push_back(verbs_.rdma_read(proc, src_pe, lb, dst_pe, rb, half,
                                   Rail{sp.hca, dp.hca}));
  parts.push_back(verbs_.rdma_read(
      proc, src_pe, lb + half, dst_pe, rb + half, n - half,
      Rail{other_hca(cl, sp.hca), other_hca(cl, dp.hca)}));
  return sim::aggregate(std::move(parts));
}

CompletionPtr Transport::rdma_write(sim::Process& proc, int src_pe,
                                    const void* lbuf, int dst_pe, void* rbuf,
                                    std::size_t n, const void* payload) {
  if (stripe_eligible(n)) {
    return striped_write(proc, src_pe, lbuf, dst_pe, rbuf, n, payload);
  }
  return verbs_.rdma_write(proc, src_pe, lbuf, dst_pe, rbuf, n, {}, {},
                           payload);
}

CompletionPtr Transport::rdma_read(sim::Process& proc, int src_pe, void* lbuf,
                                   int dst_pe, const void* rbuf, std::size_t n) {
  if (stripe_eligible(n)) return striped_read(proc, src_pe, lbuf, dst_pe, rbuf, n);
  return verbs_.rdma_read(proc, src_pe, lbuf, dst_pe, rbuf, n);
}

CompletionPtr Transport::post_send(sim::Process& proc, int src_pe, int dst_pe,
                                   std::size_t n,
                                   std::function<void()> deliver) {
  return verbs_.post_send(proc, src_pe, dst_pe, n, std::move(deliver));
}

CompletionPtr Transport::atomic_fadd64(sim::Process& proc, int src_pe,
                                       int dst_pe, std::uint64_t* raddr,
                                       std::uint64_t add,
                                       std::uint64_t* result) {
  return verbs_.atomic_fadd64(proc, src_pe, dst_pe, raddr, add, result);
}

CompletionPtr Transport::atomic_cswap64(sim::Process& proc, int src_pe,
                                        int dst_pe, std::uint64_t* raddr,
                                        std::uint64_t compare,
                                        std::uint64_t swap,
                                        std::uint64_t* result) {
  return verbs_.atomic_cswap64(proc, src_pe, dst_pe, raddr, compare, swap,
                               result);
}

namespace {

// ---------------------------------------------------------------------------
// RC: the paper's implicit transport, now with its cost made explicit. Every
// endpoint holds one QP per peer, so the HCA's working set of QP contexts is
// endpoints_per_hca * (N - 1); once that overflows the on-die context cache,
// every op risks a context fetch from host memory. The penalty scales with
// the overflow ratio — deterministic, and exactly zero at the scales the
// original test/bench suite runs, keeping the default event stream
// bit-identical.

class RcTransport final : public Transport {
 public:
  RcTransport(Verbs& verbs, const TransportConfig& cfg) : Transport(verbs, cfg) {
    const hw::ClusterConfig& cc = verbs_.cluster().config();
    const hw::SystemParams& p = params();
    int per_hca = std::max(
        1, (cc.pes_per_node + cc.hcas_per_node - 1) / cc.hcas_per_node);
    double active = static_cast<double>(per_hca) *
                    static_cast<double>(verbs_.cluster().num_pes() - 1);
    double cache = static_cast<double>(p.hca_qp_cache_entries);
    if (active > cache && cache > 0) {
      qp_cache_penalty_us_ = p.hca_qp_cache_miss_us * (1.0 - cache / active);
    }
  }

  const char* name() const override { return "rc"; }

  QpFootprint footprint(int num_endpoints) const override {
    const hw::SystemParams& p = params();
    QpFootprint f;
    f.qps = static_cast<std::uint64_t>(std::max(0, num_endpoints - 1));
    f.context_bytes = f.qps * (p.ib_qp_context_bytes + p.ib_qp_ring_bytes);
    f.recv_bytes = cfg_.srq ? p.ib_srq_bytes : f.qps * p.ib_recv_ring_bytes;
    return f;
  }

  CompletionPtr rdma_write(sim::Process& proc, int src_pe, const void* lbuf,
                           int dst_pe, void* rbuf, std::size_t n,
                           const void* payload) override {
    charge_qp_cache(proc, src_pe, dst_pe);
    return Transport::rdma_write(proc, src_pe, lbuf, dst_pe, rbuf, n, payload);
  }
  CompletionPtr rdma_read(sim::Process& proc, int src_pe, void* lbuf,
                          int dst_pe, const void* rbuf, std::size_t n) override {
    charge_qp_cache(proc, src_pe, dst_pe);
    return Transport::rdma_read(proc, src_pe, lbuf, dst_pe, rbuf, n);
  }
  CompletionPtr post_send(sim::Process& proc, int src_pe, int dst_pe,
                          std::size_t n, std::function<void()> deliver) override {
    charge_qp_cache(proc, src_pe, dst_pe);
    return Transport::post_send(proc, src_pe, dst_pe, n, std::move(deliver));
  }
  CompletionPtr atomic_fadd64(sim::Process& proc, int src_pe, int dst_pe,
                              std::uint64_t* raddr, std::uint64_t add,
                              std::uint64_t* result) override {
    charge_qp_cache(proc, src_pe, dst_pe);
    return Transport::atomic_fadd64(proc, src_pe, dst_pe, raddr, add, result);
  }
  CompletionPtr atomic_cswap64(sim::Process& proc, int src_pe, int dst_pe,
                               std::uint64_t* raddr, std::uint64_t compare,
                               std::uint64_t swap,
                               std::uint64_t* result) override {
    charge_qp_cache(proc, src_pe, dst_pe);
    return Transport::atomic_cswap64(proc, src_pe, dst_pe, raddr, compare,
                                     swap, result);
  }

 private:
  void charge_qp_cache(sim::Process& proc, int src_pe, int dst_pe) {
    // Zero in every sub-cache-capacity configuration: no delay call, no
    // event, no change to the legacy schedule.
    if (qp_cache_penalty_us_ <= 0.0) return;
    // Same-node loopback never touches the wire-facing QP working set (the
    // verbs layer likewise special-cases loopback in attempt_fails and
    // ack_latency), so it cannot suffer a context fetch.
    if (verbs_.cluster().same_node(src_pe, dst_pe)) return;
    proc.delay(Duration::us(qp_cache_penalty_us_));
  }

  double qp_cache_penalty_us_ = 0.0;
};

// ---------------------------------------------------------------------------
// UD: one datagram QP per endpoint, receives drawn from the SRQ. No RDMA and
// no HCA atomics — sends are MTU-limited, and RMA is segmented in software
// into MTU-sized datagrams, each paying the per-packet header/posting cost
// (the control/small-message profile: constant memory, poor large-message
// throughput). Atomics stay on a retained RC service QP, the standard
// fallback for transports without native atomics.

class UdTransport final : public Transport {
 public:
  using Transport::Transport;

  const char* name() const override { return "ud"; }

  QpFootprint footprint(int) const override {
    const hw::SystemParams& p = params();
    QpFootprint f;
    f.qps = 1;
    f.context_bytes = p.ib_qp_context_bytes + p.ib_qp_ring_bytes;
    f.recv_bytes = p.ib_srq_bytes;
    return f;
  }

  CompletionPtr rdma_write(sim::Process& proc, int src_pe, const void* lbuf,
                           int dst_pe, void* rbuf, std::size_t n,
                           const void* payload) override {
    const std::size_t mtu = params().ud_mtu_bytes;
    if (n <= mtu) {
      charge_packets(proc, 1);
      return verbs_.rdma_write(proc, src_pe, lbuf, dst_pe, rbuf, n, {}, {},
                               payload);
    }
    // Software segmentation: register the whole source once, then emulate
    // the write as a train of MTU-sized datagrams. Bytes land identically
    // (per-segment copies at per-segment arrival); only timing differs.
    verbs_.reg_cache().get_or_register(proc, src_pe, lbuf, n);
    const auto* lb = static_cast<const std::byte*>(lbuf);
    const auto* pl = static_cast<const std::byte*>(payload);
    auto* rb = static_cast<std::byte*>(rbuf);
    std::vector<CompletionPtr> parts;
    for (std::size_t off = 0; off < n; off += mtu) {
      std::size_t seg = std::min(mtu, n - off);
      charge_packets(proc, 1);
      parts.push_back(verbs_.rdma_write(proc, src_pe, lb + off, dst_pe,
                                        rb + off, seg, {}, {}, pl + off));
    }
    return sim::aggregate(std::move(parts));
  }

  CompletionPtr rdma_read(sim::Process& proc, int src_pe, void* lbuf,
                          int dst_pe, const void* rbuf, std::size_t n) override {
    const std::size_t mtu = params().ud_mtu_bytes;
    if (n <= mtu) {
      charge_packets(proc, 1);
      return verbs_.rdma_read(proc, src_pe, lbuf, dst_pe, rbuf, n);
    }
    verbs_.reg_cache().get_or_register(proc, src_pe, lbuf, n);
    auto* lb = static_cast<std::byte*>(lbuf);
    const auto* rb = static_cast<const std::byte*>(rbuf);
    std::vector<CompletionPtr> parts;
    for (std::size_t off = 0; off < n; off += mtu) {
      std::size_t seg = std::min(mtu, n - off);
      charge_packets(proc, 1);
      parts.push_back(
          verbs_.rdma_read(proc, src_pe, lb + off, dst_pe, rb + off, seg));
    }
    return sim::aggregate(std::move(parts));
  }

  CompletionPtr post_send(sim::Process& proc, int src_pe, int dst_pe,
                          std::size_t n, std::function<void()> deliver) override {
    if (n > params().ud_mtu_bytes) {
      throw IbError("UD send of " + std::to_string(n) +
                    " bytes exceeds the datagram MTU (" +
                    std::to_string(params().ud_mtu_bytes) +
                    "); segment the payload or use rc/dc");
    }
    charge_packets(proc, 1);
    return Transport::post_send(proc, src_pe, dst_pe, n, std::move(deliver));
  }

  // Atomics: delegated unchanged — modeled as the retained RC service QP.

 private:
  void charge_packets(sim::Process& proc, std::uint64_t count) {
    ud_packets_ += count;
    proc.delay(Duration::us(params().ud_packet_overhead_us *
                            static_cast<double>(count)));
  }
};

// ---------------------------------------------------------------------------
// DC: full RDMA/atomic semantics from a constant-size pool of DC initiators
// per endpoint, each connected on demand to the target's DCT. State is O(pool)
// instead of O(N), so the HCA cache never thrashes — the price is a reconnect
// handshake whenever an op targets a peer none of the DCIs currently holds.

class DcTransport final : public Transport {
 public:
  using Transport::Transport;

  const char* name() const override { return "dc"; }

  QpFootprint footprint(int) const override {
    const hw::SystemParams& p = params();
    QpFootprint f;
    auto pool = static_cast<std::uint64_t>(p.dc_initiator_pool);
    f.qps = pool + 1;  // DCIs + this endpoint's DCT
    f.context_bytes = f.qps * p.ib_qp_context_bytes + pool * p.ib_qp_ring_bytes;
    f.recv_bytes = p.ib_srq_bytes;
    return f;
  }

  CompletionPtr rdma_write(sim::Process& proc, int src_pe, const void* lbuf,
                           int dst_pe, void* rbuf, std::size_t n,
                           const void* payload) override {
    acquire_dci(proc, src_pe, dst_pe, 0);
    // A striped op drives the second HCA's DCI pool too; it must pay that
    // rail's connection state as well, not ride rail 1's acquisition.
    if (stripe_eligible(n)) acquire_dci(proc, src_pe, dst_pe, 1);
    return Transport::rdma_write(proc, src_pe, lbuf, dst_pe, rbuf, n, payload);
  }
  CompletionPtr rdma_read(sim::Process& proc, int src_pe, void* lbuf,
                          int dst_pe, const void* rbuf, std::size_t n) override {
    acquire_dci(proc, src_pe, dst_pe, 0);
    if (stripe_eligible(n)) acquire_dci(proc, src_pe, dst_pe, 1);
    return Transport::rdma_read(proc, src_pe, lbuf, dst_pe, rbuf, n);
  }
  CompletionPtr post_send(sim::Process& proc, int src_pe, int dst_pe,
                          std::size_t n, std::function<void()> deliver) override {
    acquire_dci(proc, src_pe, dst_pe, 0);
    return Transport::post_send(proc, src_pe, dst_pe, n, std::move(deliver));
  }
  CompletionPtr atomic_fadd64(sim::Process& proc, int src_pe, int dst_pe,
                              std::uint64_t* raddr, std::uint64_t add,
                              std::uint64_t* result) override {
    acquire_dci(proc, src_pe, dst_pe, 0);
    return Transport::atomic_fadd64(proc, src_pe, dst_pe, raddr, add, result);
  }
  CompletionPtr atomic_cswap64(sim::Process& proc, int src_pe, int dst_pe,
                               std::uint64_t* raddr, std::uint64_t compare,
                               std::uint64_t swap,
                               std::uint64_t* result) override {
    acquire_dci(proc, src_pe, dst_pe, 0);
    return Transport::atomic_cswap64(proc, src_pe, dst_pe, raddr, compare,
                                     swap, result);
  }

 private:
  /// An op needs a DCI holding a connection to `dst_pe`'s DCT — on each HCA
  /// (rail) the op actually drives, since every adapter keeps its own DCI
  /// pool. Loopback ops never leave the adapter and need no DCI. LRU over
  /// the pool: the least-recently-used initiator is the one retargeted.
  void acquire_dci(sim::Process& proc, int src_pe, int dst_pe, int rail) {
    if (verbs_.cluster().same_node(src_pe, dst_pe)) return;
    std::list<int>& lru = targets_[{src_pe, rail}];
    auto it = std::find(lru.begin(), lru.end(), dst_pe);
    if (it != lru.end()) {
      lru.splice(lru.end(), lru, it);  // still connected: reuse, bump
      return;
    }
    auto pool = static_cast<std::size_t>(params().dc_initiator_pool);
    if (lru.size() >= pool) lru.pop_front();
    lru.push_back(dst_pe);
    ++dc_reconnects_;
    proc.delay(Duration::us(params().dc_reconnect_us));
  }

  // (src endpoint, rail) -> targets that HCA's DCIs currently hold, LRU order.
  std::map<std::pair<int, int>, std::list<int>> targets_;
};

// ---------------------------------------------------------------------------
// SRD: EFA-style scalable reliable datagram — reliable delivery, relaxed
// ordering. One datagram QP per endpoint; every RMA op is segmented into
// MTU-sized packets that are individually sprayed across the available
// rails, each with a deterministic seeded delivery jitter, so segments of
// one op (and back-to-back ops on one flow) arrive out of issue order. A
// per-op reorder/tracking structure at the receiving side lands each
// segment's payload on arrival but raises the op completion only once every
// segment has landed — the target-side reorder buffer of real SRD NICs.
// The jitter for (seed, op, segment) is a pure splitmix64 function, so the
// whole reordering pattern is bit-identical per GDRSHMEM_IB_SRD_SEED.
//
// Control messages (post_send) and atomics stay on an ordered service
// channel (delegated unchanged), matching how SRD providers funnel
// small/ordered traffic; bulk RMA is what gets sprayed.

class SrdTransport final : public Transport {
 public:
  SrdTransport(Verbs& verbs, const TransportConfig& cfg)
      : Transport(verbs, cfg),
        jitter_window_us_(cfg.srd_jitter_us >= 0.0
                              ? cfg.srd_jitter_us
                              : verbs.cluster().params().srd_jitter_window_us) {}

  const char* name() const override { return "srd"; }
  bool in_order_delivery() const override { return false; }

  QpFootprint footprint(int) const override {
    const hw::SystemParams& p = params();
    QpFootprint f;
    f.qps = 1;
    f.context_bytes =
        p.ib_qp_context_bytes + p.ib_qp_ring_bytes +
        static_cast<std::uint64_t>(p.srd_reorder_entries) *
            p.srd_reorder_entry_bytes;  // the reorder/tracking buffer
    f.recv_bytes = p.ib_srq_bytes;
    return f;
  }

  std::uint64_t srd_reorder_bytes_hwm() const override {
    return reorder_bytes_hwm_;
  }
  std::uint64_t srd_reorder_entries_hwm() const override {
    return reorder_entries_hwm_;
  }

  CompletionPtr rdma_write(sim::Process& proc, int src_pe, const void* lbuf,
                           int dst_pe, void* rbuf, std::size_t n,
                           const void* payload) override {
    const std::size_t mtu = params().srd_mtu_bytes;
    const std::uint64_t op = next_op_id_++;
    if (n <= mtu) {
      // Single segment: no reassembly, but the packet still rides a jittered
      // path — back-to-back small ops on one flow can land out of order.
      charge_segment(proc);
      auto track = start_op(1);
      return finish_op(
          track, verbs_.rdma_write(proc, src_pe, lbuf, dst_pe, rbuf, n,
                                   rail_for(src_pe, dst_pe, 0),
                                   seg_opts(track, op, 0, n, src_pe, dst_pe),
                                   payload));
    }
    verbs_.reg_cache().get_or_register(proc, src_pe, lbuf, n);
    if (cfg_.rails >= 2 && verbs_.cluster().config().hcas_per_node >= 2) {
      ++striped_ops_;  // segments alternate HCAs: multi-rail spraying
    }
    const auto* lb = static_cast<const std::byte*>(lbuf);
    const auto* pl = static_cast<const std::byte*>(payload);
    auto* rb = static_cast<std::byte*>(rbuf);
    auto track = start_op((n + mtu - 1) / mtu);
    std::vector<CompletionPtr> parts;
    std::size_t idx = 0;
    for (std::size_t off = 0; off < n; off += mtu, ++idx) {
      std::size_t seg = std::min(mtu, n - off);
      charge_segment(proc);
      parts.push_back(verbs_.rdma_write(
          proc, src_pe, lb + off, dst_pe, rb + off, seg,
          rail_for(src_pe, dst_pe, idx),
          seg_opts(track, op, idx, seg, src_pe, dst_pe), pl + off));
    }
    return finish_op(track, sim::aggregate(std::move(parts)));
  }

  CompletionPtr rdma_read(sim::Process& proc, int src_pe, void* lbuf,
                          int dst_pe, const void* rbuf, std::size_t n) override {
    // For a read, the response segments are the sprayed leg, so the
    // reorder/tracking buffer lives at the *initiator*.
    const std::size_t mtu = params().srd_mtu_bytes;
    const std::uint64_t op = next_op_id_++;
    if (n <= mtu) {
      charge_segment(proc);
      auto track = start_op(1);
      return finish_op(track, verbs_.rdma_read(
                                  proc, src_pe, lbuf, dst_pe, rbuf, n,
                                  rail_for(src_pe, dst_pe, 0),
                                  seg_opts(track, op, 0, n, src_pe, dst_pe)));
    }
    verbs_.reg_cache().get_or_register(proc, src_pe, lbuf, n);
    if (cfg_.rails >= 2 && verbs_.cluster().config().hcas_per_node >= 2) {
      ++striped_ops_;
    }
    auto* lb = static_cast<std::byte*>(lbuf);
    const auto* rb = static_cast<const std::byte*>(rbuf);
    auto track = start_op((n + mtu - 1) / mtu);
    std::vector<CompletionPtr> parts;
    std::size_t idx = 0;
    for (std::size_t off = 0; off < n; off += mtu, ++idx) {
      std::size_t seg = std::min(mtu, n - off);
      charge_segment(proc);
      parts.push_back(verbs_.rdma_read(
          proc, src_pe, lb + off, dst_pe, rb + off, seg,
          rail_for(src_pe, dst_pe, idx),
          seg_opts(track, op, idx, seg, src_pe, dst_pe)));
    }
    return finish_op(track, sim::aggregate(std::move(parts)));
  }

  // post_send and atomics: delegated unchanged — the ordered service channel.

 private:
  /// Per-op segment arrival bookkeeping: which segments have landed, and how
  /// much reorder-buffer state the (still-incomplete) op is holding.
  struct OpTrack {
    std::size_t nseg = 0;
    std::size_t next_contig = 0;  // lowest segment index not yet arrived
    std::vector<bool> arrived;
    std::uint64_t held_bytes = 0;
    std::uint64_t held_entries = 0;
  };

  std::shared_ptr<OpTrack> start_op(std::size_t nseg) {
    auto t = std::make_shared<OpTrack>();
    t->nseg = nseg;
    t->arrived.assign(nseg, false);
    return t;
  }

  void charge_segment(sim::Process& proc) {
    ++srd_segments_;
    proc.delay(Duration::us(params().srd_segment_overhead_us));
  }

  /// Spray segments round-robin across both HCAs when 2-rail.
  Rail rail_for(int src_pe, int dst_pe, std::size_t idx) {
    hw::Cluster& cl = verbs_.cluster();
    if (cfg_.rails < 2 || cl.config().hcas_per_node < 2) return {};
    hw::PePlacement sp = cl.placement(src_pe);
    hw::PePlacement dp = cl.placement(dst_pe);
    if (idx % 2 == 0) return Rail{sp.hca, dp.hca};
    return Rail{other_hca(cl, sp.hca), other_hca(cl, dp.hca)};
  }

  /// The delivery jitter for segment `idx` of op `op`: uniform in
  /// [0, jitter window), drawn from a splitmix64 stream keyed purely by
  /// (seed, op, segment) — no global RNG state, so concurrent ops can't
  /// perturb each other's reordering. Loopback never leaves the adapter and
  /// is never jittered.
  Duration segment_jitter(int src_pe, int dst_pe, std::uint64_t op,
                          std::size_t idx) const {
    if (jitter_window_us_ <= 0.0) return {};
    if (verbs_.cluster().same_node(src_pe, dst_pe)) return {};
    sim::Rng rng(cfg_.srd_seed * 0x9e3779b97f4a7c15ULL +
                 op * 0xbf58476d1ce4e5b9ULL + static_cast<std::uint64_t>(idx));
    return Duration::us(rng.next_double() * jitter_window_us_);
  }

  SegmentOpts seg_opts(const std::shared_ptr<OpTrack>& track, std::uint64_t op,
                       std::size_t idx, std::size_t bytes, int src_pe,
                       int dst_pe) {
    SegmentOpts s;
    s.jitter = segment_jitter(src_pe, dst_pe, op, idx);
    s.on_delivered = [this, track, idx, bytes] {
      on_segment_arrival(*track, idx, bytes);
    };
    return s;
  }

  /// Runs in event context when a segment's payload lands at the receiving
  /// side. The payload is already in place (delivered on arrival); the
  /// reorder buffer only tracks sequence state until the op completes.
  void on_segment_arrival(OpTrack& t, std::size_t idx, std::size_t bytes) {
    if (idx != t.next_contig) ++srd_ooo_deliveries_;
    t.arrived[idx] = true;
    while (t.next_contig < t.nseg && t.arrived[t.next_contig]) ++t.next_contig;
    t.held_bytes += bytes;
    ++t.held_entries;
    reorder_bytes_ += bytes;
    ++reorder_entries_;
    reorder_bytes_hwm_ = std::max(reorder_bytes_hwm_, reorder_bytes_);
    reorder_entries_hwm_ = std::max(reorder_entries_hwm_, reorder_entries_);
  }

  /// Release the op's reorder-buffer occupancy when its completion fires —
  /// on the subscribe, not at last arrival, so an op that completes in
  /// *error* (some segments lost for good) still releases exactly what
  /// actually landed and the gauges can't leak under fault plans.
  CompletionPtr finish_op(std::shared_ptr<OpTrack> track, CompletionPtr comp) {
    comp->subscribe([this, track = std::move(track)] {
      reorder_bytes_ -= track->held_bytes;
      reorder_entries_ -= track->held_entries;
      track->held_bytes = 0;
      track->held_entries = 0;
    });
    return comp;
  }

  double jitter_window_us_;
  std::uint64_t next_op_id_ = 0;
  std::uint64_t reorder_bytes_ = 0;
  std::uint64_t reorder_entries_ = 0;
  std::uint64_t reorder_bytes_hwm_ = 0;
  std::uint64_t reorder_entries_hwm_ = 0;
};

}  // namespace

std::unique_ptr<Transport> make_transport(Verbs& verbs,
                                          const TransportConfig& cfg) {
  switch (cfg.kind) {
    case QpKind::kRc: return std::make_unique<RcTransport>(verbs, cfg);
    case QpKind::kUd: return std::make_unique<UdTransport>(verbs, cfg);
    case QpKind::kDc: return std::make_unique<DcTransport>(verbs, cfg);
    case QpKind::kSrd: return std::make_unique<SrdTransport>(verbs, cfg);
  }
  throw IbError("unknown QP transport kind");
}

}  // namespace gdrshmem::ib
