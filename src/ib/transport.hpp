// The transport-generic endpoint API over the verbs engine: one
// ib::Transport per job models the queue-pair discipline every endpoint
// uses — RC (connected mesh), UD (datagram), or DC (dynamically connected)
// — plus shared receive queues and optional 2-rail striping across the node
// model's two HCAs. ib::Endpoint is the per-PE handle call sites hold.
//
// All three transports produce identical application results per seed: data
// lands bytewise the same, only the modeled cost differs. The default
// configuration (rc, 1 rail) is a pure passthrough to Verbs — bit-identical
// to the pre-transport event stream.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "ib/verbs.hpp"

namespace gdrshmem::ib {

/// Queue-pair discipline behind the endpoint API.
enum class QpKind {
  kRc,   // reliable connected: one QP per peer per endpoint (N^2 mesh)
  kUd,   // unreliable datagram: one QP per endpoint, MTU-limited, no RDMA
  kDc,   // dynamically connected: DCI pool + one DCT per endpoint
  kSrd,  // scalable reliable datagram: reliable, relaxed ordering (EFA-like)
};

inline const char* to_string(QpKind k) {
  switch (k) {
    case QpKind::kRc: return "rc";
    case QpKind::kUd: return "ud";
    case QpKind::kDc: return "dc";
    case QpKind::kSrd: return "srd";
  }
  return "?";
}

struct TransportConfig {
  QpKind kind = QpKind::kRc;
  /// HCAs a large message stripes across (>= SystemParams::
  /// rail_stripe_min_bytes; RC/DC only — UD segments stay on one rail).
  int rails = 1;
  /// Share one receive queue across an RC endpoint's QPs instead of per-QP
  /// recv rings. UD, DC and SRD always use the SRQ; for RC this only changes
  /// the modeled memory footprint, never timing.
  bool srq = false;
  /// Seed for srd's per-segment delivery jitter: the reordering a run sees
  /// is a pure function of (seed, op, segment), so runs are bit-identical
  /// per seed. Ignored by the ordered transports.
  std::uint64_t srd_seed = 1;
  /// srd jitter window override in us; < 0 keeps
  /// SystemParams::srd_jitter_window_us.
  double srd_jitter_us = -1.0;
};

/// Modeled HCA/host memory one endpoint pins under a transport, with every
/// endpoint talking to every other.
struct QpFootprint {
  std::uint64_t qps = 0;            // queue pairs (DC: DCIs + the DCT)
  std::uint64_t context_bytes = 0;  // QP contexts + send rings
  std::uint64_t recv_bytes = 0;     // recv rings, or the shared SRQ
  std::uint64_t total_bytes() const { return context_bytes + recv_bytes; }
};

class Endpoint;

/// The op surface mirrors Verbs (same signatures, same completion
/// semantics) so the protocol layers above — Ctx, the core transports, the
/// proxy, both device backends — swap in transparently; the fault
/// retransmit machinery runs unchanged underneath every QP kind. rdma_write
/// always names its functional source `payload` (Verbs::rdma_write);
/// segmentation, spraying and striping offset it exactly as they offset
/// `lbuf`.
class Transport {
 public:
  Transport(Verbs& verbs, const TransportConfig& cfg);
  virtual ~Transport();
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual const char* name() const = 0;
  QpKind kind() const { return cfg_.kind; }
  int rails() const { return cfg_.rails; }
  const TransportConfig& config() const { return cfg_; }
  Verbs& verbs() { return verbs_; }
  RegistrationCache& reg_cache() { return verbs_.reg_cache(); }
  std::uint64_t ops_posted() const { return verbs_.ops_posted(); }

  /// The per-endpoint handle for `id` (PE or service endpoint), created on
  /// first use.
  Endpoint& endpoint(int id);

  /// Memory model: what one endpoint pins when `num_endpoints` communicate
  /// all-to-all. Pure arithmetic — usable at any scale without simulating.
  virtual QpFootprint footprint(int num_endpoints) const = 0;

  /// False when the transport may deliver two data transfers (or segments
  /// of one transfer) between the same endpoint pair out of issue order —
  /// srd. Protocol code that sequences a notification behind a data write
  /// must then wait for the data completion explicitly instead of riding
  /// the wire's FIFO.
  virtual bool in_order_delivery() const { return true; }

  virtual sim::CompletionPtr rdma_write(sim::Process& proc, int src_pe,
                                        const void* lbuf, int dst_pe,
                                        void* rbuf, std::size_t n,
                                        const void* payload);
  virtual sim::CompletionPtr rdma_read(sim::Process& proc, int src_pe,
                                       void* lbuf, int dst_pe,
                                       const void* rbuf, std::size_t n);
  virtual sim::CompletionPtr post_send(sim::Process& proc, int src_pe,
                                       int dst_pe, std::size_t n,
                                       std::function<void()> deliver);
  virtual sim::CompletionPtr atomic_fadd64(sim::Process& proc, int src_pe,
                                           int dst_pe, std::uint64_t* raddr,
                                           std::uint64_t add,
                                           std::uint64_t* result);
  virtual sim::CompletionPtr atomic_cswap64(sim::Process& proc, int src_pe,
                                            int dst_pe, std::uint64_t* raddr,
                                            std::uint64_t compare,
                                            std::uint64_t swap,
                                            std::uint64_t* result);

  // ---- diagnostics --------------------------------------------------------
  std::uint64_t dc_reconnects() const { return dc_reconnects_; }
  std::uint64_t ud_packets() const { return ud_packets_; }
  std::uint64_t striped_ops() const { return striped_ops_; }
  std::uint64_t srd_segments() const { return srd_segments_; }
  /// Segment deliveries that arrived while an earlier-offset segment of the
  /// same op was still in flight (a reorder the target had to absorb).
  std::uint64_t srd_ooo_deliveries() const { return srd_ooo_deliveries_; }
  /// Reorder/tracking buffer high-water marks (bytes and entries held for
  /// ops whose completion had not yet been raised). Zero on the ordered
  /// transports.
  virtual std::uint64_t srd_reorder_bytes_hwm() const { return 0; }
  virtual std::uint64_t srd_reorder_entries_hwm() const { return 0; }

 protected:
  const hw::SystemParams& params() const { return verbs_.cluster().params(); }
  /// Large message on a 2-rail config with a second HCA available?
  bool stripe_eligible(std::size_t n) const;
  /// Split the transfer across both HCAs; one completion for both halves.
  sim::CompletionPtr striped_write(sim::Process& proc, int src_pe,
                                   const void* lbuf, int dst_pe, void* rbuf,
                                   std::size_t n, const void* payload);
  sim::CompletionPtr striped_read(sim::Process& proc, int src_pe, void* lbuf,
                                  int dst_pe, const void* rbuf, std::size_t n);

  Verbs& verbs_;
  TransportConfig cfg_;
  std::uint64_t dc_reconnects_ = 0;
  std::uint64_t ud_packets_ = 0;
  std::uint64_t striped_ops_ = 0;
  std::uint64_t srd_segments_ = 0;
  std::uint64_t srd_ooo_deliveries_ = 0;

 private:
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

/// Per-PE facade binding the source endpoint id — the handle protocol code
/// holds so op call sites never thread their own id around.
class Endpoint {
 public:
  Endpoint(Transport& transport, int id) : t_(transport), id_(id) {}
  int id() const { return id_; }
  Transport& transport() { return t_; }

  sim::CompletionPtr rdma_write(sim::Process& proc, const void* lbuf,
                                int dst_pe, void* rbuf, std::size_t n) {
    return t_.rdma_write(proc, id_, lbuf, dst_pe, rbuf, n, lbuf);
  }
  sim::CompletionPtr rdma_read(sim::Process& proc, void* lbuf, int dst_pe,
                               const void* rbuf, std::size_t n) {
    return t_.rdma_read(proc, id_, lbuf, dst_pe, rbuf, n);
  }
  sim::CompletionPtr post_send(sim::Process& proc, int dst_pe, std::size_t n,
                               std::function<void()> deliver) {
    return t_.post_send(proc, id_, dst_pe, n, std::move(deliver));
  }
  sim::CompletionPtr atomic_fadd64(sim::Process& proc, int dst_pe,
                                   std::uint64_t* raddr, std::uint64_t add,
                                   std::uint64_t* result) {
    return t_.atomic_fadd64(proc, id_, dst_pe, raddr, add, result);
  }
  sim::CompletionPtr atomic_cswap64(sim::Process& proc, int dst_pe,
                                    std::uint64_t* raddr, std::uint64_t compare,
                                    std::uint64_t swap, std::uint64_t* result) {
    return t_.atomic_cswap64(proc, id_, dst_pe, raddr, compare, swap, result);
  }

 private:
  Transport& t_;
  int id_;
};

/// Build the transport selected by `cfg` over the shared verbs engine.
std::unique_ptr<Transport> make_transport(Verbs& verbs,
                                          const TransportConfig& cfg);

}  // namespace gdrshmem::ib
