// The three transport designs compared in the paper (Table I).
#pragma once

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "core/transport.hpp"
#include "sim/future.hpp"
#include "sim/zero_pages.hpp"

namespace gdrshmem::core {

class Runtime;

/// "Naive": the runtime moves host memory only; any GPU buffer is the
/// user's problem (explicit cudaMemcpy staging in application code).
class NaiveTransport final : public Transport {
 public:
  explicit NaiveTransport(Runtime& rt) : rt_(rt) {}
  std::string_view name() const override { return "naive"; }
  void put(Ctx& ctx, const RmaOp& op) override;
  void get(Ctx& ctx, const RmaOp& op) override;
  void handle_ctrl(Ctx& ctx, CtrlMsg& msg, sim::Process& worker) override;

 private:
  Runtime& rt_;
};

/// The CUDA-aware baseline of [15]: CUDA IPC copies intra-node; inter-node
/// D-D via a host-staged pipeline (eager below a threshold, rendezvous
/// above) whose last hop is performed *by the target PE* — breaking true
/// one-sidedness. Inter-node H-D / D-H are unsupported, as in the paper.
/// The transport owns every PE's protocol state (staging, flow control,
/// eager buffers); no other layer knows it exists.
class HostPipelineTransport final : public Transport {
 public:
  explicit HostPipelineTransport(Runtime& rt);
  std::string_view name() const override { return "host-pipeline"; }
  void put(Ctx& ctx, const RmaOp& op) override;
  void get(Ctx& ctx, const RmaOp& op) override;
  void handle_ctrl(Ctx& ctx, CtrlMsg& msg, sim::Process& worker) override;

 private:
  void put_intra(Ctx& ctx, const RmaOp& op);
  void get_intra(Ctx& ctx, const RmaOp& op);
  void eager_put(Ctx& ctx, const RmaOp& op);
  void rendezvous_put(Ctx& ctx, const RmaOp& op);
  void remote_request_get(Ctx& ctx, const RmaOp& op);

  void on_eager_data(Ctx& ctx, CtrlMsg& msg, sim::Process& worker);
  void on_eager_get_req(Ctx& ctx, CtrlMsg& msg, sim::Process& worker);
  void on_rts(Ctx& ctx, CtrlMsg& msg, sim::Process& worker);
  void on_chunk(Ctx& ctx, CtrlMsg& msg, sim::Process& worker);
  void on_get_req(Ctx& ctx, CtrlMsg& msg, sim::Process& worker);
  void grant_cts(Ctx& ctx, CtrlMsg& rts, sim::Process& worker);

  /// Eager puts use kTx/kRx; replies to eager gets use their own pair, so
  /// a put and a get crossing between two PEs never share a buffer.
  enum class Dir { kTx, kRx, kReplyTx, kReplyRx };
  /// `pe`'s registered eager_limit buffer for messages to (kTx, kReplyTx) or
  /// from (kRx, kReplyRx) `peer`, made on first use. Reusable once the
  /// previous eager message between the two in that direction is done.
  std::byte* eager_buffer(int pe, int peer, Dir dir);
  /// `ctx`'s rendezvous staging, grown (and re-registered, charged to
  /// `worker`) to at least `bytes`.
  std::byte* staging(Ctx& ctx, std::size_t bytes, sim::Process& worker);

  struct PeState {
    /// Rendezvous staging: the target's for puts, the requester's for gets.
    /// One transfer at a time; RTS arriving while it is busy wait in order.
    sim::ZeroPages staging;
    bool staging_busy = false;
    std::deque<CtrlMsg> deferred_rts;
    /// Eager flow control: at most one outstanding eager message per peer.
    std::map<int, sim::CompletionPtr> eager_outstanding;
    /// Plain heap storage: one mapping each would cost np² mmaps.
    std::map<std::pair<int, Dir>, std::vector<std::byte>> eager_buffers;
  };

  Runtime& rt_;
  std::vector<PeState> pes_;  // indexed by PE, sized once
};

/// This paper's design (Section III): GDR/IPC hybrids intra-node, Direct
/// GDR + pipeline-GDR-write + proxy inter-node. True one-sided everywhere.
class EnhancedGdrTransport final : public Transport {
 public:
  explicit EnhancedGdrTransport(Runtime& rt) : rt_(rt) {}
  std::string_view name() const override { return "enhanced-gdr"; }
  void put(Ctx& ctx, const RmaOp& op) override;
  void get(Ctx& ctx, const RmaOp& op) override;
  void handle_ctrl(Ctx& ctx, CtrlMsg& msg, sim::Process& worker) override;

 private:
  void direct_put(Ctx& ctx, const RmaOp& op, Protocol proto);
  void direct_get(Ctx& ctx, const RmaOp& op, Protocol proto);
  void pipeline_gdr_write(Ctx& ctx, const RmaOp& op);
  void host_staged_get(Ctx& ctx, const RmaOp& op);
  /// Stream `op` through the target node's proxy. Window writes are charged
  /// from `host_src` and carry `payload` (the user source).
  void proxy_put(Ctx& ctx, const RmaOp& op, const void* host_src,
                 const void* payload);
  void proxy_get(Ctx& ctx, const RmaOp& op);

  /// Record a gdr-fallback event when a device leg of `op`, issued by
  /// `issuer`, sits on a node whose P2P capability has been revoked (fault
  /// plans only).
  void note_gdr_fallback(const RmaOp& op, int issuer);

  Runtime& rt_;
};

}  // namespace gdrshmem::core
