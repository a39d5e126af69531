// The proposed GDR-aware design (Section III): hybrid protocol selection
// that keeps every configuration truly one-sided.
//
//   intra-node   small  -> loopback RDMA with GDR legs (Fig 2)
//   intra-node   large  -> one CUDA IPC copy, or one cudaMemcpy straight
//                          into the peer's host heap (shmem_ptr, Fig 3)
//   inter-node   small  -> Direct GDR RDMA (Fig 4, solid)
//   inter-node   large  -> pipeline-GDR-write for device sources (Fig 4,
//                          dotted); per-node proxy for device-source gets
//                          and inter-socket device targets (Fig 5)
//
// Thresholds are Tuning runtime parameters, shrunk when the HCA and GPU sit
// on different sockets (Table III).
#include "core/protocol_selector.hpp"
#include "core/proxy.hpp"
#include "core/transport_util.hpp"
#include "core/transports.hpp"

namespace gdrshmem::core {

// ---------------------------------------------------------------------------
// dispatch
//
// Path selection lives in core::ProtocolSelector (shared with the
// device-initiated backends); this transport only executes the choice.

void EnhancedGdrTransport::note_gdr_fallback(const RmaOp& op, int issuer) {
  if ((op.local_is_device && !rt_.gdr_available(issuer)) ||
      (op.remote_domain == Domain::kGpu && !rt_.gdr_available(op.target_pe))) {
    rt_.faults().on_event(sim::FaultEvent::kGdrFallback, issuer);
  }
}

void EnhancedGdrTransport::put(Ctx& ctx, const RmaOp& op) {
  const int issuer = ctx.my_pe();
  if (rt_.faults_enabled()) note_gdr_fallback(op, issuer);
  switch (rt_.selector().select_put(op, issuer)) {
    case PathChoice::kHostShm:
      ctx.count_protocol(Protocol::kHostShm, op.bytes);
      return detail::host_shm_copy(ctx, op.remote, op.local, op.bytes,
                                   op.target_pe);
    case PathChoice::kLoopbackGdr:
      return direct_put(ctx, op, Protocol::kLoopbackGdr);
    case PathChoice::kIpcCopy:
      // One IPC copy into the mapped destination (H-D / D-D large put).
      return detail::peer_cuda_copy(ctx, op.remote, op.local, op.bytes,
                                    op.target_pe, Protocol::kIpcCopy, true);
    case PathChoice::kShmemPtrCopy:
      // D-H large put: cudaMemcpy D->H straight into the peer's host heap —
      // the shmem_ptr design of Fig 3. One copy, no target involvement.
      return detail::peer_cuda_copy(ctx, op.remote, op.local, op.bytes,
                                    op.target_pe, Protocol::kShmemPtrCopy,
                                    false);
    case PathChoice::kDirectRdma:
      return direct_put(ctx, op, Protocol::kDirectRdma);
    case PathChoice::kDirectGdr:
      return direct_put(ctx, op, Protocol::kDirectGdr);
    case PathChoice::kPipelineGdrWrite:
      return pipeline_gdr_write(ctx, op);
    case PathChoice::kStagedProxyPut: {
      // Both ends bottlenecked (or the target's P2P was revoked): stage the
      // whole message to host locally, let the target-side proxy do the last
      // hop with an IPC copy. The staging copy is charged only: the window
      // writes carry the user source, which stays untouched until the put
      // completes (blocking) or quiet returns (nbi).
      std::byte* b = ctx.bounce(op.bytes);
      rt_.cuda().charge_copy_sync(ctx.proc(), b, op.local, op.bytes);
      return proxy_put(ctx, op, b, op.local);
    }
    case PathChoice::kProxyPut:
      return proxy_put(ctx, op, op.local, op.local);
    default:
      throw ShmemError("enhanced-gdr: unreachable put path");
  }
}

void EnhancedGdrTransport::get(Ctx& ctx, const RmaOp& op) {
  const int issuer = ctx.my_pe();
  if (rt_.faults_enabled()) note_gdr_fallback(op, issuer);
  switch (rt_.selector().select_get(op, issuer)) {
    case PathChoice::kHostShm:
      ctx.count_protocol(Protocol::kHostShm, op.bytes);
      return detail::host_shm_copy(ctx, op.local, op.remote, op.bytes, -1);
    case PathChoice::kLoopbackGdr:
      return direct_get(ctx, op, Protocol::kLoopbackGdr);
    case PathChoice::kIpcCopy:
      // H-D / D-D large get: one IPC copy out of the mapped source. For H-D
      // this single D->H copy is the 40% win over the baseline's staged path.
      return detail::peer_cuda_copy(ctx, op.local, op.remote, op.bytes,
                                    op.target_pe, Protocol::kIpcCopy, true);
    case PathChoice::kShmemPtrCopy:
      // D-H large get: H->D copy from the peer's host heap (shmem_ptr).
      return detail::peer_cuda_copy(ctx, op.local, op.remote, op.bytes,
                                    op.target_pe, Protocol::kShmemPtrCopy,
                                    false);
    case PathChoice::kDirectRdma:
      return direct_get(ctx, op, Protocol::kDirectRdma);
    case PathChoice::kDirectGdr:
      return direct_get(ctx, op, Protocol::kDirectGdr);
    case PathChoice::kProxyGet:
      return proxy_get(ctx, op);
    case PathChoice::kHostStagedGet:
      return host_staged_get(ctx, op);
    default:
      throw ShmemError("enhanced-gdr: unreachable get path");
  }
}

void EnhancedGdrTransport::handle_ctrl(Ctx&, CtrlMsg&, sim::Process&) {
  // The whole point of the design: no target-PE work, ever.
  throw ShmemError("enhanced-gdr transport sends no PE-level control messages");
}

// ---------------------------------------------------------------------------
// inter-node protocols

void EnhancedGdrTransport::direct_put(Ctx& ctx, const RmaOp& op, Protocol proto) {
  detail::rdma_put(ctx, op, proto);
}

void EnhancedGdrTransport::direct_get(Ctx& ctx, const RmaOp& op, Protocol proto) {
  detail::rdma_get(ctx, op, proto);
}

void EnhancedGdrTransport::pipeline_gdr_write(Ctx& ctx, const RmaOp& op) {
  // Device source, large put. Avoid the P2P *read* bottleneck by IPC-copying
  // D->H into registered host staging, then RDMA (GDR-)writing each chunk.
  // (GDR-poor targets never reach here: the selector diverts them to
  // kStagedProxyPut or throws.)
  ctx.count_protocol(Protocol::kPipelineGdrWrite, op.bytes);
  const std::size_t chunk = rt_.tuning().pipeline_chunk;
  std::byte* bounce = ctx.bounce(2 * chunk);
  // Paper semantics: the put returns once the last IPC cudaMemcpy completes
  // and the RDMA is posted, and quiet waits for the chunks still in flight.
  // A blocking put's source is reusable on return, so on a healthy fabric
  // its in-flight chunks travel from snapshots; an nbi source stays
  // untouched until quiet.
  detail::StagingSlots slots = detail::staged_write(
      ctx, ctx.proc(), ctx.my_pe(), bounce, chunk,
      static_cast<const std::byte*>(op.local), op.target_pe,
      static_cast<std::byte*>(op.remote), op.bytes,
      /*snapshot=*/op.blocking && !rt_.faults_enabled());
  // Under a fault plan both slots are drained reliably first: once we
  // return the caller may reuse the source, and a replay re-reads it. A
  // legal strengthening of the put's completion semantics.
  for (std::size_t s = 0; s < 2; ++s) {
    sim::CompletionPtr comp = rt_.faults_enabled()
                                  ? slots.drain(ctx, ctx.proc(), s)
                                  : slots.comp[s];
    if (comp) ctx.track(std::move(comp));
  }
}

void EnhancedGdrTransport::host_staged_get(Ctx& ctx, const RmaOp& op) {
  // RDMA-read chunks into host staging, then H->D copy them locally —
  // avoids an inter-socket GDR write into our own GPU.
  ctx.count_protocol(Protocol::kHostStagedGet, op.bytes);
  const int me = ctx.my_pe();
  const std::size_t chunk = rt_.tuning().pipeline_chunk;
  std::byte* bounce = ctx.bounce(2 * chunk);
  auto* local_bytes = static_cast<std::byte*>(op.local);
  auto* remote_bytes = static_cast<const std::byte*>(op.remote);
  std::shared_ptr<cudart::CudaEvent> h2d[2];
  for (std::size_t off = 0; off < op.bytes; off += chunk) {
    std::size_t c = std::min(chunk, op.bytes - off);
    std::size_t s = (off / chunk) % 2;
    if (h2d[s]) h2d[s]->synchronize(ctx.proc());  // staging slot reusable
    // Reads are idempotent into the staging slot: replay in place.
    auto post = [this, &ctx, me, bounce, s, chunk, target = op.target_pe,
                 remote_bytes, off, c] {
      return rt_.ib().rdma_read(ctx.proc(), me, bounce + s * chunk, target,
                                   remote_bytes + off, c);
    };
    ctx.await_reliable(ctx.proc(), post(), post);
    h2d[s] = rt_.cuda().memcpy_async(local_bytes + off, bounce + s * chunk, c,
                                     ctx.stream());
  }
  for (auto& ev : h2d) {
    if (ev) ev->synchronize(ctx.proc());
  }
}

// Proxy exchanges. Each attempt uses fresh transfer state, so a restarted
// proxy never consumes a stale notification into a new transfer. On a
// healthy fabric the single attempt waits plainly; under a fault plan the
// proxy may crash mid-transfer, so every stage has a deadline and a
// timed-out attempt is reissued from scratch (detail::reissue_until_done).

void EnhancedGdrTransport::proxy_put(Ctx& ctx, const RmaOp& op,
                                     const void* host_src,
                                     const void* payload) {
  ctx.count_protocol(Protocol::kProxyPut, op.bytes);
  const int me = ctx.my_pe();
  ProxyDaemon& proxy = rt_.proxy(rt_.cluster().placement(op.target_pe).node);
  const sim::Duration timeout =
      sim::Duration::us(rt_.tuning().proxy_timeout_us);
  // host_src (user buffer or whole-message bounce) is each window write's
  // charged source; payload (the user buffer) is what lands. Both stay valid
  // across attempts and replays.
  auto* src_bytes = static_cast<const std::byte*>(host_src);
  auto* payload_bytes = static_cast<const std::byte*>(payload);
  detail::reissue_until_done(ctx, "proxy put", [&] {
    auto st = std::make_shared<ProxyPutState>();
    st->requester = me;
    CtrlMsg req;
    req.kind = CtrlMsg::Kind::kProxyPutReq;
    req.from = me;
    req.remote = op.remote;
    req.bytes = op.bytes;
    req.state = st;
    rt_.ib().post_send(ctx.proc(), me, proxy.endpoint(), 32,
                          [&proxy, req] { proxy.mailbox().post(req); });
    if (!detail::await_stage(ctx, [&] { return st->cts.done(); }, timeout)) {
      return false;
    }
    const std::size_t window = st->window;
    for (std::size_t off = 0; off < op.bytes; off += window) {
      std::size_t w = std::min(window, op.bytes - off);
      // Wait until the proxy drained the previous window out of staging.
      const std::uint64_t need = off / window;
      if (off > 0 &&
          !detail::await_stage(
              ctx, [&] { return st->windows_done >= need; }, timeout)) {
        return false;
      }
      auto post = [this, &ctx, me, &proxy, from = src_bytes + off,
                   bytes = payload_bytes + off, to = st->staging, w] {
        return rt_.ib().rdma_write(ctx.proc(), me, from, proxy.endpoint(), to,
                                   w, bytes);
      };
      auto data = post();
      if (rt_.faults_enabled() || !rt_.ib().in_order_delivery()) {
        // The proxy drains staging on fin receipt, so the window's bytes
        // must be there before the fin is sent: on srd the fin could
        // overtake the write, and under a fault plan a replayed write could
        // land after the drain.
        ctx.await_reliable(ctx.proc(), std::move(data), post);
      } else {
        ctx.track(std::move(data));  // FIFO wire: the fin follows the data
      }
      CtrlMsg fin;
      fin.kind = CtrlMsg::Kind::kProxyPutFin;
      fin.from = me;
      fin.remote = op.remote;
      fin.bytes = w;
      fin.offset = off;
      fin.state = st;
      rt_.ib().post_send(ctx.proc(), me, proxy.endpoint(), 0,
                            [&proxy, fin] { proxy.mailbox().post(fin); });
    }
    return detail::await_proxied(ctx, st->done, op.blocking, timeout);
  });
}

void EnhancedGdrTransport::proxy_get(Ctx& ctx, const RmaOp& op) {
  ctx.count_protocol(Protocol::kProxyGet, op.bytes);
  const int me = ctx.my_pe();
  ProxyDaemon& proxy = rt_.proxy(rt_.cluster().placement(op.target_pe).node);
  detail::reissue_until_done(ctx, "proxy get", [&] {
    // The proxy RDMA-writes straight into our destination buffer: it must
    // be registered under our endpoint (registration cache softens the
    // cost).
    rt_.verbs().reg_cache().get_or_register(ctx.proc(), me, op.local,
                                            op.bytes);
    auto st = std::make_shared<ProxyGetState>();
    st->requester = me;
    CtrlMsg req;
    req.kind = CtrlMsg::Kind::kProxyGet;
    req.from = me;
    req.local = op.local;    // our destination buffer
    req.remote = op.remote;  // device range on the proxy's node
    req.bytes = op.bytes;
    req.state = st;
    rt_.ib().post_send(ctx.proc(), me, proxy.endpoint(), 32,
                          [&proxy, req] { proxy.mailbox().post(req); });
    // One stage: the proxy streams straight into our destination buffer and
    // fires done. A reissued attempt rewrites the same bytes — idempotent.
    return detail::await_proxied(
        ctx, st->done, op.blocking,
        sim::Duration::us(rt_.tuning().proxy_timeout_us));
  });
}

}  // namespace gdrshmem::core
