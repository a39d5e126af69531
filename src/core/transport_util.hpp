// Internal helpers shared by the transport implementations.
#pragma once

#include <algorithm>
#include <cstring>
#include <string>

#include "core/ctx.hpp"

namespace gdrshmem::core::detail {

/// Process-to-process copy through host shared memory on the caller's node,
/// charged to the caller.
inline void host_shm_copy_by(Ctx& ctx, sim::Process& worker, void* dst,
                             const void* src, std::size_t n, int wake_pe) {
  Runtime& rt = ctx.runtime();
  sim::Path p = rt.cluster().host_copy(rt.cluster().placement(ctx.my_pe()).node);
  sim::Time done = p.schedule(rt.engine().now(), n);
  worker.delay(done - rt.engine().now());
  std::memcpy(dst, src, n);
  rt.stats().host_copy_bytes += n;
  if (wake_pe >= 0) rt.notify_pe(wake_pe);
}

inline void host_shm_copy(Ctx& ctx, void* dst, const void* src, std::size_t n,
                          int wake_pe) {
  host_shm_copy_by(ctx, ctx.proc(), dst, src, n, wake_pe);
}

/// Post `op` through `post` and track it for quiet. If `wait`, block until
/// it completes (replayed under a fault plan) and track the completion that
/// succeeded. Under a plan a non-blocking op is tracked with `post` as its
/// repost closure, so quiet replays it; that copy of `post` is the only one
/// ever made.
template <typename Post>
sim::CompletionPtr post_tracked(Ctx& ctx, const RmaOp& op, const Post& post,
                                bool wait) {
  sim::CompletionPtr comp = post();
  if (!op.blocking && ctx.runtime().faults_enabled()) {
    ctx.track_reliable(comp, post);
    return comp;
  }
  if (wait) comp = ctx.await_reliable(ctx.proc(), std::move(comp), post);
  ctx.track(comp);
  return comp;
}

/// Put over (possibly loopback) RDMA. Small host-resident sources are sent
/// inline from a pre-registered slot so even a blocking put returns right
/// after the post; everything else waits for the ACK when blocking.
///
/// Under a fault plan a slot must not be recycled while a replay may still
/// read it. Small blocking puts still leave from their slot: the caller is
/// parked in await_reliable until the put is reliably complete, so nothing
/// reuses the slot meanwhile. Non-blocking puts skip the ring and carry a
/// repost closure over the (spec-pinned until quiet) user source buffer.
/// A small blocking put thus never registers the user's buffer: often a
/// stack local, whose address (and so whether an earlier registration
/// covers it) depends on the compiler's frame layout.
inline void rdma_put(Ctx& ctx, const RmaOp& op, Protocol proto) {
  Runtime& rt = ctx.runtime();
  ctx.count_protocol(proto, op.bytes);
  const bool use_inline = !op.local_is_device &&
                          op.bytes <= rt.tuning().inline_put_limit &&
                          (op.blocking || !rt.faults_enabled());
  const void* src = op.local;
  sim::CompletionPtr* slot_comp = nullptr;
  if (use_inline) {
    auto [slot, comp_entry] = ctx.inline_slot();
    std::memcpy(slot, op.local, op.bytes);
    rt.stats().host_copy_bytes += op.bytes;
    src = slot;
    slot_comp = comp_entry;
  }
  auto post = [&ctx, &rt, op, src] {
    return rt.endpoint(ctx.my_pe())
        .rdma_write(ctx.proc(), src, op.target_pe, op.remote, op.bytes);
  };
  const bool wait =
      op.blocking && (slot_comp == nullptr || rt.faults_enabled());
  auto comp = post_tracked(ctx, op, post, wait);
  if (slot_comp != nullptr) *slot_comp = std::move(comp);  // reuse once fired
}

/// Get over (possibly loopback) RDMA read. Reads are idempotent, so replays
/// under a fault plan simply re-post the same descriptor.
inline void rdma_get(Ctx& ctx, const RmaOp& op, Protocol proto) {
  Runtime& rt = ctx.runtime();
  ctx.count_protocol(proto, op.bytes);
  auto post = [&ctx, &rt, op] {
    return rt.endpoint(ctx.my_pe())
        .rdma_read(ctx.proc(), op.local, op.target_pe, op.remote, op.bytes);
  };
  post_tracked(ctx, op, post, op.blocking);
}

/// The two staging slots of a double-buffered pipeline: the completion of
/// the chunk each slot holds, and (fault plans only) the closure that
/// replays that chunk's write out of the slot.
struct StagingSlots {
  sim::CompletionPtr comp[2];
  std::function<sim::CompletionPtr()> repost[2];

  /// Block until slot `s`'s chunk has landed, replaying error completions
  /// under a fault plan. Returns the completion that succeeded (null for a
  /// slot that never held a chunk).
  sim::CompletionPtr drain(Ctx& owner, sim::Process& worker, std::size_t s) {
    if (!comp[s]) return nullptr;
    return owner.await_reliable(worker, std::move(comp[s]), repost[s]);
  }
};

/// The double-buffered staging-write pipeline: the paper's pipeline
/// GDR-write (Section III-B) and, run by the proxy, its reverse for gets
/// (Fig 5). Per chunk: a D->H copy from `src` into slot s of `staging`
/// (2 * `chunk` bytes), then an RDMA write out of that slot from endpoint
/// `src_ep` to `dst` on `target`. A slot is refilled only once its previous
/// chunk is complete; under a fault plan that chunk's error completions are
/// replayed first. `owner` is the PE whose replays these are. The caller
/// picks the completion tail from the slots.
///
/// The staging hop is charged (copy engine, the slot's registration and
/// source leg) but moves no bytes: each write carries `src + off` as its
/// payload, read at the delivery instant, so a byte is copied once, from
/// source to destination, and a replay re-reads the source. With
/// `snapshot` (a blocking put on a healthy fabric, which returns with the
/// last two chunks still in flight) those chunks travel from owner
/// snapshots taken at the copy instant instead, so the caller may reuse
/// `src` as soon as this returns.
inline StagingSlots staged_write(Ctx& owner, sim::Process& worker, int src_ep,
                                 std::byte* staging, std::size_t chunk,
                                 const std::byte* src, int target,
                                 std::byte* dst, std::size_t bytes,
                                 bool snapshot = false) {
  Runtime& rt = owner.runtime();
  StagingSlots slots;
  const std::size_t chunks = (bytes + chunk - 1) / chunk;
  for (std::size_t off = 0; off < bytes; off += chunk) {
    const std::size_t c = std::min(chunk, bytes - off);
    const std::size_t s = (off / chunk) % 2;
    slots.drain(owner, worker, s);
    std::byte* slot = staging + s * chunk;
    rt.cuda().charge_copy_sync(worker, slot, src + off, c);
    const std::byte* payload = src + off;
    sim::CompletionPtr* held = nullptr;
    if (snapshot && off / chunk + 2 >= chunks) {
      auto [copy, comp_entry] = owner.snapshot(c);
      std::memcpy(copy, payload, c);
      rt.stats().host_copy_bytes += c;
      payload = copy;
      held = comp_entry;
    }
    auto post = [&rt, &worker, src_ep, slot, payload, target, to = dst + off,
                 c] {
      return rt.ib().rdma_write(worker, src_ep, slot, target, to, c, payload);
    };
    slots.comp[s] = post();
    if (held != nullptr) *held = slots.comp[s];  // recycle once delivered
    if (rt.faults_enabled()) slots.repost[s] = post;
  }
  return slots;
}

/// Wait for one stage of a proxy exchange: plainly on a healthy fabric,
/// against a give-up instant `timeout` from now under a fault plan (false:
/// timed out, reissue). Only the plan's path schedules the deadline's wake
/// event.
template <typename Pred>
bool await_stage(Ctx& ctx, Pred&& pred, sim::Duration timeout) {
  if (ctx.runtime().faults_enabled()) {
    return ctx.wait_for_deadline(pred, ctx.now() + timeout);
  }
  ctx.wait_for(pred);
  return true;
}

/// The last stage: wait for the `done` of an op a proxy serves. On a
/// healthy fabric a non-blocking op is tracked for quiet instead; under a
/// fault plan every op waits, a legal strengthening of nbi.
inline bool await_proxied(Ctx& ctx, const sim::CompletionPtr& done,
                          bool blocking, sim::Duration timeout) {
  if (!blocking && !ctx.runtime().faults_enabled()) {
    ctx.track(done);
    return true;
  }
  return await_stage(ctx, [&] { return done->done(); }, timeout);
}

/// Run a proxy exchange until an attempt completes. Attempts fail only
/// under a fault plan (a stage deadline passed: the proxy may have crashed
/// holding the request); each failure is reissued from scratch, up to
/// Tuning::proxy_max_reissues. `what` names the exchange in the error.
template <typename Attempt>
void reissue_until_done(Ctx& ctx, const char* what, Attempt&& attempt) {
  Runtime& rt = ctx.runtime();
  for (int reissues = 1; !attempt(); ++reissues) {
    if (reissues > rt.tuning().proxy_max_reissues) {
      throw ShmemError(std::string(what) +
                       ": reissue budget exhausted after " +
                       std::to_string(rt.tuning().proxy_max_reissues) +
                       " reissues (GDRSHMEM_PROXY_MAX_REISSUES)");
    }
    rt.faults().on_event(sim::FaultEvent::kProxyReissue, ctx.my_pe());
  }
}

/// One-copy cudaMemcpy touching a peer's memory: CUDA IPC when the peer
/// buffer is on a GPU (one-time mapping cost), plain access to the peer's
/// host heap otherwise (the Fig 3 shmem_ptr design). Executed and charged
/// entirely on the calling PE — true one-sided.
inline void peer_cuda_copy(Ctx& ctx, void* dst, const void* src, std::size_t n,
                           int peer, Protocol proto, bool peer_mem_is_device) {
  Runtime& rt = ctx.runtime();
  ctx.count_protocol(proto, n);
  if (peer_mem_is_device) rt.map_peer_gpu_heap(ctx.proc(), ctx.my_pe(), peer);
  rt.cuda().memcpy_sync(ctx.proc(), dst, src, n);
  rt.notify_pe(peer);
}

}  // namespace gdrshmem::core::detail
