// Internal helpers shared by the transport implementations.
#pragma once

#include <cstring>

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
  if (wake_pe >= 0) rt.notify_pe(wake_pe);
}

inline void host_shm_copy(Ctx& ctx, void* dst, const void* src, std::size_t n,
                          int wake_pe) {
  host_shm_copy_by(ctx, ctx.proc(), dst, src, n, wake_pe);
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
    src = slot;
    slot_comp = comp_entry;
  }
  if (rt.faults_enabled()) {
    auto repost = [&ctx, &rt, op, src]() {
      return rt.endpoint(ctx.my_pe())
          .rdma_write(ctx.proc(), src, op.target_pe, op.remote, op.bytes);
    };
    auto comp = repost();
    if (op.blocking) {
      comp = ctx.await_reliable(ctx.proc(), std::move(comp), repost);
      ctx.track(std::move(comp));
    } else {
      ctx.track_reliable(std::move(comp), repost);
    }
    return;
  }
  auto comp = rt.endpoint(ctx.my_pe())
                  .rdma_write(ctx.proc(), src, op.target_pe, op.remote, op.bytes);
  ctx.track(comp);
  if (slot_comp != nullptr) {
    *slot_comp = std::move(comp);  // the slot is reused once this fires
  } else if (op.blocking) {
    comp->wait(ctx.proc());
  }
}

/// Get over (possibly loopback) RDMA read. Reads are idempotent, so replays
/// under a fault plan simply re-post the same descriptor.
inline void rdma_get(Ctx& ctx, const RmaOp& op, Protocol proto) {
  Runtime& rt = ctx.runtime();
  ctx.count_protocol(proto, op.bytes);
  if (rt.faults_enabled()) {
    auto repost = [&ctx, &rt, op]() {
      return rt.endpoint(ctx.my_pe())
          .rdma_read(ctx.proc(), op.local, op.target_pe, op.remote, op.bytes);
    };
    auto comp = repost();
    if (op.blocking) {
      comp = ctx.await_reliable(ctx.proc(), std::move(comp), repost);
      ctx.track(std::move(comp));
    } else {
      ctx.track_reliable(std::move(comp), repost);
    }
    return;
  }
  auto comp = rt.endpoint(ctx.my_pe())
                  .rdma_read(ctx.proc(), op.local, op.target_pe, op.remote,
                             op.bytes);
  ctx.track(comp);
  if (op.blocking) comp->wait(ctx.proc());
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
