// The team-aware collectives engine: algorithm selection by message size x
// team span x buffer domain, and the sync-pool layout every algorithm's
// flags and workspace live in.
//
// Synchronization protocol (shared by every algorithm):
//   * The pool is the first symmetric allocation of every host heap:
//     kMaxTeams fixed-size blocks, one per team slot. A block holds
//     dissemination-barrier flags, per-writer data flags, per-writer
//     ack/ready flags, a small control-plane reserve (team splits), and a
//     staging workspace.
//   * Flag values are (generation << 32) | sequence. The generation is the
//     team's collective counter — it advances identically on every member —
//     and the sequence numbers steps/chunks within one collective. Values
//     are strictly monotone per (writer, slot), so Cmp::kGe waits can never
//     be released by a stale write and slots never need resetting.
//   * Data always travels via Ctx::put_sync (remote ACK) strictly before
//     the flag announcing it; workspace and forwarded-buffer reuse is
//     rendezvous-gated with ready flags so a PE that raced ahead into the
//     next collective cannot overwrite state a slower member still reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/team.hpp"
#include "core/tuning.hpp"
#include "core/types.hpp"

namespace gdrshmem::core {
class Ctx;
}

namespace gdrshmem::core::coll {

/// Whether `algo` is implemented for `kind` (kAuto counts as supported).
bool algo_supported(CollKind kind, CollAlgo algo);

// ---------------------------------------------------------------------------
// Sync-pool layout. Deterministic function of (np, tuning, heap size), so
// every PE computes the same geometry without communication.

struct SyncLayout {
  static constexpr int kMaxTeams = 16;
  static constexpr int kBarrierRounds = 32;  // supports up to 2^32 PEs
  static constexpr std::size_t kMinWorkspace = 256;

  int np = 0;
  std::size_t workspace_bytes = 0;

  /// Workspace defaults to 2 * tuning.coll_chunk per block, shrunk (never
  /// below kMinWorkspace) so the whole pool fits in a quarter of the host
  /// heap. Throws when even the flag arrays do not fit.
  static SyncLayout make(int np, const Tuning& t, std::size_t host_heap_bytes);

  std::size_t flags_bytes() const;
  std::size_t block_bytes() const;
  std::size_t pool_bytes() const {
    return block_bytes() * static_cast<std::size_t>(kMaxTeams);
  }

  // Accessors into one PE's copy of the pool (`pool` = its host heap base).
  std::uint64_t* barrier_flags(std::byte* pool, int slot) const;
  /// Per-writer data-arrival flags, indexed by the writer's team index.
  std::uint64_t* data_flags(std::byte* pool, int slot) const;
  /// Per-writer ready/ack flags (rendezvous gating), same indexing.
  std::uint64_t* ack_flags(std::byte* pool, int slot) const;
  /// np 64-bit words of control-plane scratch (team-split slot agreement).
  std::uint64_t* reserve(std::byte* pool, int slot) const;
  std::byte* workspace(std::byte* pool, int slot) const;
};

// ---------------------------------------------------------------------------
// Selection. Pure function, exposed so benches/tests can name the algorithm
// a configuration will run. Honors tuning.coll_force and throws ShmemError
// when a forced algorithm cannot work at this (size, team, workspace).

CollAlgo select(const Tuning& t, const SyncLayout& lay, CollKind kind, int np,
                std::size_t nbytes, bool gpu_domain);

// ---------------------------------------------------------------------------
// Engine entry points. Collective over `team`'s members; `dst`/`src` are
// symmetric. Each records coll_bytes/coll_latency_ns histograms (keyed
// kind x algo) and, when tracing, a collective trace slice.

/// Team sync (no implicit quiet — Ctx::barrier_all adds it).
void sync(Ctx& ctx, Team& team);
/// Broadcast `nbytes` from team-relative `root`'s src into every other
/// member's dst (root's dst untouched, per OpenSHMEM).
void broadcast(Ctx& ctx, Team& team, void* dst, const void* src,
               std::size_t nbytes, int root);
/// Allreduce over `nelems` elements (dst may alias src). No size cap: the
/// ring algorithm streams through the fixed workspace.
void allreduce(Ctx& ctx, Team& team, void* dst, const void* src,
               std::size_t nelems, ReduceOp op, ScalarType type);
/// Concatenate every member's nbytes block into each member's dst.
void fcollect(Ctx& ctx, Team& team, void* dst, const void* src,
              std::size_t nbytes);
/// Personalized exchange: block j of member i's src lands at block i of
/// member j's dst.
void alltoall(Ctx& ctx, Team& team, void* dst, const void* src,
              std::size_t nbytes);

}  // namespace gdrshmem::core::coll
