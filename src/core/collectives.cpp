#include "core/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/ctx.hpp"

namespace gdrshmem::core::coll {
namespace {

using sim::Duration;

constexpr std::size_t kAlign = 64;

std::size_t align_up(std::size_t v) { return (v + kAlign - 1) & ~(kAlign - 1); }

}  // namespace

// ---------------------------------------------------------------------------
// Layout

std::size_t SyncLayout::flags_bytes() const {
  // barrier rounds + data + ack + reserve, all u64.
  return sizeof(std::uint64_t) *
         (static_cast<std::size_t>(kBarrierRounds) +
          3 * static_cast<std::size_t>(np));
}

std::size_t SyncLayout::block_bytes() const {
  return align_up(flags_bytes()) + align_up(workspace_bytes);
}

SyncLayout SyncLayout::make(int np, const Tuning& t,
                            std::size_t host_heap_bytes) {
  SyncLayout lay;
  lay.np = np;
  lay.workspace_bytes = align_up(2 * t.coll_chunk);
  // The pool may take at most a quarter of the heap; shrink the workspace
  // (the flags are non-negotiable) until it fits.
  std::size_t budget = host_heap_bytes / 4;
  std::size_t flags = align_up(lay.flags_bytes());
  if (flags * kMaxTeams > budget) {
    throw ShmemError("host heap too small for the collectives sync pool (" +
                     std::to_string(flags * kMaxTeams) +
                     " bytes of flags alone; raise GDRSHMEM_HOST_HEAP)");
  }
  std::size_t ws_budget = budget / kMaxTeams - flags;
  ws_budget = (ws_budget / kAlign) * kAlign;
  lay.workspace_bytes = std::max(std::min(lay.workspace_bytes, ws_budget),
                                 align_up(kMinWorkspace));
  return lay;
}

std::uint64_t* SyncLayout::barrier_flags(std::byte* pool, int slot) const {
  return reinterpret_cast<std::uint64_t*>(
      pool + static_cast<std::size_t>(slot) * block_bytes());
}

std::uint64_t* SyncLayout::data_flags(std::byte* pool, int slot) const {
  return barrier_flags(pool, slot) + kBarrierRounds;
}

std::uint64_t* SyncLayout::ack_flags(std::byte* pool, int slot) const {
  return data_flags(pool, slot) + np;
}

std::uint64_t* SyncLayout::reserve(std::byte* pool, int slot) const {
  return ack_flags(pool, slot) + np;
}

std::byte* SyncLayout::workspace(std::byte* pool, int slot) const {
  return pool + static_cast<std::size_t>(slot) * block_bytes() +
         align_up(flags_bytes());
}

// ---------------------------------------------------------------------------
// Algorithm names / support

bool algo_supported(CollKind kind, CollAlgo algo) {
  if (algo == CollAlgo::kAuto) return true;
  switch (kind) {
    case CollKind::kBarrier:
      return algo == CollAlgo::kDissemination || algo == CollAlgo::kLinear;
    case CollKind::kBroadcast:
      return algo == CollAlgo::kLinear || algo == CollAlgo::kBinomial ||
             algo == CollAlgo::kRing;
    case CollKind::kAllreduce:
      return algo == CollAlgo::kLinear || algo == CollAlgo::kRecDbl ||
             algo == CollAlgo::kRing;
    case CollKind::kFcollect:
      return algo == CollAlgo::kLinear || algo == CollAlgo::kBruck ||
             algo == CollAlgo::kRing;
    case CollKind::kAlltoall:
      return algo == CollAlgo::kLinear || algo == CollAlgo::kPairwise;
    case CollKind::kCount_: break;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Selection

CollAlgo select(const Tuning& t, const SyncLayout& lay, CollKind kind, int np,
                std::size_t nbytes, bool gpu_domain) {
  const std::size_t ws = lay.workspace_bytes;
  const std::size_t div = gpu_domain ? std::max<std::size_t>(t.coll_gpu_ceiling_divisor, 1) : 1;
  auto need = [&](bool ok, const char* what) {
    if (!ok) {
      throw ShmemError(std::string("forced collective algorithm does not fit: ") +
                       what + " (workspace " + std::to_string(ws) + " bytes)");
    }
  };
  CollAlgo forced = t.coll_force[static_cast<std::size_t>(kind)];
  if (forced != CollAlgo::kAuto) {
    if (!algo_supported(kind, forced)) {
      throw ShmemError(std::string(to_string(forced)) + " is not a " +
                       to_string(kind) + " algorithm");
    }
    // Workspace-bound algorithms must fit; the caps in auto mode guarantee it.
    if (kind == CollKind::kAllreduce && forced == CollAlgo::kRecDbl) {
      need(nbytes <= ws, "recursive doubling needs nbytes <= workspace");
    }
    if (kind == CollKind::kAllreduce && forced == CollAlgo::kLinear) {
      need(nbytes * static_cast<std::size_t>(np) <= ws,
           "linear allreduce needs np * nbytes <= workspace");
    }
    if (kind == CollKind::kFcollect && forced == CollAlgo::kBruck) {
      need(nbytes * static_cast<std::size_t>(np) <= ws,
           "bruck fcollect needs np * nbytes <= workspace");
    }
    return forced;
  }
  switch (kind) {
    case CollKind::kBarrier:
      return CollAlgo::kDissemination;
    case CollKind::kBroadcast:
      if (np <= 2 || nbytes <= t.coll_bcast_binomial_max / div)
        return CollAlgo::kBinomial;
      return CollAlgo::kRing;
    case CollKind::kAllreduce:
      if (nbytes <= std::min(t.coll_rd_max / div, ws)) return CollAlgo::kRecDbl;
      return CollAlgo::kRing;
    case CollKind::kFcollect:
      if (np <= 2) return CollAlgo::kLinear;
      if (nbytes <= t.coll_bruck_max / div &&
          nbytes * static_cast<std::size_t>(np) <= ws)
        return CollAlgo::kBruck;
      return CollAlgo::kRing;
    case CollKind::kAlltoall:
      if (np <= 2 || nbytes < t.coll_pairwise_min) return CollAlgo::kLinear;
      return CollAlgo::kPairwise;
    case CollKind::kCount_: break;
  }
  return CollAlgo::kLinear;
}

// ---------------------------------------------------------------------------
// Per-call context shared by all algorithms

namespace {

struct TeamCtx {
  Ctx& ctx;
  Team& t;
  const SyncLayout& lay;
  std::byte* pool;  // this PE's copy of the pool
  int slot;
  int np;
  int me;                 // my team index
  std::uint64_t gen = 0;  // this collective's generation

  TeamCtx(Ctx& c, Team& team)
      : ctx(c),
        t(team),
        lay(c.coll_layout()),
        pool(c.coll_pool()),
        slot(team.slot()),
        np(team.n_pes()),
        me(team.my_pe()) {}

  int world(int idx) const { return t.world_pe(idx); }
  std::uint64_t* bar(int r) const { return lay.barrier_flags(pool, slot) + r; }
  std::uint64_t* dflag(int writer) const {
    return lay.data_flags(pool, slot) + writer;
  }
  std::uint64_t* aflag(int writer) const {
    return lay.ack_flags(pool, slot) + writer;
  }
  std::byte* ws() const { return lay.workspace(pool, slot); }

  std::uint64_t fv(std::uint64_t seq) const { return (gen << 32) | seq; }

  /// 8-byte flag write. Flag puts are uniform in size, so two writes from
  /// one PE to one slot arrive in issue order on a healthy in-order fabric;
  /// under an active fault plan retransmits could reorder them, and on a
  /// relaxed-ordering transport (srd) delivery jitter can — a newer
  /// generation-tagged value overwritten by a stale one after the waiter
  /// already passed would strand a later kGe wait forever. Flush each flag
  /// before the next can be issued in either regime.
  void put_flag(std::uint64_t* my_slot, std::uint64_t v, int peer_idx) {
    ctx.putmem(my_slot, &v, sizeof(v), world(peer_idx));
    if (ctx.runtime().faults_enabled() ||
        !ctx.runtime().ib().in_order_delivery()) {
      ctx.quiet();
    }
  }
  void wait_flag(const std::uint64_t* my_slot, std::uint64_t v) {
    ctx.wait_until<std::uint64_t>(my_slot, Cmp::kGe, v);
  }
  /// Data strictly before any flag announcing it (remote ACK awaited).
  void put_data(void* dst_sym, const void* src, std::size_t n, int peer_idx) {
    ctx.put_sync(dst_sym, src, n, world(peer_idx));
  }
};

/// Local copy with a realistic charge (dst may alias src: no-op then).
void local_copy(Ctx& ctx, void* dst, const void* src, std::size_t n) {
  if (dst == src || n == 0) return;
  ctx.cuda_memcpy(dst, src, n);
}

bool in_gpu_domain(Ctx& ctx, const void* p) {
  return ctx.runtime().heap(ctx.my_pe(), Domain::kGpu).contains(p);
}

/// Elementwise acc = op(acc, in) over `nelems`, charged per hw::params:
/// a CPU pass for host buffers, the cudart kernel model for device ones
/// (launch overhead + gpu_reduce_ns_per_byte).
void combine(Ctx& ctx, void* acc, const void* in, std::size_t nelems,
             ReduceOp op, ScalarType st, bool gpu) {
  if (nelems == 0) return;
  if (op == ReduceOp::kBand && (st == ScalarType::kF32 || st == ScalarType::kF64)) {
    throw ShmemError("band reduction requires an integer type");
  }
  auto one = [op](auto* a, auto v) {
    using V = std::remove_reference_t<decltype(*a)>;
    switch (op) {
      case ReduceOp::kSum: *a += v; break;
      case ReduceOp::kMin: *a = v < *a ? v : *a; break;
      case ReduceOp::kMax: *a = v > *a ? v : *a; break;
      case ReduceOp::kBand:
        if constexpr (std::is_integral_v<V>) *a &= v;
        break;
    }
  };
  auto body = [&] {
    for (std::size_t e = 0; e < nelems; ++e) {
      switch (st) {
        case ScalarType::kF32:
          one(static_cast<float*>(acc) + e, static_cast<const float*>(in)[e]);
          break;
        case ScalarType::kF64:
          one(static_cast<double*>(acc) + e, static_cast<const double*>(in)[e]);
          break;
        case ScalarType::kI32:
          one(static_cast<std::int32_t*>(acc) + e,
              static_cast<const std::int32_t*>(in)[e]);
          break;
        case ScalarType::kI64:
          one(static_cast<std::int64_t*>(acc) + e,
              static_cast<const std::int64_t*>(in)[e]);
          break;
      }
    }
  };
  const auto& p = ctx.runtime().cluster().params();
  const std::size_t elsize = scalar_size(st);
  if (gpu) {
    ctx.launch_kernel(nelems, p.gpu_reduce_ns_per_byte * static_cast<double>(elsize),
                      body);
  } else {
    body();
    ctx.proc().delay(Duration::ns(static_cast<std::int64_t>(
        static_cast<double>(nelems * elsize) * p.cpu_reduce_ns_per_byte)));
  }
}

// ---- barrier --------------------------------------------------------------

void dissemination_sync(TeamCtx& tc) {
  for (int r = 0; (1 << r) < tc.np; ++r) {
    int peer = (tc.me + (1 << r)) % tc.np;
    std::uint64_t v = tc.fv(1);
    tc.put_flag(tc.bar(r), v, peer);
    tc.wait_flag(tc.bar(r), v);
  }
}

void linear_barrier(TeamCtx& tc) {
  if (tc.me != 0) {
    tc.put_flag(tc.dflag(tc.me), tc.fv(1), 0);
    tc.wait_flag(tc.dflag(0), tc.fv(2));
  } else {
    for (int i = 1; i < tc.np; ++i) tc.wait_flag(tc.dflag(i), tc.fv(1));
    for (int i = 1; i < tc.np; ++i) tc.put_flag(tc.dflag(0), tc.fv(2), i);
  }
}

// ---- broadcast ------------------------------------------------------------

/// Binomial tree rooted at team PE `root`. Children announce readiness at
/// entry (rendezvous), so a parent racing ahead into a later generation
/// cannot overwrite a dst a slow child still forwards from; the data flag
/// is generation-tagged and written per parent, so a later generation's
/// flag (necessarily from the same parent, issued after this generation's
/// data was ACKed) can never release a waiter early.
void binomial_bcast(TeamCtx& tc, void* dst, const void* src, std::size_t n,
                    int root, std::uint64_t seq) {
  const int np = tc.np;
  int vrank = (tc.me - root + np) % np;
  int mask = 1;
  while (mask < np) {
    if (vrank & mask) {
      int parent = ((vrank ^ mask) + root) % np;
      tc.put_flag(tc.aflag(tc.me), tc.fv(seq), parent);  // ready to receive
      tc.wait_flag(tc.dflag(parent), tc.fv(seq));
      break;
    }
    mask <<= 1;
  }
  const void* data = (tc.me == root) ? src : dst;
  mask >>= 1;
  while (mask > 0) {
    int peer_v = vrank + mask;
    if (peer_v < np) {
      int peer = (peer_v + root) % np;
      tc.wait_flag(tc.aflag(peer), tc.fv(seq));
      tc.put_data(dst, data, n, peer);
      tc.put_flag(tc.dflag(tc.me), tc.fv(seq), peer);
    }
    mask >>= 1;
  }
}

/// Root blasts to everyone. The leading sync pins every member into this
/// generation before any data lands (dst stability for non-forwarders).
void linear_bcast(TeamCtx& tc, void* dst, const void* src, std::size_t n,
                  int root) {
  dissemination_sync(tc);
  if (tc.me == root) {
    for (int i = 0; i < tc.np; ++i) {
      if (i == root) continue;
      tc.ctx.putmem(dst, src, n, tc.world(i));
    }
    tc.ctx.quiet();  // all data ACKed before any flag
    for (int i = 0; i < tc.np; ++i) {
      if (i == root) continue;
      tc.put_flag(tc.dflag(root), tc.fv(1), i);
    }
  } else {
    tc.wait_flag(tc.dflag(root), tc.fv(1));
  }
}

/// Chunked ring pipeline: the root streams coll_chunk pieces down the
/// vrank-ordered chain; each PE forwards a chunk as soon as its flag lands.
/// Successors post an entry-ready so a predecessor in a later generation
/// cannot clobber a dst still being forwarded from.
void ring_bcast(TeamCtx& tc, void* dst, const void* src, std::size_t n,
                int root) {
  const int np = tc.np;
  const std::size_t piece = std::max<std::size_t>(
      tc.ctx.runtime().tuning().coll_chunk, 1);
  int vrank = (tc.me - root + np) % np;
  if (vrank > 0) {
    int pred = ((vrank - 1) + root) % np;
    tc.put_flag(tc.aflag(tc.me), tc.fv(1), pred);
  }
  int succ = vrank + 1 < np ? (vrank + 1 + root) % np : -1;
  if (succ >= 0) tc.wait_flag(tc.aflag(succ), tc.fv(1));
  const std::byte* sdata = static_cast<const std::byte*>(
      tc.me == root ? src : static_cast<const void*>(dst));
  int pred = ((vrank - 1 + np) + root) % np;
  const std::size_t nchunks = (n + piece - 1) / piece;
  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t off = c * piece;
    std::size_t len = std::min(piece, n - off);
    if (vrank > 0) tc.wait_flag(tc.dflag(pred), tc.fv(c + 1));
    if (succ >= 0) {
      tc.put_data(static_cast<std::byte*>(dst) + off, sdata + off, len, succ);
      tc.put_flag(tc.dflag(tc.me), tc.fv(c + 1), succ);
    }
  }
}

// ---- allreduce ------------------------------------------------------------

/// Legacy shape, kept for forcing/comparison: gather every contribution
/// into the root's workspace, combine there, binomial-broadcast the result.
/// Capacity-capped at np * nbytes <= workspace.
void linear_allreduce(TeamCtx& tc, void* dst, const void* src,
                      std::size_t nelems, ReduceOp op, ScalarType st,
                      bool gpu) {
  const std::size_t nbytes = nelems * scalar_size(st);
  if (tc.me != 0) {
    tc.put_data(tc.ws() + static_cast<std::size_t>(tc.me) * nbytes, src, nbytes, 0);
    tc.put_flag(tc.dflag(tc.me), tc.fv(1), 0);
  } else {
    local_copy(tc.ctx, dst, src, nbytes);
    for (int i = 1; i < tc.np; ++i) {
      tc.wait_flag(tc.dflag(i), tc.fv(1));
      combine(tc.ctx, dst, tc.ws() + static_cast<std::size_t>(i) * nbytes,
              nelems, op, st, gpu);
    }
  }
  binomial_bcast(tc, dst, dst, nbytes, 0, /*seq=*/2);
}

/// Recursive doubling with the standard non-power-of-two fold/unfold.
/// Every exchange is a rendezvous (ready -> data -> flag -> combine), so
/// the single workspace region is reused safely across rounds and
/// generations.
void recdbl_allreduce(TeamCtx& tc, void* dst, const void* src,
                      std::size_t nelems, ReduceOp op, ScalarType st,
                      bool gpu) {
  const std::size_t nbytes = nelems * scalar_size(st);
  const int np = tc.np, me = tc.me;
  local_copy(tc.ctx, dst, src, nbytes);
  int pof2 = 1;
  while (pof2 * 2 <= np) pof2 *= 2;
  const int rem = np - pof2;
  std::uint64_t seq = 1;

  auto send_to = [&](int partner) {
    tc.wait_flag(tc.aflag(partner), tc.fv(seq));
    tc.put_data(tc.ws(), dst, nbytes, partner);
    tc.put_flag(tc.dflag(me), tc.fv(seq), partner);
  };
  auto recv_from = [&](int partner) {
    tc.put_flag(tc.aflag(me), tc.fv(seq), partner);
    tc.wait_flag(tc.dflag(partner), tc.fv(seq));
    combine(tc.ctx, dst, tc.ws(), nelems, op, st, gpu);
  };

  int newrank;
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      send_to(me + 1);
      newrank = -1;
    } else {
      recv_from(me - 1);
      newrank = me / 2;
    }
  } else {
    newrank = me - rem;
  }
  ++seq;

  for (int mask = 1; mask < pof2; mask <<= 1, ++seq) {
    if (newrank < 0) continue;
    int partner_new = newrank ^ mask;
    int partner = partner_new < rem ? partner_new * 2 + 1 : partner_new + rem;
    // Bidirectional: both post ready first (no deadlock), then exchange.
    tc.put_flag(tc.aflag(me), tc.fv(seq), partner);
    tc.wait_flag(tc.aflag(partner), tc.fv(seq));
    tc.put_data(tc.ws(), dst, nbytes, partner);
    tc.put_flag(tc.dflag(me), tc.fv(seq), partner);
    tc.wait_flag(tc.dflag(partner), tc.fv(seq));
    combine(tc.ctx, dst, tc.ws(), nelems, op, st, gpu);
  }

  // Unfold: odd ranks hand the finished vector back. Direct into dst (the
  // fold phase of the *next* generation already orders reuse).
  if (me < 2 * rem) {
    if (me % 2 == 1) {
      tc.put_data(dst, dst, nbytes, me - 1);
      tc.put_flag(tc.dflag(me), tc.fv(seq), me - 1);
    } else {
      tc.wait_flag(tc.dflag(me + 1), tc.fv(seq));
    }
  }
}

/// Ring allreduce: element-partitioned reduce-scatter with coll_chunk piece
/// pipelining through the workspace halves (credit-2 ready flow control),
/// then a ring allgather straight into dst. O(nbytes) virtual time per PE,
/// independent of team size, with no buffer-size cap.
void ring_allreduce(TeamCtx& tc, void* dst, const void* src,
                    std::size_t nelems, ReduceOp op, ScalarType st, bool gpu) {
  const std::size_t elsize = scalar_size(st);
  const int np = tc.np, me = tc.me;
  const int right = (me + 1) % np;
  const int left = (me + np - 1) % np;
  local_copy(tc.ctx, dst, src, nelems * elsize);
  auto* d = static_cast<std::byte*>(dst);

  std::size_t piece = std::min(tc.ctx.runtime().tuning().coll_chunk,
                               tc.lay.workspace_bytes / 2);
  piece = std::max((piece / elsize) * elsize, elsize);  // element-aligned
  const std::size_t half = tc.lay.workspace_bytes / 2;

  auto chunk_lo = [&](int c) {
    return (nelems * static_cast<std::size_t>(c)) / static_cast<std::size_t>(np);
  };
  auto chunk_elems = [&](int c) { return chunk_lo(c + 1) - chunk_lo(c); };
  auto npieces = [&](int c) {
    return (chunk_elems(c) * elsize + piece - 1) / piece;
  };
  // My receive-piece sequence is exactly my left neighbor's send sequence
  // (same chunks, computed identically), so flag values agree end to end.
  std::size_t total_recv = 0, total_send = 0;
  for (int s = 1; s < np; ++s) {
    total_recv += npieces((me - s + 2 * np) % np);
    total_send += npieces((me - s + 1 + 2 * np) % np);
  }

  // Credit-2: announce the first two workspace halves free.
  for (std::size_t g = 0; g < std::min<std::size_t>(2, total_recv); ++g) {
    tc.put_flag(tc.aflag(me), tc.fv(g + 1), left);
  }

  std::size_t gs = 0, gr = 0;  // global send / recv piece indices
  for (int s = 1; s < np; ++s) {
    const int send_c = (me - s + 1 + 2 * np) % np;
    const int recv_c = (me - s + 2 * np) % np;
    const std::size_t sp = npieces(send_c), rp = npieces(recv_c);
    const std::size_t send_off = chunk_lo(send_c) * elsize;
    const std::size_t send_len = chunk_elems(send_c) * elsize;
    const std::size_t recv_off = chunk_lo(recv_c) * elsize;
    const std::size_t recv_len = chunk_elems(recv_c) * elsize;
    for (std::size_t p = 0; p < std::max(sp, rp); ++p) {
      if (p < sp) {
        std::size_t off = p * piece;
        std::size_t len = std::min(piece, send_len - off);
        tc.wait_flag(tc.aflag(right), tc.fv(gs + 1));  // peer half free
        tc.put_data(tc.ws() + (gs % 2) * half, d + send_off + off, len, right);
        tc.put_flag(tc.dflag(me), tc.fv(gs + 1), right);
        ++gs;
      }
      if (p < rp) {
        std::size_t off = p * piece;
        std::size_t len = std::min(piece, recv_len - off);
        tc.wait_flag(tc.dflag(left), tc.fv(gr + 1));
        combine(tc.ctx, d + recv_off + off, tc.ws() + (gr % 2) * half,
                len / elsize, op, st, gpu);
        if (gr + 2 < total_recv) {
          tc.put_flag(tc.aflag(me), tc.fv(gr + 3), left);
        }
        ++gr;
      }
    }
  }

  // Allgather ring: fully-reduced chunks travel once around, straight into
  // each dst (single writer per chunk per generation). The entry-ready pins
  // the right neighbor into this generation before its dst is written.
  tc.put_flag(tc.aflag(me), tc.fv(total_recv + 1), left);
  tc.wait_flag(tc.aflag(right), tc.fv(total_send + 1));
  for (int s = 1; s < np; ++s) {
    const int sc = (me + 2 - s + 2 * np) % np;
    tc.put_data(d + chunk_lo(sc) * elsize, d + chunk_lo(sc) * elsize,
                chunk_elems(sc) * elsize, right);
    tc.put_flag(tc.dflag(me), tc.fv(total_send + 1 + static_cast<std::size_t>(s)),
                right);
    tc.wait_flag(tc.dflag(left),
                 tc.fv(total_recv + 1 + static_cast<std::size_t>(s)));
  }
}

// ---- fcollect -------------------------------------------------------------

void linear_fcollect(TeamCtx& tc, void* dst, const void* src,
                     std::size_t nbytes) {
  dissemination_sync(tc);  // pin every member into this generation
  auto* d = static_cast<std::byte*>(dst);
  local_copy(tc.ctx, d + static_cast<std::size_t>(tc.me) * nbytes, src, nbytes);
  for (int i = 1; i < tc.np; ++i) {
    int peer = (tc.me + i) % tc.np;
    tc.ctx.putmem(d + static_cast<std::size_t>(tc.me) * nbytes, src, nbytes,
                  tc.world(peer));
  }
  tc.ctx.quiet();
  for (int i = 1; i < tc.np; ++i) {
    tc.put_flag(tc.dflag(tc.me), tc.fv(1), (tc.me + i) % tc.np);
  }
  for (int i = 0; i < tc.np; ++i) {
    if (i != tc.me) tc.wait_flag(tc.dflag(i), tc.fv(1));
  }
}

/// Bruck's concatenation doubling through the workspace: log2(np) steps,
/// then a two-piece unrotate into dst. Per-step readies posted at entry
/// gate workspace reuse across generations.
void bruck_fcollect(TeamCtx& tc, void* dst, const void* src,
                    std::size_t nbytes) {
  const int np = tc.np, me = tc.me;
  auto* d = static_cast<std::byte*>(dst);
  // Announce readiness for every step to the PE that sends to me in it.
  {
    int cnt = 1, k = 0;
    while (cnt < np) {
      int from = (me + cnt) % np;
      tc.put_flag(tc.aflag(me), tc.fv(static_cast<std::uint64_t>(k) + 1), from);
      cnt += std::min(cnt, np - cnt);
      ++k;
    }
  }
  local_copy(tc.ctx, tc.ws(), src, nbytes);
  int cnt = 1, k = 0;
  while (cnt < np) {
    const int s = std::min(cnt, np - cnt);
    const int to = (me - cnt + np) % np;
    const int from = (me + cnt) % np;
    const std::uint64_t v = tc.fv(static_cast<std::uint64_t>(k) + 1);
    tc.wait_flag(tc.aflag(to), v);
    tc.put_data(tc.ws() + static_cast<std::size_t>(cnt) * nbytes, tc.ws(),
                static_cast<std::size_t>(s) * nbytes, to);
    tc.put_flag(tc.dflag(me), v, to);
    tc.wait_flag(tc.dflag(from), v);
    cnt += s;
    ++k;
  }
  // ws holds blocks me..me+np-1 (mod np); unrotate into dst.
  const std::size_t tail = static_cast<std::size_t>(np - me) * nbytes;
  local_copy(tc.ctx, d + static_cast<std::size_t>(me) * nbytes, tc.ws(), tail);
  if (me > 0) {
    local_copy(tc.ctx, d, tc.ws() + tail, static_cast<std::size_t>(me) * nbytes);
  }
}

/// Blocks travel once around the ring, each PE forwarding out of its dst.
void ring_fcollect(TeamCtx& tc, void* dst, const void* src,
                   std::size_t nbytes) {
  const int np = tc.np, me = tc.me;
  const int right = (me + 1) % np;
  const int left = (me + np - 1) % np;
  auto* d = static_cast<std::byte*>(dst);
  tc.put_flag(tc.aflag(me), tc.fv(1), left);  // my dst is writable this gen
  local_copy(tc.ctx, d + static_cast<std::size_t>(me) * nbytes, src, nbytes);
  tc.wait_flag(tc.aflag(right), tc.fv(1));
  for (int s = 1; s < np; ++s) {
    const int b = (me - s + 1 + np) % np;
    tc.put_data(d + static_cast<std::size_t>(b) * nbytes,
                d + static_cast<std::size_t>(b) * nbytes, nbytes, right);
    tc.put_flag(tc.dflag(me), tc.fv(static_cast<std::uint64_t>(s)), right);
    tc.wait_flag(tc.dflag(left), tc.fv(static_cast<std::uint64_t>(s)));
  }
}

// ---- alltoall -------------------------------------------------------------

void linear_alltoall(TeamCtx& tc, void* dst, const void* src,
                     std::size_t nbytes) {
  dissemination_sync(tc);
  auto* d = static_cast<std::byte*>(dst);
  auto* s = static_cast<const std::byte*>(src);
  local_copy(tc.ctx, d + static_cast<std::size_t>(tc.me) * nbytes,
             s + static_cast<std::size_t>(tc.me) * nbytes, nbytes);
  for (int i = 1; i < tc.np; ++i) {
    int peer = (tc.me + i) % tc.np;
    tc.ctx.putmem(d + static_cast<std::size_t>(tc.me) * nbytes,
                  s + static_cast<std::size_t>(peer) * nbytes, nbytes,
                  tc.world(peer));
  }
  tc.ctx.quiet();
  for (int i = 1; i < tc.np; ++i) {
    tc.put_flag(tc.dflag(tc.me), tc.fv(1), (tc.me + i) % tc.np);
  }
  for (int i = 0; i < tc.np; ++i) {
    if (i != tc.me) tc.wait_flag(tc.dflag(i), tc.fv(1));
  }
}

/// Round-structured pairwise exchange: round i pairs me with me±i, spreading
/// the np^2 transfers evenly instead of blasting them all at once.
void pairwise_alltoall(TeamCtx& tc, void* dst, const void* src,
                       std::size_t nbytes) {
  dissemination_sync(tc);
  auto* d = static_cast<std::byte*>(dst);
  auto* s = static_cast<const std::byte*>(src);
  local_copy(tc.ctx, d + static_cast<std::size_t>(tc.me) * nbytes,
             s + static_cast<std::size_t>(tc.me) * nbytes, nbytes);
  for (int i = 1; i < tc.np; ++i) {
    const int to = (tc.me + i) % tc.np;
    const int from = (tc.me - i + tc.np) % tc.np;
    tc.put_data(d + static_cast<std::size_t>(tc.me) * nbytes,
                s + static_cast<std::size_t>(to) * nbytes, nbytes, to);
    tc.put_flag(tc.dflag(tc.me), tc.fv(static_cast<std::uint64_t>(i)), to);
    tc.wait_flag(tc.dflag(from), tc.fv(static_cast<std::uint64_t>(i)));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine entry points

void sync(Ctx& ctx, Team& team) {
  sim::Time t0 = ctx.now();
  TeamCtx tc(ctx, team);
  CollAlgo algo = select(ctx.runtime().tuning(), tc.lay, CollKind::kBarrier,
                         tc.np, 0, false);
  if (tc.np > 1) {
    tc.gen = team.next_gen();
    if (algo == CollAlgo::kLinear) {
      linear_barrier(tc);
    } else {
      dissemination_sync(tc);
    }
  }
  ctx.record_collective(CollKind::kBarrier, algo, 0, t0);
}

void broadcast(Ctx& ctx, Team& team, void* dst, const void* src,
               std::size_t nbytes, int root) {
  if (root < 0 || root >= team.n_pes()) {
    throw ShmemError("broadcast root out of range for the team");
  }
  sim::Time t0 = ctx.now();
  TeamCtx tc(ctx, team);
  bool gpu = in_gpu_domain(ctx, dst);
  CollAlgo algo = select(ctx.runtime().tuning(), tc.lay, CollKind::kBroadcast,
                         tc.np, nbytes, gpu);
  if (tc.np > 1 && nbytes > 0) {
    tc.gen = team.next_gen();
    switch (algo) {
      case CollAlgo::kLinear: linear_bcast(tc, dst, src, nbytes, root); break;
      case CollAlgo::kRing: ring_bcast(tc, dst, src, nbytes, root); break;
      default: binomial_bcast(tc, dst, src, nbytes, root, 1); break;
    }
  }
  ctx.record_collective(CollKind::kBroadcast, algo, nbytes, t0);
}

void allreduce(Ctx& ctx, Team& team, void* dst, const void* src,
               std::size_t nelems, ReduceOp op, ScalarType type) {
  sim::Time t0 = ctx.now();
  TeamCtx tc(ctx, team);
  const std::size_t nbytes = nelems * scalar_size(type);
  bool gpu = in_gpu_domain(ctx, dst);
  CollAlgo algo = select(ctx.runtime().tuning(), tc.lay, CollKind::kAllreduce,
                         tc.np, nbytes, gpu);
  if (tc.np <= 1 || nelems == 0) {
    local_copy(ctx, dst, src, nbytes);
  } else {
    tc.gen = team.next_gen();
    switch (algo) {
      case CollAlgo::kLinear:
        linear_allreduce(tc, dst, src, nelems, op, type, gpu);
        break;
      case CollAlgo::kRing:
        ring_allreduce(tc, dst, src, nelems, op, type, gpu);
        break;
      default:
        recdbl_allreduce(tc, dst, src, nelems, op, type, gpu);
        break;
    }
  }
  ctx.record_collective(CollKind::kAllreduce, algo, nbytes, t0);
}

void fcollect(Ctx& ctx, Team& team, void* dst, const void* src,
              std::size_t nbytes) {
  sim::Time t0 = ctx.now();
  TeamCtx tc(ctx, team);
  bool gpu = in_gpu_domain(ctx, dst);
  CollAlgo algo = select(ctx.runtime().tuning(), tc.lay, CollKind::kFcollect,
                         tc.np, nbytes, gpu);
  if (tc.np <= 1 || nbytes == 0) {
    local_copy(ctx, dst, src, nbytes);
  } else {
    tc.gen = team.next_gen();
    switch (algo) {
      case CollAlgo::kBruck: bruck_fcollect(tc, dst, src, nbytes); break;
      case CollAlgo::kRing: ring_fcollect(tc, dst, src, nbytes); break;
      default: linear_fcollect(tc, dst, src, nbytes); break;
    }
  }
  ctx.record_collective(CollKind::kFcollect, algo, nbytes, t0);
}

void alltoall(Ctx& ctx, Team& team, void* dst, const void* src,
              std::size_t nbytes) {
  sim::Time t0 = ctx.now();
  TeamCtx tc(ctx, team);
  bool gpu = in_gpu_domain(ctx, dst);
  CollAlgo algo = select(ctx.runtime().tuning(), tc.lay, CollKind::kAlltoall,
                         tc.np, nbytes, gpu);
  if (tc.np <= 1 || nbytes == 0) {
    local_copy(ctx, static_cast<std::byte*>(dst),
               static_cast<const std::byte*>(src), nbytes);
  } else {
    tc.gen = team.next_gen();
    if (algo == CollAlgo::kPairwise) {
      pairwise_alltoall(tc, dst, src, nbytes);
    } else {
      linear_alltoall(tc, dst, src, nbytes);
    }
  }
  ctx.record_collective(CollKind::kAlltoall, algo, nbytes, t0);
}

}  // namespace gdrshmem::core::coll
