// Operation-level tracing: when enabled, every put/get/atomic records
// (PE, kind, protocol, bytes, target, start, end) in virtual time. Useful
// for understanding protocol selection and communication phases; exports
// CSV for external plotting and Chrome trace-event JSON for
// chrome://tracing / Perfetto.
//
// Storage is a bounded ring: the newest `capacity()` events are kept and a
// dropped-event counter records how many fell off the front
// (GDRSHMEM_TRACE_CAP sizes the ring). Recording is pure bookkeeping — it
// never schedules events or charges virtual time, so an enabled tracer is
// guaranteed not to perturb a run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sim/time.hpp"

namespace gdrshmem::core {

struct TraceEvent {
  int pe = -1;
  int target = -1;
  // kPut/kGet/kAtomic are operations; the remaining kinds are point-in-time
  // fault/recovery records (start == end) mirrored from the fault injector.
  enum class Kind {
    kPut,
    kGet,
    kAtomic,
    kRetransmit,    // tier-1 HCA retransmit of a failed attempt
    kError,         // retry envelope exhausted; CQ error surfaced
    kReplay,        // software re-posted an op after an error/timeout
    kFallback,      // op rerouted off a GDR protocol (P2P revoked)
    kProxyCrash,    // proxy daemon killed by the fault plan
    kProxyRestart,  // proxy daemon respawned
    kProxyReissue,  // requester timed out and re-sent a proxy request
    kStaleDrop,     // recovering proxy discarded a stale ctrl message
    kRevoke,        // P2P capability withdrawn on a node
    // Collective slices (core/collectives.*): one per engine entry, spanning
    // the PE's time inside the collective. target = -1, protocol unset.
    kCollBarrier,
    kCollBcast,
    kCollReduce,
    kCollFcollect,
    kCollAlltoall,
  } kind = Kind::kPut;
  Protocol protocol = Protocol::kCount_;  // kCount_ = unknown/none
  std::size_t bytes = 0;
  sim::Time start;
  sim::Time end;

  /// Operations render as complete ("X") slices in the Chrome trace; the
  /// fault/recovery kinds are instants.
  bool is_op() const {
    return kind == Kind::kPut || kind == Kind::kGet || kind == Kind::kAtomic;
  }
  /// Collective slices also render as "X", under their own category.
  bool is_coll() const { return kind >= Kind::kCollBarrier; }
};

inline const char* to_string(TraceEvent::Kind k) {
  switch (k) {
    case TraceEvent::Kind::kPut: return "put";
    case TraceEvent::Kind::kGet: return "get";
    case TraceEvent::Kind::kAtomic: return "atomic";
    case TraceEvent::Kind::kRetransmit: return "retransmit";
    case TraceEvent::Kind::kError: return "cq-error";
    case TraceEvent::Kind::kReplay: return "sw-replay";
    case TraceEvent::Kind::kFallback: return "gdr-fallback";
    case TraceEvent::Kind::kProxyCrash: return "proxy-crash";
    case TraceEvent::Kind::kProxyRestart: return "proxy-restart";
    case TraceEvent::Kind::kProxyReissue: return "proxy-reissue";
    case TraceEvent::Kind::kStaleDrop: return "stale-drop";
    case TraceEvent::Kind::kRevoke: return "p2p-revoke";
    case TraceEvent::Kind::kCollBarrier: return "barrier";
    case TraceEvent::Kind::kCollBcast: return "bcast";
    case TraceEvent::Kind::kCollReduce: return "allreduce";
    case TraceEvent::Kind::kCollFcollect: return "fcollect";
    case TraceEvent::Kind::kCollAlltoall: return "alltoall";
  }
  return "?";
}

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit Tracer(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity ? capacity : 1) {}

  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Resize the ring. Shrinking keeps the newest events (older ones count
  /// as dropped).
  void set_capacity(std::size_t cap);
  std::size_t capacity() const { return capacity_; }

  void record(TraceEvent ev) {
    if (!enabled_) return;
    if (ring_.size() < capacity_) {
      ring_.push_back(ev);
      return;
    }
    ring_[head_] = ev;  // overwrite the oldest slot
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  /// Number of retained events (<= capacity()).
  std::size_t size() const { return ring_.size(); }
  /// Events that fell off the front of the ring.
  std::uint64_t dropped() const { return dropped_; }

  /// Retained events in chronological order.
  std::vector<TraceEvent> events() const;

  void clear() {
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  /// One line per event: pe,kind,target,bytes,protocol,start_us,end_us.
  std::string to_csv() const;

  /// Chrome trace-event JSON (load in chrome://tracing or ui.perfetto.dev):
  /// complete "X" events on one track per PE for operations, instant "i"
  /// events for the fault/recovery kinds, plus dropped-event metadata.
  std::string to_chrome_json() const;

 private:
  bool enabled_ = false;
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest event once the ring is full
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> ring_;
};

}  // namespace gdrshmem::core
