// Common public types of the GDR-aware OpenSHMEM runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace gdrshmem::core {

class ShmemError : public std::runtime_error {
 public:
  explicit ShmemError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a transport does not implement a configuration (e.g. the
/// host-based pipeline baseline has no inter-node H-D/D-H path).
class UnsupportedError : public ShmemError {
 public:
  explicit UnsupportedError(const std::string& what) : ShmemError(what) {}
};

/// Symmetric-heap domain, the paper's extension to shmalloc: where the
/// allocation lives. kHost and kGpu are the paper's two domains; kPmem is a
/// persistent region on the host memory bus (NVDIMM-style, Portus's
/// checkpoint store) — host-like on the wire, durable in semantics: bytes
/// acknowledged by quiet() survive proxy crashes and reroutes. Sized by
/// GDRSHMEM_PMEM_HEAP (0 = no pmem heap).
enum class Domain { kHost, kGpu, kPmem };

/// Which runtime design services communication.
enum class TransportKind {
  kNaive,         // host-only; device buffers are the user's problem
  kHostPipeline,  // CUDA-aware baseline of [15]: host staging + target copy
  kEnhancedGdr,   // this paper: GDR/IPC hybrids, pipeline-GDR-write, proxy
};

inline const char* to_string(TransportKind k) {
  switch (k) {
    case TransportKind::kNaive: return "naive";
    case TransportKind::kHostPipeline: return "host-pipeline";
    case TransportKind::kEnhancedGdr: return "enhanced-gdr";
  }
  return "?";
}

inline const char* to_string(Domain d) {
  switch (d) {
    case Domain::kHost: return "host";
    case Domain::kGpu: return "gpu";
    case Domain::kPmem: return "pmem";
  }
  return "?";
}

/// Which engine services device-initiated (in-kernel) operations.
enum class DeviceBackendKind {
  kGpuIb,           // GPU builds WQEs and rings the HCA doorbell directly
  kReverseOffload,  // GPU enqueues command descriptors; the proxy drains them
};

inline const char* to_string(DeviceBackendKind k) {
  switch (k) {
    case DeviceBackendKind::kGpuIb: return "gpu-ib";
    case DeviceBackendKind::kReverseOffload: return "reverse";
  }
  return "?";
}

/// Granularity at which device threads cooperate on one operation. Wider
/// scopes amortize the WQE build across lanes (hw::params divisors).
enum class DeviceScope { kThread, kWarp, kBlock };

inline const char* to_string(DeviceScope s) {
  switch (s) {
    case DeviceScope::kThread: return "thread";
    case DeviceScope::kWarp: return "warp";
    case DeviceScope::kBlock: return "block";
  }
  return "?";
}

/// Reduction operators of the collectives engine. kBand (bitwise AND) is
/// integer-only; the runtime uses it internally for team-slot agreement.
enum class ReduceOp { kSum, kMin, kMax, kBand };

/// Element types the typed reductions cover (OpenSHMEM 1.4 subset).
enum class ScalarType { kF32, kF64, kI32, kI64 };

template <typename T>
ScalarType scalar_tag();
template <> inline ScalarType scalar_tag<float>() { return ScalarType::kF32; }
template <> inline ScalarType scalar_tag<double>() { return ScalarType::kF64; }
template <> inline ScalarType scalar_tag<std::int32_t>() { return ScalarType::kI32; }
template <> inline ScalarType scalar_tag<std::int64_t>() { return ScalarType::kI64; }

inline std::size_t scalar_size(ScalarType t) {
  return (t == ScalarType::kF64 || t == ScalarType::kI64) ? 8 : 4;
}

inline const char* to_string(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kMin: return "min";
    case ReduceOp::kMax: return "max";
    case ReduceOp::kBand: return "band";
  }
  return "?";
}

/// Collective operations the engine implements (core/collectives.*).
enum class CollKind { kBarrier, kBroadcast, kAllreduce, kFcollect, kAlltoall, kCount_ };

/// Algorithms the engine can run; kAuto lets the size x team-span x domain
/// selection decide. Not every algorithm applies to every kind — see
/// coll::algo_supported.
enum class CollAlgo {
  kAuto,
  kLinear,         // flat: gather-to-root / root-to-all / all-pairs blast
  kDissemination,  // barrier
  kBinomial,       // broadcast tree
  kRing,           // chunked ring pipeline (bcast, allreduce, fcollect)
  kRecDbl,         // recursive doubling allreduce
  kBruck,          // log-step fcollect for small blocks
  kPairwise,       // round-structured alltoall exchange
  kCount_,
};

inline const char* to_string(CollKind k) {
  switch (k) {
    case CollKind::kBarrier: return "barrier";
    case CollKind::kBroadcast: return "bcast";
    case CollKind::kAllreduce: return "allreduce";
    case CollKind::kFcollect: return "fcollect";
    case CollKind::kAlltoall: return "alltoall";
    case CollKind::kCount_: break;
  }
  return "?";
}

inline const char* to_string(CollAlgo a) {
  switch (a) {
    case CollAlgo::kAuto: return "auto";
    case CollAlgo::kLinear: return "linear";
    case CollAlgo::kDissemination: return "dissemination";
    case CollAlgo::kBinomial: return "binomial";
    case CollAlgo::kRing: return "ring";
    case CollAlgo::kRecDbl: return "recdbl";
    case CollAlgo::kBruck: return "bruck";
    case CollAlgo::kPairwise: return "pairwise";
    case CollAlgo::kCount_: break;
  }
  return "?";
}

/// Protocols a transport can select; used for accounting and tests.
enum class Protocol {
  kHostShm,        // shared-memory copy between host heaps, same node
  kLoopbackGdr,    // intra-node RDMA loopback with a GDR leg
  kIpcCopy,        // CUDA IPC cudaMemcpy (direct, one copy)
  kIpcStaged,      // CUDA IPC copy via a host staging bounce (two copies)
  kShmemPtrCopy,   // cudaMemcpy straight into the peer's host heap (Fig 3)
  kDirectGdr,      // inter-node RDMA with GDR leg(s) (Fig 4 solid)
  kDirectRdma,     // inter-node host-to-host RDMA
  kPipelineGdrWrite,  // D->H IPC staging + GDR write chunks (Fig 4 dotted)
  kHostStagedGet,  // RDMA read to local host staging + local H2D copy
  kProxyGet,       // remote proxy executes the reverse pipeline (Fig 5)
  kProxyPut,       // remote proxy stages the last hop
  kEager,          // baseline eager: bounce + RDMA + target-side copy
  kRendezvous,     // baseline large-message pipeline with target involvement
  kAtomicHw,       // IB hardware atomic
  kCount_,
};

inline const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kHostShm: return "host-shm";
    case Protocol::kLoopbackGdr: return "loopback-gdr";
    case Protocol::kIpcCopy: return "ipc-copy";
    case Protocol::kIpcStaged: return "ipc-staged";
    case Protocol::kShmemPtrCopy: return "shmem-ptr-copy";
    case Protocol::kDirectGdr: return "direct-gdr";
    case Protocol::kDirectRdma: return "direct-rdma";
    case Protocol::kPipelineGdrWrite: return "pipeline-gdr-write";
    case Protocol::kHostStagedGet: return "host-staged-get";
    case Protocol::kProxyGet: return "proxy-get";
    case Protocol::kProxyPut: return "proxy-put";
    case Protocol::kEager: return "eager";
    case Protocol::kRendezvous: return "rendezvous";
    case Protocol::kAtomicHw: return "atomic-hw";
    case Protocol::kCount_: break;
  }
  return "?";
}

}  // namespace gdrshmem::core
