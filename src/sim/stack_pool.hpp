// Process-lifetime free-list of guard-paged fiber stacks.
//
// Creating a fiber stack costs an mmap + mprotect syscall pair plus the page
// faults of first touch; at 4K-16K PEs that cold-start cost (and the VMA
// churn of creating/destroying 16K mappings per simulation) dominates short
// runs. The pool recycles mappings across Process and Engine lifetimes:
// releasing a stack returns it (guard page intact, pages still committed) to
// a size-keyed free list, and the next acquire of the same geometry is a
// list pop — no syscalls, no faults.
//
// Stacks are lazily committed by the kernel on creation, so pooled capacity
// costs address space plus only the pages a fiber actually touched. The pool
// holds at most kCapacity stacks; stacks beyond the bound are munmapped on
// release.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace gdrshmem::sim {

/// A guard-paged fiber stack mapping: [guard page][usable stack].
struct FiberStack {
  void* map_base = nullptr;
  std::size_t map_len = 0;
  void* stack_lo = nullptr;  ///< usable stack bottom, just above the guard
  std::size_t stack_len = 0;
};

class FiberStackPool {
 public:
  /// The process-wide pool (fiber stacks outlive any one Engine).
  static FiberStackPool& instance();

  /// A guard-paged stack with `stack_bytes` usable bytes (page-rounded):
  /// pooled if one of that geometry is free, freshly mapped otherwise.
  /// Throws std::system_error if the kernel refuses the mapping.
  FiberStack acquire(std::size_t stack_bytes);

  /// Return a stack to the pool (or unmap it if the pool is full).
  void release(const FiberStack& s) noexcept;

  /// Max stacks retained across all geometries: one 16K-PE engine's worth.
  static constexpr std::size_t kCapacity = 16384;

  // Cumulative stats (process lifetime), for tests and the engine bench.
  std::uint64_t mapped() const;  ///< stacks created via mmap
  std::uint64_t reused() const;  ///< acquires served from the free list
  std::size_t pooled() const;    ///< stacks currently in the free list

 private:
  FiberStackPool() = default;

  mutable std::mutex mu_;
  std::map<std::size_t, std::vector<FiberStack>> free_;  // keyed by map_len
  std::size_t pooled_ = 0;
  std::uint64_t mapped_ = 0;
  std::uint64_t reused_ = 0;
};

}  // namespace gdrshmem::sim
