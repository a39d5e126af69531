#include "sim/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <system_error>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GDRSHMEM_ASAN_STACKS 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define GDRSHMEM_ASAN_STACKS 1
#endif

#ifdef GDRSHMEM_ASAN_STACKS
#include <sanitizer/asan_interface.h>
#endif

namespace gdrshmem::sim {

FiberStackPool& FiberStackPool::instance() {
  static FiberStackPool pool;
  return pool;
}

FiberStack FiberStackPool::acquire(std::size_t stack_bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t stack = (stack_bytes + page - 1) / page * page;
  const std::size_t map_len = stack + page;

  {
    std::lock_guard lk(mu_);
    auto it = free_.find(map_len);
    if (it != free_.end() && !it->second.empty()) {
      FiberStack s = it->second.back();
      it->second.pop_back();
      --pooled_;
      ++reused_;
      return s;
    }
  }

  FiberStack s;
  s.map_len = map_len;
  s.map_base = ::mmap(nullptr, s.map_len, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (s.map_base == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(),
                            "mmap fiber stack");
  }
  // Guard page at the low end: stacks grow down, so overflow faults instead
  // of silently corrupting the neighbouring fiber's stack.
  if (::mprotect(s.map_base, page, PROT_NONE) != 0) {
    const int err = errno;
    ::munmap(s.map_base, s.map_len);
    throw std::system_error(err, std::generic_category(),
                            "mprotect fiber guard page");
  }
  s.stack_lo = static_cast<char*>(s.map_base) + page;
  s.stack_len = stack;
  std::lock_guard lk(mu_);
  ++mapped_;
  return s;
}

void FiberStackPool::release(const FiberStack& s) noexcept {
  if (s.map_base == nullptr) return;
#ifdef GDRSHMEM_ASAN_STACKS
  // The dead fiber's shadow memory may still mark parts of the stack as
  // poisoned; the next fiber reusing it would fault spuriously.
  __asan_unpoison_memory_region(s.stack_lo, s.stack_len);
#endif
  {
    std::lock_guard lk(mu_);
    if (pooled_ < kCapacity) {
      free_[s.map_len].push_back(s);
      ++pooled_;
      return;
    }
  }
  ::munmap(s.map_base, s.map_len);
}

std::uint64_t FiberStackPool::mapped() const {
  std::lock_guard lk(mu_);
  return mapped_;
}

std::uint64_t FiberStackPool::reused() const {
  std::lock_guard lk(mu_);
  return reused_;
}

std::size_t FiberStackPool::pooled() const {
  std::lock_guard lk(mu_);
  return pooled_;
}

}  // namespace gdrshmem::sim
