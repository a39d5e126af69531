#include "sim/zero_pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <system_error>
#include <utility>

namespace gdrshmem::sim {

ZeroPages::ZeroPages(std::size_t bytes) {
  if (bytes == 0) return;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(),
                            "mmap " + std::to_string(bytes) + " zero pages");
  }
  // Advisory only: where THP is unavailable the mapping simply stays on
  // base pages.
  if (bytes >= kHugePageBytes) ::madvise(p, bytes, MADV_HUGEPAGE);
  data_ = static_cast<std::byte*>(p);
  size_ = bytes;
}

void ZeroPages::no_huge_pages(void* p, std::size_t len) {
  if (len == 0) return;
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(p) / page * page;
  const auto end = (reinterpret_cast<std::uintptr_t>(p) + len + page - 1) / page * page;
  ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_NOHUGEPAGE);
}

ZeroPages::~ZeroPages() { release(); }

ZeroPages::ZeroPages(ZeroPages&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

ZeroPages& ZeroPages::operator=(ZeroPages&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void ZeroPages::release() noexcept {
  if (data_ != nullptr) ::munmap(data_, size_);
  data_ = nullptr;
  size_ = 0;
}

}  // namespace gdrshmem::sim
