// Lazily committed, zero-filled memory for the model's registered buffers.
//
// Symmetric heaps, cudart allocations, staging and eager regions are sized
// for the worst case but touched sparsely. Zeroing them eagerly made Runtime
// construction almost all page-fault work and made RSS grow with
// np x heap. A ZeroPages is one private anonymous mapping: it reads as zero
// from the start, and the kernel commits a page only when it is first
// written.
#pragma once

#include <cstddef>

namespace gdrshmem::sim {

class ZeroPages {
 public:
  /// Mappings of at least this size are hinted for transparent huge pages,
  /// so dense first touches take one fault per 2 MiB rather than per 4 KiB.
  static constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

  ZeroPages() = default;
  /// Map `bytes` of zero-filled memory; zero bytes maps nothing (data() is
  /// null). Throws std::system_error when the mapping fails.
  explicit ZeroPages(std::size_t bytes);
  ~ZeroPages();

  ZeroPages(ZeroPages&& other) noexcept;
  ZeroPages& operator=(ZeroPages&& other) noexcept;
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }

  /// Keep [p, p + len), a range inside a mapping, on base pages: for data
  /// written so sparsely that one write must not commit a whole 2 MiB page.
  /// The range widens to whole base pages; a base page never straddles two
  /// huge-page frames, so neighbours lose no huge page the range itself
  /// would not cost them. Harmless on a mapping that was never hinted.
  static void no_huge_pages(void* p, std::size_t len);

 private:
  void release() noexcept;

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace gdrshmem::sim
