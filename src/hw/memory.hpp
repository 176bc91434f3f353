// Host physical memory: a real byte store plus a page-frame allocator.
//
// All message payloads ultimately live here; DMA engines and memcpy models
// move actual bytes so the test suite can assert end-to-end integrity.
//
// The store is one anonymous private mapping (MAP_NORESERVE), so a frame
// costs host memory only once it is written and an untouched frame reads
// as zeros.  The allocator always hands out the lowest free frame (and the
// lowest first-fit run): physical addresses decide how buffers split into
// scatter/gather segments, so simulated costs depend on that order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace hw {

using PhysAddr = std::uint64_t;

inline constexpr std::size_t kPageSize = 4096;

// A contiguous physical range; scatter/gather lists are vectors of these.
struct PhysSegment {
  PhysAddr addr = 0;
  std::size_t len = 0;
};

class HostMemory {
 public:
  explicit HostMemory(std::size_t bytes);
  ~HostMemory();
  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  std::size_t size() const { return size_; }
  std::size_t page_count() const { return size_ / kPageSize; }
  std::size_t free_pages() const { return free_count_; }

  // Page-frame allocation (frame index, not address).
  std::optional<std::uint64_t> alloc_frame();
  void free_frame(std::uint64_t frame);
  // A run of `pages` consecutive frames (for shared-memory segments).
  std::optional<std::uint64_t> alloc_contiguous(std::size_t pages);
  void free_contiguous(std::uint64_t first_frame, std::size_t pages);
  static PhysAddr frame_addr(std::uint64_t frame) { return frame * kPageSize; }

  // Raw bounded access.
  void write(PhysAddr addr, std::span<const std::byte> data);
  void read(PhysAddr addr, std::span<std::byte> out) const;
  std::span<std::byte> view(PhysAddr addr, std::size_t len);
  std::span<const std::byte> view(PhysAddr addr, std::size_t len) const;

 private:
  void check(PhysAddr addr, std::size_t len) const;
  // First frame at or after `from` that is free (or, with free=false,
  // allocated); an index >= page_count() when there is none.
  std::uint64_t next(std::uint64_t from, bool free) const;

  std::byte* store_ = nullptr;
  std::size_t size_ = 0;
  // Bit f set <=> frame f is free.  The bits past the last frame are set
  // too; scans discard any index >= page_count().
  std::vector<std::uint64_t> free_bits_;
  std::size_t free_count_ = 0;
  std::uint64_t low_free_ = 0;  // no free frame has a lower index
};

}  // namespace hw
