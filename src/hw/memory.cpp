#include "hw/memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>

namespace hw {

namespace {

constexpr std::uint64_t kWordBits = 64;

}  // namespace

HostMemory::HostMemory(std::size_t bytes)
    : size_{(bytes / kPageSize) * kPageSize} {
  if (size_ == 0) throw std::invalid_argument("memory smaller than a page");
  void* p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  store_ = static_cast<std::byte*>(p);
  free_count_ = page_count();
  free_bits_.assign((free_count_ + kWordBits - 1) / kWordBits,
                    ~std::uint64_t{0});
}

HostMemory::~HostMemory() { ::munmap(store_, size_); }

std::uint64_t HostMemory::next(std::uint64_t from, bool free) const {
  const std::uint64_t n = page_count();
  if (from >= n) return n;
  const std::uint64_t flip = free ? 0 : ~std::uint64_t{0};
  std::size_t w = from / kWordBits;
  std::uint64_t bits =
      (free_bits_[w] ^ flip) & (~std::uint64_t{0} << (from % kWordBits));
  while (bits == 0) {
    if (++w == free_bits_.size()) return n;
    bits = free_bits_[w] ^ flip;
  }
  return w * kWordBits + static_cast<std::uint64_t>(std::countr_zero(bits));
}

std::optional<std::uint64_t> HostMemory::alloc_frame() {
  return alloc_contiguous(1);
}

void HostMemory::free_frame(std::uint64_t frame) {
  if (frame >= page_count()) throw std::out_of_range("bad frame");
  auto& word = free_bits_[frame / kWordBits];
  const auto bit = std::uint64_t{1} << (frame % kWordBits);
  if (word & bit) throw std::logic_error("double free of frame");
  word |= bit;
  ++free_count_;
  low_free_ = std::min(low_free_, frame);
}

std::optional<std::uint64_t> HostMemory::alloc_contiguous(std::size_t pages) {
  if (pages == 0) return std::nullopt;
  const std::uint64_t n = page_count();
  low_free_ = next(low_free_, /*free=*/true);
  for (auto start = low_free_; start < n;) {
    const auto end = next(start, /*free=*/false);
    if (end - start >= pages) {
      for (auto f = start; f < start + pages; ++f) {
        free_bits_[f / kWordBits] &= ~(std::uint64_t{1} << (f % kWordBits));
      }
      free_count_ -= pages;
      if (start == low_free_) low_free_ = start + pages;
      return start;
    }
    start = next(end, /*free=*/true);
  }
  return std::nullopt;
}

void HostMemory::free_contiguous(std::uint64_t first_frame,
                                 std::size_t pages) {
  for (std::uint64_t i = first_frame; i < first_frame + pages; ++i) {
    free_frame(i);
  }
}

void HostMemory::check(PhysAddr addr, std::size_t len) const {
  if (addr + len > size_ || addr + len < addr) {
    throw std::out_of_range("physical access out of bounds");
  }
}

void HostMemory::write(PhysAddr addr, std::span<const std::byte> data) {
  check(addr, data.size());
  std::memcpy(store_ + addr, data.data(), data.size());
}

void HostMemory::read(PhysAddr addr, std::span<std::byte> out) const {
  check(addr, out.size());
  std::memcpy(out.data(), store_ + addr, out.size());
}

std::span<std::byte> HostMemory::view(PhysAddr addr, std::size_t len) {
  check(addr, len);
  return {store_ + addr, len};
}

std::span<const std::byte> HostMemory::view(PhysAddr addr,
                                            std::size_t len) const {
  check(addr, len);
  return {store_ + addr, len};
}

}  // namespace hw
