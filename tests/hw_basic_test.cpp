// Tests for HostMemory, Cpu, PciBus, and the Nic's DMA engines.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/memory.hpp"
#include "hw/nic.hpp"
#include "hw/pci.hpp"
#include "sim/engine.hpp"

namespace {

using hw::HostMemory;
using hw::kPageSize;
using hw::PhysSegment;
using sim::Engine;
using sim::Task;
using sim::Time;

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  }
  return v;
}

TEST(HostMemory, AllocAndFreeFrames) {
  HostMemory mem{16 * kPageSize};
  EXPECT_EQ(mem.page_count(), 16u);
  EXPECT_EQ(mem.free_pages(), 16u);
  auto f0 = mem.alloc_frame();
  auto f1 = mem.alloc_frame();
  ASSERT_TRUE(f0 && f1);
  EXPECT_NE(*f0, *f1);
  EXPECT_EQ(mem.free_pages(), 14u);
  mem.free_frame(*f0);
  EXPECT_EQ(mem.free_pages(), 15u);
}

TEST(HostMemory, ExhaustionReturnsNullopt) {
  HostMemory mem{2 * kPageSize};
  EXPECT_TRUE(mem.alloc_frame().has_value());
  EXPECT_TRUE(mem.alloc_frame().has_value());
  EXPECT_FALSE(mem.alloc_frame().has_value());
}

TEST(HostMemory, ReadWriteRoundTrip) {
  HostMemory mem{4 * kPageSize};
  const auto data = pattern(1000);
  mem.write(100, data);
  std::vector<std::byte> out(1000);
  mem.read(100, out);
  EXPECT_EQ(out, data);
}

TEST(HostMemory, OutOfBoundsThrows) {
  HostMemory mem{kPageSize};
  std::vector<std::byte> buf(64);
  EXPECT_THROW(mem.write(kPageSize - 10, buf), std::out_of_range);
  EXPECT_THROW(mem.read(kPageSize, buf), std::out_of_range);
  EXPECT_THROW(mem.view(kPageSize - 1, 2), std::out_of_range);
}

TEST(HostMemory, UntouchedFramesReadZeroAndMisuseThrows) {
  HostMemory mem{100 * kPageSize};  // not a multiple of 64 frames
  const auto run = mem.alloc_contiguous(70);
  ASSERT_TRUE(run.has_value());
  mem.write(HostMemory::frame_addr(*run), pattern(64));
  std::vector<std::byte> out(kPageSize, std::byte{0xff});
  mem.read(HostMemory::frame_addr(99), out);
  EXPECT_EQ(out, std::vector<std::byte>(kPageSize));
  for (const auto b : mem.view(HostMemory::frame_addr(*run) + 64, kPageSize)) {
    ASSERT_EQ(b, std::byte{0});
  }
  mem.free_contiguous(*run, 70);
  EXPECT_THROW(mem.free_contiguous(*run, 70), std::logic_error);
  EXPECT_THROW(mem.free_frame(100), std::out_of_range);
  EXPECT_THROW(mem.view(mem.size(), 1), std::out_of_range);
  EXPECT_THROW(mem.view(8, ~std::size_t{0}), std::out_of_range);
}

// Reference free list: the ordered-set allocator the bitmap must match
// frame for frame, since physical addresses feed every simulated output.
struct SetAllocator {
  std::set<std::uint64_t> free;

  explicit SetAllocator(std::size_t pages) {
    for (std::uint64_t f = 0; f < pages; ++f) free.insert(f);
  }
  std::optional<std::uint64_t> alloc_frame() {
    if (free.empty()) return std::nullopt;
    const auto f = *free.begin();
    free.erase(free.begin());
    return f;
  }
  std::optional<std::uint64_t> alloc_contiguous(std::size_t pages) {
    std::uint64_t start = 0;
    std::size_t len = 0;
    for (const auto f : free) {
      if (len == 0 || f != start + len) {
        start = f;
        len = 0;
      }
      if (++len == pages) {
        for (auto i = start; i < start + pages; ++i) free.erase(i);
        return start;
      }
    }
    return std::nullopt;
  }
  void free_run(std::uint64_t first, std::size_t pages) {
    for (auto i = first; i < first + pages; ++i) free.insert(i);
  }
};

TEST(HostMemory, BitmapAllocatorMatchesOrderedSetReference) {
  int word_crossing_runs = 0;
  int refused_runs = 0;
  for (const std::size_t pages : {1u, 63u, 64u, 65u, 130u, 333u}) {
    for (unsigned seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << pages << " pages, seed " << seed);
      HostMemory mem{pages * kPageSize};
      SetAllocator ref{pages};
      std::mt19937 rng(seed * 7919u + static_cast<unsigned>(pages));
      struct Held {
        std::uint64_t first;
        std::size_t pages;
      };
      std::vector<Held> held;
      for (int step = 0; step < 2000; ++step) {
        const auto op = rng() % 100;
        if (op < 35) {
          const auto got = mem.alloc_frame();
          ASSERT_EQ(got, ref.alloc_frame()) << "step " << step;
          if (got) held.push_back({*got, 1});
        } else if (op < 60) {
          const std::size_t n = 1 + rng() % std::min<std::size_t>(pages, 80);
          const auto got = mem.alloc_contiguous(n);
          ASSERT_EQ(got, ref.alloc_contiguous(n)) << "step " << step;
          if (got) {
            held.push_back({*got, n});
            if (*got / 64 != (*got + n - 1) / 64) ++word_crossing_runs;
          } else {
            ++refused_runs;
          }
        } else if (!held.empty()) {
          const auto i = rng() % held.size();
          const auto h = held[i];
          held[i] = held.back();
          held.pop_back();
          if (h.pages == 1 && op < 80) {
            mem.free_frame(h.first);
          } else {
            mem.free_contiguous(h.first, h.pages);
          }
          ref.free_run(h.first, h.pages);
        }
        ASSERT_EQ(mem.free_pages(), ref.free.size()) << "step " << step;
      }
      // Drain: both run dry on the same frame, then report exhaustion.
      while (const auto f = ref.alloc_frame()) ASSERT_EQ(mem.alloc_frame(), f);
      EXPECT_FALSE(mem.alloc_frame().has_value());
      EXPECT_FALSE(mem.alloc_contiguous(1).has_value());
      EXPECT_EQ(mem.free_pages(), 0u);
    }
  }
  EXPECT_GT(word_crossing_runs, 0);
  EXPECT_GT(refused_runs, 0);
}

TEST(Cpu, CycleCost) {
  Engine eng;
  hw::CpuConfig cfg;
  cfg.clock_hz = 100e6;
  hw::Cpu cpu{eng, "c", cfg};
  EXPECT_NEAR(cpu.cycles(100).to_us(), 1.0, 1e-9);
}

TEST(Cpu, MemcpyTwoRegimes) {
  Engine eng;
  hw::CpuConfig cfg;
  cfg.memcpy_bw_cached = 800e6;
  cfg.memcpy_bw_uncached = 400e6;
  cfg.cache_bytes = 1u << 20;
  cfg.memcpy_setup = Time::zero();
  hw::Cpu cpu{eng, "c", cfg};
  EXPECT_NEAR(cpu.memcpy_time(800).to_us(), 1.0, 1e-6);  // 800 B at 800 MB/s
  // Above the cache threshold the slower bandwidth applies.
  const std::size_t big = 2u << 20;
  EXPECT_NEAR(cpu.memcpy_time(big).to_us(), big / 400e6 * 1e6, 1e-3);
}

TEST(Cpu, CopyMovesBytesAndTakesTime) {
  Engine eng;
  HostMemory mem{8 * kPageSize};
  hw::Cpu cpu{eng, "c", {}};
  const auto data = pattern(4096);
  mem.write(0, data);
  eng.spawn([](hw::Cpu& c, HostMemory& m) -> Task<void> {
    co_await c.copy(m, /*dst=*/8192, /*src=*/0, 4096);
  }(cpu, mem));
  eng.run();
  std::vector<std::byte> out(4096);
  mem.read(8192, out);
  EXPECT_EQ(out, data);
  EXPECT_GT(eng.now(), Time::zero());
}

TEST(Cpu, CoreSerializesWork) {
  Engine eng;
  hw::Cpu cpu{eng, "c", {}};
  Time done1, done2;
  eng.spawn([](hw::Cpu& c, Time& d) -> Task<void> {
    co_await c.busy(Time::us(5.0));
    d = c.core().busy_time();
  }(cpu, done1));
  eng.spawn([](Engine& e, hw::Cpu& c, Time& d) -> Task<void> {
    co_await c.busy(Time::us(5.0));
    d = e.now();
  }(eng, cpu, done2));
  eng.run();
  EXPECT_EQ(eng.now(), Time::us(10.0));  // serialized, not parallel
}

TEST(PciBus, PioCostsMatchPaper) {
  Engine eng;
  hw::PciBus pci{eng, "pci", {}};
  eng.spawn([](hw::PciBus& p) -> Task<void> {
    co_await p.pio_write(10);
    co_await p.pio_read(2);
  }(pci));
  eng.run();
  // 10 * 0.24 + 2 * 0.98 = 4.36 us
  EXPECT_NEAR(eng.now().to_us(), 4.36, 1e-9);
  EXPECT_EQ(pci.pio_writes(), 10u);
  EXPECT_EQ(pci.pio_reads(), 2u);
}

TEST(PciBus, DmaBurstTiming) {
  Engine eng;
  hw::PciConfig cfg;
  cfg.dma_bw = 200e6;
  cfg.dma_setup = Time::us(0.5);
  hw::PciBus pci{eng, "pci", cfg};
  eng.spawn([](hw::PciBus& p) -> Task<void> {
    co_await p.burst(4000);
  }(pci));
  eng.run();
  EXPECT_NEAR(eng.now().to_us(), 0.5 + 4000 / 200.0, 1e-9);
  EXPECT_EQ(pci.dma_bytes(), 4000u);
}

TEST(PciBus, PioAndDmaContend) {
  Engine eng;
  hw::PciBus pci{eng, "pci", {}};
  Time pio_done;
  eng.spawn([](hw::PciBus& p) -> Task<void> {
    co_await p.burst(22000);  // 0.6 + 100 us on the bus
  }(pci));
  eng.spawn([](Engine& e, hw::PciBus& p, Time& d) -> Task<void> {
    co_await e.yield();  // let the DMA grab the bus first
    co_await p.pio_write(1);
    d = e.now();
  }(eng, pci, pio_done));
  eng.run();
  EXPECT_GT(pio_done.to_us(), 100.0);  // PIO had to wait for the burst
}

class NicDmaTest : public ::testing::Test {
 protected:
  Engine eng;
  HostMemory mem{64 * kPageSize};
  hw::PciBus pci{eng, "pci", {}};
  hw::Nic nic{eng, 0, "nic", pci, mem, {}};
};

TEST_F(NicDmaTest, GatherConcatenatesSegments) {
  const auto a = pattern(100, 1);
  const auto b = pattern(200, 2);
  mem.write(0, a);
  mem.write(kPageSize, b);
  std::vector<std::byte> out;
  eng.spawn([](hw::Nic& n, std::vector<std::byte>& o) -> Task<void> {
    // NB: build the vector first; gcc 12 miscompiles brace-init-lists that
    // appear directly inside co_await expressions.
    std::vector<PhysSegment> segs{{0, 100}, {kPageSize, 200}};
    co_await n.dma_gather(std::move(segs), o);
  }(nic, out));
  eng.run();
  ASSERT_EQ(out.size(), 300u);
  EXPECT_TRUE(std::memcmp(out.data(), a.data(), 100) == 0);
  EXPECT_TRUE(std::memcmp(out.data() + 100, b.data(), 200) == 0);
}

TEST_F(NicDmaTest, ScatterWritesSegments) {
  const auto data = pattern(300, 3);
  eng.spawn([](hw::Nic& n, const std::vector<std::byte>& d) -> Task<void> {
    std::vector<PhysSegment> segs{{512, 100}, {2 * kPageSize, 200}};
    co_await n.dma_scatter(d, std::move(segs));
  }(nic, data));
  eng.run();
  std::vector<std::byte> out(300);
  mem.read(512, std::span{out}.subspan(0, 100));
  mem.read(2 * kPageSize, std::span{out}.subspan(100, 200));
  EXPECT_TRUE(std::memcmp(out.data(), data.data(), 300) == 0);
}

TEST_F(NicDmaTest, ScatterSizeMismatchThrows) {
  const auto data = pattern(10);
  bool threw = false;
  eng.spawn([](hw::Nic& n, const std::vector<std::byte>& d,
               bool& t) -> Task<void> {
    try {
      std::vector<PhysSegment> segs{{0, 20}};
      co_await n.dma_scatter(d, std::move(segs));
    } catch (const std::logic_error&) {
      t = true;
    }
  }(nic, data, threw));
  eng.run();
  EXPECT_TRUE(threw);
}

TEST_F(NicDmaTest, SramAccounting) {
  EXPECT_TRUE(nic.sram_reserve(1u << 20));
  EXPECT_TRUE(nic.sram_reserve(1u << 20));
  EXPECT_FALSE(nic.sram_reserve(1));
  nic.sram_release(1u << 20);
  EXPECT_TRUE(nic.sram_reserve(512));
  EXPECT_THROW(nic.sram_release(4u << 20), std::logic_error);
}

TEST_F(NicDmaTest, TransmitWithoutFabricThrows) {
  bool threw = false;
  eng.spawn([](hw::Nic& n, bool& t) -> Task<void> {
    try {
      co_await n.transmit(hw::Packet{});
    } catch (const std::logic_error&) {
      t = true;
    }
  }(nic, threw));
  eng.run();
  EXPECT_TRUE(threw);
}

}  // namespace
