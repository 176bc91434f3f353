// The calibration workload, built as a library of its own (bclcal) with the
// benchmark's fixed flags and linked against nothing of the simulator, so no
// compile or LTO flag put on the simulator's targets reaches it.  It runs in
// bclperf's process, right before and after Engine::run(), because there it
// tracks the machine's drift best (a co-process tracked it worse); so it
// shares the simulator's global allocator.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "rng.hpp"

namespace perf {
namespace {

// Keeps the calibration work observable so it is not optimized away.
volatile std::uint64_t sink = 0;

}  // namespace

double calibrate_s() {
  struct Ev {
    std::uint64_t at;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const { return a.at > b.at; }
  };
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t acc = 0;
  std::priority_queue<Ev, std::vector<Ev>, Later> heap;
  std::map<std::string, std::uint64_t> reg;
  std::vector<char> a(1 << 20), b(1 << 20, 1);
  perf::Rng rng{42};
  for (int i = 0; i < 64; ++i) {
    reg["node" + std::to_string(i) + ".nic.mcp-tx-proc.us"] = 0;
    heap.push({rng.next() % 1000, [&acc, i] { acc += i; }});
  }
  for (int step = 0; step < 100000; ++step) {
    Ev e = heap.top();
    heap.pop();
    e.fn();
    const std::uint64_t k = rng.next();
    heap.push({e.at + k % 1000, [&acc, k] { acc ^= k; }});
    acc += reg["node" + std::to_string(k % 64) + ".nic.mcp-tx-proc.us"]++;
    if (step % 64 == 0) {
      std::memcpy(a.data(), b.data(), 16384 + k % 4096);
      acc += static_cast<std::uint64_t>(a[k % 1000]);
    }
  }
  sink = acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perf
