// splitmix64, the benchmark's only random source.  Shared by the workloads
// and the calibration library, so it depends on nothing of the simulator.
#pragma once

#include <cstdint>

namespace perf {

// The only source of workload inputs, so one seed fixes every size, payload
// byte, shift and fault seed the simulator sees.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_{seed} {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t s_;
};

// Derives an independent stream for one purpose of one seed.
inline Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  Rng mix{seed * 0x100000001b3ull ^ purpose};
  return Rng{mix.next()};
}

}  // namespace perf
