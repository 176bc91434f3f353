// Shared types of the simulator benchmark: the per-repetition result every
// workload fills, host-time spans around the benchmark's own calls into each
// layer, and the isolated layer probes.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rng.hpp"
#include "sim/time.hpp"

namespace perf {

// What the self-test feeds the output check: a corrupted payload or a
// delivery the receiver never records.
enum class Inject { kNone, kCorrupt, kDrop };

// Host-time spans (steady clock) recorded around the benchmark's calls into
// each layer; kept in memory and written as Chrome trace JSON at the end.
class HostSpans {
 public:
  int begin(std::string name, int parent = -1);
  void end(int id);
  std::string to_chrome_json() const;

 private:
  struct Span {
    std::string name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
};

struct Params {
  std::uint64_t seed = 1;
  bool traced = false;  // sim::Trace event recording on for this repetition
  Inject inject = Inject::kNone;
  HostSpans* spans = nullptr;
  int parent_span = -1;  // the repetition's host span
};

// One repetition of a workload: a fresh cluster, the seeded closed-loop
// traffic, verification, teardown.
struct Rep {
  // Host seconds.
  double ctor_s = 0;       // BclCluster / World construction
  double endpoints_s = 0;  // endpoints, buffers, pattern fill, fault plans
  double setup_s = 0;      // both of the above: until the first engine event
  double run_s = 0;        // Engine::run()
  double teardown_s = 0;   // destroying the cluster
  double calibration_s = 0;  // calibrate_s() right around Engine::run()

  // Simulated outputs (bit-identical for one seed).
  std::uint32_t nodes = 0;
  std::size_t mem_bytes = 0;
  std::uint64_t events = 0;
  sim::Time end_time = sim::Time::zero();
  std::uint64_t attempted = 0;
  std::uint64_t ops = 0;  // verified: delivered once, intact, no error
  std::vector<sim::Time> latency;  // per message, send call -> completion
  double payload_bytes = 0;        // delivered message bytes
  sim::Time window = sim::Time::zero();  // first send call -> last delivery
  std::map<std::string, double> raw;     // registry sums read after the run
  std::vector<std::string> failures;     // "<check>: <detail>"
  std::uint64_t digest = 0;

  // Traced repetitions only.
  std::uint64_t trace_dropped = 0;
  std::string breakdown;  // per-stage simulated attribution, printable
};

bool known_workload(const std::string& name);
Rep run_workload(const std::string& name, const Params& p);

// -- isolated layer probes (probes.cpp) ----------------------------------------
// Host ns per Engine::schedule_fn + dispatch, over `events` dispatches.
double probe_dispatch_ns(std::uint64_t events);
// Host ns per sim::Trace span with recording off and a registry attached.
double probe_span_off_ns(std::uint64_t spans);
struct MemoryProbe {
  double ctor_s = 0;
  double rss_mb = 0;
};
// Constructs `nodes` hw::HostMemory(bytes) side by side.
MemoryProbe probe_host_memory(std::uint32_t nodes, std::size_t bytes);
// Warm one-way latency (us) through harness::bcl_oneway on 2 nodes.
double probe_oneway_us(std::size_t bytes);

// Current and peak resident set size of this process, MB.
double rss_mb();
double peak_rss_mb();

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perf
