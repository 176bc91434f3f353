// Isolated layer probes and host measurement helpers.  Each probe calls only
// one layer's public API; the call counts come from the workload's own
// registry, so a probe's total scales with what the workload really does.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "cluster/harness.hpp"
#include "hw/memory.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace perf {

namespace {
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

int HostSpans::begin(std::string name, int parent) {
  spans_.push_back({std::move(name), parent, now_ns(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void HostSpans::end(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_ns = now_ns();
}

std::string HostSpans::to_chrome_json() const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i ? "," : "", s.name.c_str(), (s.start_ns - origin) / 1e3,
                  (s.end_ns - s.start_ns) / 1e3, i, s.parent);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

double probe_dispatch_ns(std::uint64_t events) {
  // A steady queue of kDepth self-rescheduling callbacks: each dispatch
  // schedules the next, as the simulator's pumps and timers do.
  constexpr int kDepth = 64;
  struct Hop {
    sim::Engine* eng;
    std::uint64_t* left;
    void operator()() const {
      if (*left == 0) return;
      --*left;
      eng->schedule_fn(eng->now() + sim::Time::ns(1), *this);
    }
  };
  sim::Engine eng;
  std::uint64_t left = events;
  const auto t0 = Clock::now();
  for (int i = 0; i < kDepth; ++i) {
    eng.schedule_fn(sim::Time::ns(i), Hop{&eng, &left});
  }
  eng.run();
  const double s = seconds_since(t0);
  return s * 1e9 / static_cast<double>(eng.events_processed());
}

double probe_span_off_ns(std::uint64_t spans) {
  // The always-on path: event recording off, registry attached, so every
  // span still updates its "<component>.<stage>.us" summary.
  static const char* kStages[] = {"trap-enter", "security-check",
                                  "translate-pin", "pio-fill", "trap-exit"};
  sim::Engine eng;
  sim::MetricRegistry reg;
  sim::Trace trace{eng};
  trace.set_registry(&reg);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < spans; ++i) {
    auto span = trace.span("node0.kernel", kStages[i % 5], i);
  }
  const double s = seconds_since(t0);
  return s * 1e9 / static_cast<double>(spans);
}

MemoryProbe probe_host_memory(std::uint32_t nodes, std::size_t bytes) {
  MemoryProbe m;
  std::vector<std::unique_ptr<hw::HostMemory>> mems;
  const double rss0 = rss_mb();
  const auto t0 = Clock::now();
  for (std::uint32_t i = 0; i < nodes; ++i) {
    mems.push_back(std::make_unique<hw::HostMemory>(bytes));
  }
  m.ctor_s = seconds_since(t0);
  m.rss_mb = rss_mb() - rss0;
  return m;
}

double probe_oneway_us(std::size_t bytes) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  return harness::bcl_oneway(cfg, bytes, /*intra=*/false).oneway_us;
}

double rss_mb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perf
