// bclperf: the simulator benchmark program.
//
//   bclperf --workload stream_small|bulk_large|mpi16_lossy --seed N
//           --seconds S --trace 0|1 [--inject none|corrupt|drop] [--out DIR]
//
// Repeats the seeded workload (a fresh cluster each time) until S host
// seconds have passed, verifies every repetition, and prints a report
// followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and sim::Trace-enabled repetitions, runs the isolated layer probes, writes
// the host spans and the per-stage breakdown to DIR, and reports the
// per-layer metrics.  Host time (how fast the simulator runs) and
// simulated time (the paper's us and MB/s) are kept apart: every sim_*
// metric and every count is identical for one seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using perf::Rep;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  perf::Inject inject = perf::Inject::kNone;
  std::string out = ".bench_build/perfbench-out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bclperf: %s\nusage: bclperf --workload "
               "stream_small|bulk_large|mpi16_lossy --seed N --seconds S "
               "--trace 0|1 [--inject none|corrupt|drop] [--out DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--inject") {
        if (v == "none") {
          o.inject = perf::Inject::kNone;
        } else if (v == "corrupt") {
          o.inject = perf::Inject::kCorrupt;
        } else if (v == "drop") {
          o.inject = perf::Inject::kDrop;
        } else {
          usage("--inject takes none, corrupt or drop");
        }
      } else if (a == "--out") {
        o.out = v;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload || !perf::known_workload(o.workload)) {
    usage("unknown or missing workload");
  }
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds out of range");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Linear-interpolated percentile of simulated latencies, in us.
double percentile_us(std::vector<sim::Time> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo].to_us() + frac * (v[hi].to_us() - v[lo].to_us());
}

template <typename F>
std::vector<double> each(const std::vector<Rep>& reps, F f) {
  std::vector<double> out;
  for (const auto& r : reps) out.push_back(f(r));
  return out;
}

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// calibrate_s() on the machine the benchmark was tuned on when it was quiet
// (4-vCPU VM, GCC 12 -O3).  ops_per_s is scaled by calibrate_s() / this, so
// it reads host ops/s at that reference speed and the shared machine's
// speed drift, which calibrate_s() tracks, mostly cancels.
constexpr double kReferenceCalibrationS = 0.025;

// Anchors of bench_fig8_latency: warm one-way latency on 2 nodes.
struct Anchor {
  std::size_t bytes;
  double us;
  const char* check;
};
constexpr Anchor kAnchors[] = {{0, 18.48, "anchor_oneway_0B"},
                               {131072, 871.59, "anchor_oneway_128KiB"}};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  perf::HostSpans spans;
  std::vector<Rep> plain;   // untraced repetitions
  std::vector<Rep> traced;  // sim::Trace-enabled repetitions (--trace 1)
  constexpr std::size_t kMinReps = 3;

  const auto t0 = std::chrono::steady_clock::now();
  auto rep = [&](bool tr) {
    perf::Params p;
    p.seed = opt.seed;
    p.traced = tr;
    p.inject = opt.inject;
    p.spans = &spans;
    p.parent_span = spans.begin(tr ? "rep.traced" : "rep.untraced");
    (tr ? traced : plain).push_back(perf::run_workload(opt.workload, p));
    spans.end(p.parent_span);
  };
  while (plain.size() < kMinReps ||
         (opt.trace && traced.size() < kMinReps) ||
         perf::seconds_since(t0) < opt.seconds) {
    rep(false);
    if (opt.trace) rep(true);
  }
  const double peak_rss = perf::peak_rss_mb();

  // -- correctness: every repetition verified, identical simulated digests --
  std::set<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const Rep& r0 = plain.front();
  for (const auto* reps : {&plain, &traced}) {
    for (const auto& r : *reps) {
      failures.insert(r.failures.begin(), r.failures.end());
      attempted += r.attempted;
      failed += r.attempted - r.ops;
      if (r.digest != r0.digest) {
        failures.insert("nondeterministic: repetition digest differs from "
                        "the first (tracing or host state leaked into the "
                        "simulation)");
      }
      if (r.trace_dropped != 0) {
        failures.insert("trace_dropped: " + std::to_string(r.trace_dropped) +
                        " trace events dropped");
      }
    }
  }
  for (const auto& a : kAnchors) {
    const double us = perf::probe_oneway_us(a.bytes);
    if (std::fabs(us - a.us) > 0.005) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: %.4f us, expected %.2f us", a.check,
                    us, a.us);
      failures.insert(buf);
    }
  }

  // -- metrics ----------------------------------------------------------------
  const double ops = static_cast<double>(r0.ops);
  const auto& raw = r0.raw;
  auto rawv = [&](const char* k) {
    const auto it = raw.find(k);
    return it == raw.end() ? 0.0 : it->second;
  };
  const double run_s = median(each(plain, [](const Rep& r) { return r.run_s; }));
  std::vector<Metric> e2e = {
      {"setup_s", median(each(plain, [](const Rep& r) { return r.setup_s; })),
       "s"},
      {"ops_per_s", median(each(plain, [](const Rep& r) {
         return static_cast<double>(r.ops) / r.run_s * r.calibration_s /
                kReferenceCalibrationS;
       })),
       "1/s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"sim_latency_p50_us", percentile_us(r0.latency, 0.50), "us"},
      {"sim_latency_p99_us", percentile_us(r0.latency, 0.99), "us"},
      {"sim_goodput_mbps", ratio(r0.payload_bytes, r0.window.to_us()), "MB/s"},
  };

  std::vector<Metric> layer;
  if (opt.trace) {
    const double traced_run_s =
        median(each(traced, [](const Rep& r) { return r.run_s; }));
    const auto mem = perf::probe_host_memory(r0.nodes, r0.mem_bytes);
    const double events = static_cast<double>(r0.events);
    const double sends = rawv("driver_sends");
    std::uint64_t dropped = 0;
    for (const auto& r : traced) dropped = std::max(dropped, r.trace_dropped);
    layer = {
        {"sim.engine.events", events, "count"},
        {"sim.engine.events_per_op", ratio(events, ops), "count"},
        {"sim.engine.host_ns_per_event", ratio(run_s * 1e9, events), "ns"},
        {"sim.engine.dispatch_ns", perf::probe_dispatch_ns(r0.events), "ns"},
        {"obs.spans_per_op", ratio(rawv("spans"), ops), "count"},
        {"obs.span_off_ns",
         perf::probe_span_off_ns(static_cast<std::uint64_t>(rawv("spans"))),
         "ns"},
        {"obs.traced_overhead", ratio(traced_run_s, run_s) - 1, "ratio"},
        {"obs.trace_dropped", static_cast<double>(dropped), "count"},
        {"hw.memory.ctor_s", mem.ctor_s, "s"},
        {"hw.memory.setup_rss_mb", mem.rss_mb, "MB"},
        {"cluster.ctor_s",
         median(each(plain, [](const Rep& r) { return r.ctor_s; })), "s"},
        {"cluster.endpoints_s",
         median(each(plain, [](const Rep& r) { return r.endpoints_s; })), "s"},
        {"cluster.teardown_s",
         median(each(plain, [](const Rep& r) { return r.teardown_s; })), "s"},
        {"hw.link.packets_per_op", ratio(rawv("link_packets"), ops), "count"},
        {"hw.nic.dma_bytes_per_op",
         ratio(rawv("dma_tx_bytes") + rawv("dma_rx_bytes"), ops), "B"},
        {"bcl.mcp.acks_per_packet",
         ratio(rawv("acks_sent"), rawv("nic_tx_packets") - rawv("acks_sent")),
         "ratio"},
        {"bcl.mcp.window_stalls", rawv("window_stalls"), "count"},
        {"hw.link.queue_wait_us", ratio(rawv("link_queue_wait_us"), ops), "us"},
        {"hw.link.ecn_marks", rawv("ecn_marks"), "count"},
        {"hw.switch.forwarded_per_op", ratio(rawv("switch_forwarded"), ops),
         "count"},
        {"osk.traps_per_send", ratio(rawv("send_traps"), sends), "ratio"},
        {"osk.trap_us_per_send", ratio(rawv("trap_us"), sends), "us"},
        {"osk.pin_hit_ratio",
         ratio(rawv("pin_hits"), rawv("pin_hits") + rawv("pin_misses")),
         "ratio"},
        {"bcl.lib.recv_polls_per_recv",
         ratio(rawv("lib_recv_polls"), rawv("lib_recvs")), "ratio"},
        {"bcl.mcp.tx_proc_us_per_op", ratio(rawv("mcp_tx_proc_us"), ops), "us"},
        {"bcl.mcp.rx_proc_us_per_op", ratio(rawv("mcp_rx_proc_us"), ops), "us"},
        {"bcl.rel.retx_ratio",
         ratio(rawv("retransmissions"), rawv("nic_tx_packets")), "ratio"},
        {"bcl.rel.timeouts", rawv("timeouts"), "count"},
        {"bcl.rel.fast_retransmits", rawv("fast_retransmits"), "count"},
        {"bcl.path.failovers", rawv("failovers"), "count"},
        {"bcl.fc.stalls", rawv("fc_stalls"), "count"},
        {"bcl.fc.rnr_nacks", rawv("rnr_nacks"), "count"},
        {"bcl.cc.decreases", rawv("cc_decreases"), "count"},
        {"bcl.cc.paced_packets", rawv("paced_packets"), "count"},
        {"bcl.coll.completions", rawv("coll_completions"), "count"},
        {"bcl.coll.combines", rawv("coll_combines"), "count"},
        {"bcl.shm.messages", rawv("shm_messages"), "count"},
        {"bcl.shm.chunks", rawv("shm_chunks"), "count"},
        {"minimpi.sends", rawv("mpi_sends"), "count"},
        {"minimpi.recvs", rawv("mpi_recvs"), "count"},
    };
  }

  // -- report -------------------------------------------------------------------
  std::printf("workload %s  seed %llu  trace %d  repetitions %zu untraced, "
              "%zu traced\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, plain.size(), traced.size());
  std::printf("per repetition: %llu ops, %llu engine events, simulated end "
              "%.3f us\n",
              static_cast<unsigned long long>(r0.ops),
              static_cast<unsigned long long>(r0.events),
              r0.end_time.to_us());
  const auto runs = each(plain, [](const Rep& r) { return r.run_s; });
  std::printf("Engine::run host seconds per untraced repetition: min %.4f "
              "median %.4f max %.4f\n",
              *std::min_element(runs.begin(), runs.end()), median(runs),
              *std::max_element(runs.begin(), runs.end()));
  std::printf("calibration %.4f s median (reference %.4f s); raw ops/s "
              "median %.1f\n",
              median(each(plain, [](const Rep& r) { return r.calibration_s; })),
              kReferenceCalibrationS,
              median(each(plain, [](const Rep& r) {
                return static_cast<double>(r.ops) / r.run_s;
              })));
  std::printf("end-to-end (host time from untraced repetitions):\n");
  for (const auto& m : e2e) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (opt.trace) {
    std::printf("per-layer:\n");
    for (const auto& m : layer) {
      std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const Rep& tr0 = traced.front();
    std::printf("%s", tr0.breakdown.c_str());
    std::error_code ec;
    std::filesystem::create_directories(opt.out, ec);
    const std::string stem = opt.out + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed);
    std::ofstream{stem + "-host_spans.json"} << spans.to_chrome_json();
    std::ofstream{stem + "-breakdown.txt"} << tr0.breakdown;
    std::printf("host spans and breakdown written to %s-*\n", stem.c_str());
  }
  std::printf("digest %016llx\n", static_cast<unsigned long long>(r0.digest));
  for (const auto& f : failures) std::printf("CHECK FAILED %s\n", f.c_str());
  if (failures.empty()) std::printf("checks passed\n");

  std::string json = std::string{"{\"correct\": "} +
                     (failures.empty() && failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  const auto& out = opt.trace ? layer : e2e;
  for (std::size_t i = 0; i < out.size(); ++i) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", out[i].name.c_str(), out[i].value,
                  out[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
