// The three benchmark workloads.  Each repetition builds a fresh cluster
// through the public API (bcl::BclCluster or cluster::World), drives seeded
// closed-loop traffic, verifies every delivery against its seeded payload,
// reads the metric registry, and tears the cluster down, timing each phase
// in host seconds.  All inputs come from Params::seed; the simulator sees
// only the generated sizes, payload bytes, shifts and fault seeds.
#include <algorithm>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>

#include "bcl/bcl.hpp"
#include "bench.hpp"
#include "calibrate.hpp"
#include "cluster/cluster.hpp"
#include "hw/myrinet_switch.hpp"
#include "sim/breakdown.hpp"

namespace perf {
namespace {

using Clock = std::chrono::steady_clock;
using sim::Task;
using sim::Time;

// Large enough that no traced repetition drops an event.
constexpr std::size_t kTraceCap = std::size_t{1} << 26;

std::vector<std::byte> make_pool(std::uint64_t seed, std::size_t bytes) {
  Rng r = stream(seed, 1);
  std::vector<std::byte> pool(bytes);
  for (std::size_t i = 0; i < bytes; i += 8) {
    const std::uint64_t v = r.next();
    std::memcpy(&pool[i], &v, std::min<std::size_t>(8, bytes - i));
  }
  return pool;
}

// n sizes uniform over [lo, hi], stratified: one per equal-width stratum,
// jittered within it, in seeded order.  Every seed covers the range evenly,
// so the simulated percentiles do not swing with the luck of the draw.
std::vector<std::size_t> stratified_sizes(Rng& rng, std::size_t n,
                                          std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> v(n);
  const double width = static_cast<double>(hi - lo + 1) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double jitter = static_cast<double>(rng.next() >> 11) * 0x1p-53;
    v[i] = std::min(hi, lo + static_cast<std::size_t>(
                                 (static_cast<double>(i) + jitter) * width));
  }
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(v[i], v[rng.range(0, i)]);
  }
  return v;
}

// The message the self-test corrupts or drops: the first non-empty one in
// the second half, so it always has a byte to corrupt.
std::size_t pick_victim(const std::vector<std::size_t>& sizes) {
  for (std::size_t i = sizes.size() / 2; i < sizes.size(); ++i) {
    if (sizes[i] > 0) return i;
  }
  return sizes.size() / 2;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Collects named check failures: a count per check and the first detail.
class Failures {
 public:
  void add(const std::string& check, const std::string& detail) {
    auto& [n, first] = by_check_[check];
    if (n++ == 0) first = detail;
  }
  void flush(Rep& r) const {
    for (const auto& [check, e] : by_check_) {
      r.failures.push_back(check + ": " + std::to_string(e.first) +
                           " time(s), first: " + e.second);
    }
  }

 private:
  std::map<std::string, std::pair<std::uint64_t, std::string>> by_check_;
};

// Per-operation delivery ledger: every operation must be delivered exactly
// once, intact, with no error verdict.  Only simulated times are recorded.
class Ledger {
 public:
  Ledger(std::size_t n, Inject inject, std::size_t victim, Failures& f)
      : inject_{inject},
        victim_{victim},
        f_{f},
        t_send_(n),
        t_done_(n),
        bytes_(n, 0),
        deliveries_(n, 0),
        bad_(n, false) {}

  std::size_t size() const { return t_send_.size(); }

  void sent(std::size_t i, Time at) { t_send_.at(i) = at; }

  void error(std::size_t i, const std::string& what) {
    bad_.at(i) = true;
    f_.add("op_error", "op " + std::to_string(i) + ": " + what);
  }

  // `got` is the payload as the program delivered it, `want` the seeded
  // bytes the sender handed in.
  void delivered(std::size_t i, Time at, std::span<std::byte> got,
                 std::span<const std::byte> want) {
    if (i >= size()) {
      f_.add("unexpected_delivery", "op " + std::to_string(i));
      return;
    }
    if (i == victim_ && inject_ == Inject::kDrop) return;
    if (i == victim_ && inject_ == Inject::kCorrupt && !got.empty()) {
      got[0] ^= std::byte{0x5a};
    }
    if (++deliveries_[i] > 1) {
      bad_[i] = true;
      f_.add("duplicate_delivery", "op " + std::to_string(i));
      return;
    }
    t_done_[i] = at;
    bytes_[i] = got.size();
    if (got.size() != want.size() ||
        !std::equal(got.begin(), got.end(), want.begin())) {
      bad_[i] = true;
      f_.add("payload_mismatch", "op " + std::to_string(i) + " (" +
                                     std::to_string(got.size()) + " of " +
                                     std::to_string(want.size()) + " B)");
    }
  }

  // Index of the verified operation with the median latency.
  std::size_t median_op() const {
    std::vector<std::size_t> ok;
    for (std::size_t i = 0; i < size(); ++i) {
      if (good(i)) ok.push_back(i);
    }
    if (ok.empty()) return 0;
    std::nth_element(ok.begin(), ok.begin() + ok.size() / 2, ok.end(),
                     [this](std::size_t a, std::size_t b) {
                       return latency(a) < latency(b);
                     });
    return ok[ok.size() / 2];
  }
  Time send_time(std::size_t i) const { return t_send_.at(i); }
  Time done_time(std::size_t i) const { return t_done_.at(i); }

  // Adds this ledger's operations to `r`; messages also contribute their
  // latency, bytes and time window.
  void finish(Rep& r, bool messages) const {
    Time first = Time::max();
    Time last = Time::zero();
    for (std::size_t i = 0; i < size(); ++i) {
      ++r.attempted;
      if (deliveries_[i] == 0 && !bad_[i]) {
        f_.add("missing_delivery", "op " + std::to_string(i));
      }
      if (!good(i)) continue;
      ++r.ops;
      if (!messages) continue;
      r.latency.push_back(latency(i));
      r.payload_bytes += static_cast<double>(bytes_[i]);
      first = std::min(first, t_send_[i]);
      last = std::max(last, t_done_[i]);
    }
    if (messages && last > first) r.window = last - first;
  }

 private:
  bool good(std::size_t i) const { return deliveries_[i] == 1 && !bad_[i]; }
  Time latency(std::size_t i) const { return t_done_[i] - t_send_[i]; }

  Inject inject_;
  std::size_t victim_;
  Failures& f_;
  std::vector<Time> t_send_;
  std::vector<Time> t_done_;
  std::vector<std::size_t> bytes_;
  std::vector<std::uint32_t> deliveries_;
  std::vector<bool> bad_;
};

// Times one phase in host seconds and records it as a host span.
class Phase {
 public:
  Phase(HostSpans* spans, const char* name, int parent = -1)
      : spans_{spans}, id_{spans_->begin(name, parent)}, t0_{Clock::now()} {}
  int id() const { return id_; }
  double end() {
    spans_->end(id_);
    return seconds_since(t0_);
  }

 private:
  HostSpans* spans_;
  int id_;
  Clock::time_point t0_;
};

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}
template <typename T>
std::uint64_t fnv_value(std::uint64_t h, T v) {
  return fnv(h, &v, sizeof v);
}

// Registry sums every per-layer metric is derived from.
void read_registry(const sim::MetricRegistry& reg, Rep& r) {
  auto& raw = r.raw;
  struct Sum {
    const char* key;
    const char* prefix;
    const char* suffix;
  };
  static const Sum kCounters[] = {
      {"traps", "node", ".osk.traps"},
      {"pin_hits", "node", ".osk.pin_hits"},
      {"pin_misses", "node", ".osk.pin_misses"},
      {"driver_sends", "node", ".driver.sends"},
      {"credit_blocks", "node", ".driver.credit_blocks"},
      {"security_rejects", "node", ".driver.security_rejects"},
      {"nic_tx_packets", "node", ".nic.tx_packets"},
      {"acks_sent", "node", ".nic.mcp.acks_sent"},
      {"dma_tx_bytes", "node", ".nic.mcp.dma_tx_bytes"},
      {"dma_rx_bytes", "node", ".nic.mcp.dma_rx_bytes"},
      {"window_stalls", "node", ".nic.mcp.window_stalls"},
      {"retransmissions", "node", ".nic.mcp.retransmissions"},
      {"timeouts", "node", ".nic.mcp.timeouts"},
      {"fast_retransmits", "node", ".nic.rel.fast_retransmits"},
      {"failovers", "node", ".nic.path.failovers"},
      {"fc_stalls", "node", ".nic.fc.stalls"},
      {"rnr_nacks", "node", ".nic.fc.rnr_nacks_tx"},
      {"cc_decreases", "node", ".nic.cc.decreases"},
      {"paced_packets", "node", ".nic.cc.paced_packets"},
      {"coll_completions", "node", ".nic.coll.completions"},
      {"coll_combines", "node", ".nic.coll.combines"},
      {"coll_posts", "node", ".nic.coll.posts"},
      {"shm_messages", "node", ".shm.messages"},
      {"shm_chunks", "node", ".shm.chunks"},
      {"lib_recvs", "node", ".recvs"},
      {"lib_recv_polls", "node", ".recv_polls"},
      {"mpi_sends", "mpi.rank", ".sends"},
      {"mpi_recvs", "mpi.rank", ".recvs"},
      {"link_packets", "fabric.link.", ".packets"},
      {"ecn_marks", "fabric.link.", ".ecn_marks"},
      {"switch_forwarded", "fabric.switch.", ".forwarded"},
  };
  for (const auto& s : kCounters) raw[s.key] = 0;
  for (const auto& [name, c] : reg.counters()) {
    for (const auto& s : kCounters) {
      if (starts_with(name, s.prefix) && ends_with(name, s.suffix)) {
        raw[s.key] += static_cast<double>(c->value());
      }
    }
  }
  raw["link_queue_wait_us"] = 0;
  raw["leaked_pages"] = 0;
  raw["coll_groups"] = 0;
  for (const auto& [name, g] : reg.gauges()) {
    if (starts_with(name, "fabric.link.") && ends_with(name, ".queue_wait_us")) {
      raw["link_queue_wait_us"] += g->value();
    } else if (starts_with(name, "node") && ends_with(name, ".nic.coll.groups")) {
      raw["coll_groups"] += g->value();
    } else if (ends_with(name, ".pindown.leaked_pages")) {
      raw["leaked_pages"] += g->value();
    }
  }
  // Spans feed "<component>.<stage>.us" summaries even with recording off.
  static const char* kTrapStages[] = {".kernel.trap-enter.us",
                                      ".kernel.security-check.us",
                                      ".kernel.translate-pin.us",
                                      ".kernel.pio-fill.us",
                                      ".kernel.trap-exit.us"};
  for (const char* k : {"spans", "send_traps", "trap_us", "mcp_tx_proc_us",
                        "mcp_rx_proc_us"}) {
    raw[k] = 0;
  }
  for (const auto& [name, s] : reg.summaries()) {
    if (!ends_with(name, ".us")) continue;
    raw["spans"] += static_cast<double>(s->count());
    for (const char* stage : kTrapStages) {
      if (ends_with(name, stage)) raw["trap_us"] += s->sum();
    }
    if (ends_with(name, ".kernel.trap-enter.us")) {
      raw["send_traps"] += static_cast<double>(s->count());
    } else if (ends_with(name, ".nic.mcp-tx-proc.us")) {
      raw["mcp_tx_proc_us"] += s->sum();
    } else if (ends_with(name, ".nic.mcp-rx-proc.us")) {
      raw["mcp_rx_proc_us"] += s->sum();
    }
  }
}

// Registry stage totals summed across nodes ("kernel.trap-enter" etc.).
std::string stage_table(const sim::MetricRegistry& reg) {
  std::map<std::string, std::pair<std::uint64_t, double>> agg;
  for (const auto& [name, s] : reg.summaries()) {
    if (!ends_with(name, ".us") || !starts_with(name, "node")) continue;
    auto& [n, sum] = agg[name.substr(name.find('.') + 1)];
    n += s->count();
    sum += s->sum();
  }
  std::string out = "registry stage summaries (simulated, all nodes):\n";
  char line[160];
  std::snprintf(line, sizeof line, "  %-34s %10s %14s %10s\n", "stage",
                "count", "total_us", "mean_us");
  out += line;
  for (const auto& [stage, e] : agg) {
    std::snprintf(line, sizeof line, "  %-34s %10llu %14.2f %10.3f\n",
                  stage.c_str(), static_cast<unsigned long long>(e.first),
                  e.second, e.first ? e.second / e.first : 0.0);
    out += line;
  }
  return out;
}

// The median message's simulated one-way window attributed to stages,
// projected from the traced spans the way bench_fig8_latency does it.  The
// sender is node 0; `index` maps its driver message ids to ledger ops.
std::string median_breakdown(
    const sim::Trace& trace, const Ledger& led,
    const std::unordered_map<std::uint64_t, std::size_t>& index) {
  const std::size_t m = led.median_op();
  std::uint64_t msg_id = 0;
  for (const auto& [id, i] : index) {
    if (i == m) msg_id = id;
  }
  auto events = trace.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const sim::TraceEvent& a, const sim::TraceEvent& b) {
                     return a.start < b.start;
                   });
  const std::uint64_t fk = bcl::flow_key(0, msg_id);
  const auto bd = sim::LatencyBreakdown::project(
      events, led.send_time(m), led.done_time(m),
      [msg_id, fk](const sim::TraceEvent& e) {
        return e.tag == msg_id || e.tag == fk || e.tag == 0;
      });
  return bd.table("median message, one-way attribution (simulated)");
}

// Common end of a repetition: registry sums, the architecture checks of
// Table 1 and the pin-down ledger, and the simulated digest.
// Every trap on any node must be a send, a collective group registration or
// post (counted by the NICs), or one of the `post_recvs` receive-buffer
// posts the workload's own calls issue.
void finish_rep(bcl::BclCluster& c, Rep& r, Failures& f,
                std::uint64_t post_recvs) {
  read_registry(c.metrics(), r);
  r.nodes = c.nodes();
  r.mem_bytes = c.config().node.mem_bytes;
  r.events = c.engine().events_processed();
  r.end_time = c.engine().now();
  double interrupts = 0;
  for (hw::NodeId n = 0; n < c.nodes(); ++n) {
    interrupts += static_cast<double>(c.node(n).kernel().interrupts().total());
  }
  r.raw["interrupts"] = interrupts;
  // One trap per send.  The only extra send traps allowed are attempts the
  // kernel refused for want of flow-control credits (kWouldBlock), which
  // the library retries after the credit word shows credits again.
  auto count = [&](const char* k) {
    return static_cast<std::uint64_t>(r.raw[k]);
  };
  if (count("send_traps") != count("driver_sends") + count("credit_blocks")) {
    f.add("traps_per_send",
          std::to_string(count("send_traps")) + " send traps for " +
              std::to_string(count("driver_sends")) + " sends and " +
              std::to_string(count("credit_blocks")) + " credit refusals");
  }
  // Receiving adds no trap (Table 1): polling, matching, shm and probes
  // run at user level.
  const std::uint64_t ioctls = count("send_traps") + count("coll_groups") +
                               count("coll_posts") + post_recvs;
  if (count("traps") != ioctls) {
    f.add("recv_side_traps",
          std::to_string(count("traps")) + " traps for " +
              std::to_string(ioctls) + " ioctls (" +
              std::to_string(count("send_traps")) + " sends, " +
              std::to_string(count("coll_groups")) + " group registrations, " +
              std::to_string(count("coll_posts")) + " collective posts, " +
              std::to_string(post_recvs) + " receive posts)");
  }
  if (count("security_rejects") != 0) {
    f.add("security_rejects", std::to_string(count("security_rejects")) +
                                  " ioctls rejected by the kernel");
  }
  if (interrupts != 0) {
    f.add("interrupts", std::to_string(interrupts) + " host interrupts");
  }
  if (r.raw["leaked_pages"] != 0) {
    f.add("leaked_pages",
          std::to_string(r.raw["leaked_pages"]) + " pinned pages leaked");
  }
  if (c.trace().enabled()) {
    r.trace_dropped = c.trace().dropped_events();
    r.breakdown += stage_table(c.metrics());
  }
  f.flush(r);

  std::uint64_t h = 0xcbf29ce484222325ull;
  const std::string json = c.metrics().to_json();
  h = fnv(h, json.data(), json.size());
  h = fnv_value(h, r.events);
  h = fnv_value(h, r.end_time.picos());
  h = fnv_value(h, r.attempted);
  h = fnv_value(h, r.ops);
  for (const Time t : r.latency) h = fnv_value(h, t.picos());
  r.digest = h;
}

// Expects node `n` to have trapped exactly `expected` times: the ioctls the
// workload itself issued there.  Receiving must add none (Table 1).
void expect_traps(bcl::BclCluster& c, hw::NodeId n, std::uint64_t expected,
                  const char* check, Failures& f) {
  const std::uint64_t got = c.node(n).kernel().traps();
  if (got != expected) {
    f.add(check, "node" + std::to_string(n) + " trapped " +
                     std::to_string(got) + " times for " +
                     std::to_string(expected) + " ioctls");
  }
}

// Engine::run() is the timed phase.  The machine is calibrated right before
// and after it, and an escaped exception (a deadlock, an MPI error) becomes a
// named failure instead of aborting the benchmark.
void run_engine(sim::Engine& eng, const Params& p, Rep& r, Failures& f) {
  const double calibration = calibrate_s();
  Phase run{p.spans, "engine.run", p.parent_span};
  try {
    eng.run();
  } catch (const std::exception& e) {
    f.add("engine_run", e.what());
  }
  r.run_s = run.end();
  r.calibration_s = (calibration + calibrate_s()) / 2;
}

// ---------------------------------------------------------------------------
// stream_small: one sender streams system-channel messages of 0-256 B.
// Fixed per-message cost dominates: library, trap, one packet, MCP tx/rx,
// engine dispatch and the always-on span bookkeeping.
constexpr std::size_t kStreamMsgs = 30000;
constexpr std::size_t kStreamMax = 256;
constexpr std::size_t kStreamBufs = 16;

Rep stream_small(const Params& p) {
  Rep r;
  Failures f;
  Rng rng = stream(p.seed, 2);
  std::vector<std::size_t> size(kStreamMsgs);
  std::vector<std::size_t> buf_of(kStreamMsgs);
  for (std::size_t i = 0; i < kStreamMsgs; ++i) {
    size[i] = rng.range(0, kStreamMax);
    buf_of[i] = rng.range(0, kStreamBufs - 1);
  }
  const auto pool = make_pool(p.seed, kStreamBufs * kStreamMax);
  Ledger led{kStreamMsgs, p.inject, pick_victim(size), f};

  Phase setup{p.spans, "setup", p.parent_span};
  Phase ctor{p.spans, "cluster.construct", setup.id()};
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  if (p.traced) cfg.trace_event_cap = kTraceCap;
  auto c = std::make_unique<bcl::BclCluster>(cfg);
  r.ctor_s = ctor.end();
  Phase eps{p.spans, "cluster.endpoints", setup.id()};
  auto& tx = c->open_endpoint(0);
  auto& rx = c->open_endpoint(1);
  std::vector<osk::UserBuffer> bufs;
  for (std::size_t b = 0; b < kStreamBufs; ++b) {
    bufs.push_back(tx.process().alloc(kStreamMax));
    tx.process().poke(bufs.back(), 0,
                      std::span{pool}.subspan(b * kStreamMax, kStreamMax));
  }
  if (p.traced) c->trace().enable();
  r.endpoints_s = eps.end();
  r.setup_s = setup.end();

  std::unordered_map<std::uint64_t, std::size_t> index;  // msg id -> op
  auto& eng = c->engine();
  eng.spawn([](sim::Engine& eng, bcl::Endpoint& ep, bcl::PortId dst,
               const std::vector<osk::UserBuffer>& bufs,
               const std::vector<std::size_t>& size,
               const std::vector<std::size_t>& buf_of, Ledger& led,
               std::unordered_map<std::uint64_t, std::size_t>& index)
                -> Task<void> {
    for (std::size_t i = 0; i < size.size(); ++i) {
      led.sent(i, eng.now());
      auto res = co_await ep.send_system(dst, bufs[buf_of[i]], size[i]);
      if (!res.ok()) {
        led.error(i, bcl::to_string(res.err));
        continue;
      }
      index[res.value] = i;
      const auto ev = co_await ep.wait_send();
      if (!ev.ok || ev.msg_id != res.value) {
        led.error(i, std::string{"send completion "} + bcl::to_string(ev.err));
      }
    }
  }(eng, tx, rx.id(), bufs, size, buf_of, led, index));
  eng.spawn([](sim::Engine& eng, bcl::Endpoint& ep,
               const std::vector<std::byte>& pool,
               const std::vector<std::size_t>& size,
               const std::vector<std::size_t>& buf_of, Ledger& led,
               const std::unordered_map<std::uint64_t, std::size_t>& index)
                -> Task<void> {
    for (std::size_t k = 0; k < size.size(); ++k) {
      const auto ev = co_await ep.wait_recv();
      const Time at = eng.now();
      auto data = co_await ep.copy_out_system(ev);
      const auto it = index.find(ev.msg_id);
      const std::size_t i = it == index.end() ? size.size() : it->second;
      const auto want =
          i < size.size() ? std::span{pool}.subspan(buf_of[i] * kStreamMax,
                                                    size[i])
                          : std::span<const std::byte>{};
      led.delivered(i, at, data, want);
    }
  }(eng, rx, pool, size, buf_of, led, index));
  run_engine(eng, p, r, f);

  Phase verify{p.spans, "verify", p.parent_span};
  led.finish(r, true);
  expect_traps(*c, 0, kStreamMsgs, "sender_traps", f);
  expect_traps(*c, 1, 0, "recv_side_traps", f);
  if (p.traced) r.breakdown = median_breakdown(c->trace(), led, index);
  finish_rep(*c, r, f, 0);
  verify.end();

  Phase teardown{p.spans, "teardown", p.parent_span};
  c.reset();
  r.teardown_s = teardown.end();
  return r;
}

// ---------------------------------------------------------------------------
// bulk_large: normal-channel messages of 64 KiB-1 MiB into pre-posted
// buffers.  Per-packet and per-byte cost dominates: fragmentation,
// go-back-N acks, DMA and HostMemory reads/writes.  The sender rotates
// through kBulkBufs user buffers, so the first use of each (and every
// longer reuse) misses the pin-down cache and the hit ratio is strictly
// between 0 and 1.
constexpr std::size_t kBulkMsgs = 1000;
constexpr std::size_t kBulkMin = 64 * 1024;
constexpr std::size_t kBulkMax = 1024 * 1024;
constexpr std::size_t kBulkBufs = 12;
constexpr std::uint16_t kBulkChans = 4;  // receive buffers posted ahead

Rep bulk_large(const Params& p) {
  Rep r;
  Failures f;
  Rng rng = stream(p.seed, 3);
  const auto size = stratified_sizes(rng, kBulkMsgs, kBulkMin, kBulkMax);
  std::vector<std::size_t> buf_of(kBulkMsgs);
  for (auto& b : buf_of) b = rng.range(0, kBulkBufs - 1);
  const auto pool = make_pool(p.seed, kBulkBufs * kBulkMax);
  Ledger led{kBulkMsgs, p.inject, pick_victim(size), f};

  Phase setup{p.spans, "setup", p.parent_span};
  Phase ctor{p.spans, "cluster.construct", setup.id()};
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  if (p.traced) cfg.trace_event_cap = kTraceCap;
  auto c = std::make_unique<bcl::BclCluster>(cfg);
  r.ctor_s = ctor.end();
  Phase eps{p.spans, "cluster.endpoints", setup.id()};
  auto& tx = c->open_endpoint(0);
  auto& rx = c->open_endpoint(1);
  std::vector<osk::UserBuffer> bufs;
  for (std::size_t b = 0; b < kBulkBufs; ++b) {
    bufs.push_back(tx.process().alloc(kBulkMax));
    tx.process().poke(bufs.back(), 0,
                      std::span{pool}.subspan(b * kBulkMax, kBulkMax));
  }
  std::vector<osk::UserBuffer> rbufs;
  std::vector<osk::UserBuffer> tokens;
  for (std::uint16_t ch = 0; ch < kBulkChans; ++ch) {
    rbufs.push_back(rx.process().alloc(kBulkMax));
    tokens.push_back(rx.process().alloc(1));
    const std::byte b{static_cast<unsigned char>(ch)};
    rx.process().poke(tokens.back(), 0, std::span{&b, 1});
  }
  if (p.traced) c->trace().enable();
  r.endpoints_s = eps.end();
  r.setup_s = setup.end();

  std::unordered_map<std::uint64_t, std::size_t> index;  // msg id -> op
  auto& eng = c->engine();
  // Sender: wait for a ready token naming a posted channel, send into it.
  eng.spawn([](sim::Engine& eng, bcl::Endpoint& ep, bcl::PortId dst,
               const std::vector<osk::UserBuffer>& bufs,
               const std::vector<std::size_t>& size,
               const std::vector<std::size_t>& buf_of, Ledger& led,
               std::unordered_map<std::uint64_t, std::size_t>& index,
               Failures& f) -> Task<void> {
    for (std::size_t i = 0; i < size.size(); ++i) {
      const auto tok = co_await ep.wait_recv();
      const auto data = co_await ep.copy_out_system(tok);
      if (data.size() != 1 ||
          std::to_integer<std::uint16_t>(data[0]) >= kBulkChans) {
        f.add("token", "malformed ready token");
        led.error(i, "no channel");
        continue;
      }
      const bcl::ChannelRef ch{bcl::ChanKind::kNormal,
                               std::to_integer<std::uint16_t>(data[0])};
      led.sent(i, eng.now());
      auto res = co_await ep.send(dst, ch, bufs[buf_of[i]], size[i]);
      if (!res.ok()) {
        led.error(i, bcl::to_string(res.err));
        continue;
      }
      index[res.value] = i;
      const auto ev = co_await ep.wait_send();
      if (!ev.ok || ev.msg_id != res.value) {
        led.error(i, std::string{"send completion "} + bcl::to_string(ev.err));
      }
    }
  }(eng, tx, rx.id(), bufs, size, buf_of, led, index, f));
  // Receiver: keep kBulkChans buffers posted; re-post and re-announce each
  // channel as its message lands.
  std::uint64_t rx_posts = 0;
  eng.spawn([](sim::Engine& eng, bcl::Endpoint& ep, bcl::PortId back,
               const std::vector<osk::UserBuffer>& rbufs,
               const std::vector<osk::UserBuffer>& tokens,
               const std::vector<std::byte>& pool,
               const std::vector<std::size_t>& size,
               const std::vector<std::size_t>& buf_of, Ledger& led,
               const std::unordered_map<std::uint64_t, std::size_t>& index,
               Failures& f, std::uint64_t& posts) -> Task<void> {
    auto post = [&](std::uint16_t ch) -> Task<void> {
      ++posts;
      if (const auto err = co_await ep.post_recv(ch, rbufs[ch]);
          err != bcl::BclErr::kOk) {
        f.add("post_recv", bcl::to_string(err));
      }
      const auto res = co_await ep.send_system(back, tokens[ch], 1);
      if (!res.ok()) f.add("token", bcl::to_string(res.err));
      (void)co_await ep.wait_send();
    };
    const std::size_t n = size.size();
    for (std::uint16_t ch = 0; ch < kBulkChans && ch < n; ++ch) {
      co_await post(ch);
    }
    std::vector<std::byte> got;
    for (std::size_t k = 0; k < n; ++k) {
      const auto ev = co_await ep.wait_recv();
      const Time at = eng.now();
      const std::uint16_t ch = ev.channel.index;
      got.resize(std::min(ev.len, kBulkMax));
      ep.process().peek(rbufs.at(ch), 0, got);
      const auto it = index.find(ev.msg_id);
      const std::size_t i = it == index.end() ? n : it->second;
      const auto want =
          i < n ? std::span{pool}.subspan(buf_of[i] * kBulkMax, size[i])
                : std::span<const std::byte>{};
      led.delivered(i, at, got, want);
      if (k + kBulkChans < n) co_await post(ch);
    }
  }(eng, rx, tx.id(), rbufs, tokens, pool, size, buf_of, led, index, f,
    rx_posts));
  run_engine(eng, p, r, f);

  Phase verify{p.spans, "verify", p.parent_span};
  led.finish(r, true);
  expect_traps(*c, 0, kBulkMsgs, "sender_traps", f);
  // Each post is a post_recv ioctl plus the ready token's send.
  expect_traps(*c, 1, 2 * rx_posts, "recv_side_traps", f);
  if (p.traced) r.breakdown = median_breakdown(c->trace(), led, index);
  finish_rep(*c, r, f, rx_posts);
  verify.end();

  Phase teardown{p.spans, "teardown", p.parent_span};
  c.reset();
  r.teardown_s = teardown.end();
  return r;
}

// ---------------------------------------------------------------------------
// mpi16_lossy: 32 miniMPI ranks, 2 per node, on 16 nodes of the default
// two-level Myrinet fabric with 0.5% packet loss on every host link.  Each
// round is a seeded shift exchange of 1-16 KiB messages (eager and
// rendezvous) and a NIC-offloaded allreduce.  The only workload that
// exercises spine switches, retransmission, cc/fc, the collective engine,
// intranode shm and eadi/miniMPI, and the only one whose set-up and memory
// are large (16 x 64 MiB HostMemory).
constexpr std::uint32_t kMpiNodes = 16;
constexpr int kMpiRanks = 32;
constexpr int kMpiRounds = 256;  // 8192 messages
constexpr std::size_t kMpiMin = 1024;
constexpr std::size_t kMpiMax = 16 * 1024;
constexpr std::size_t kMpiPool = 64 * 1024;
constexpr std::size_t kReduceCount = 32;
constexpr double kMpiDrop = 0.005;

struct MpiInputs {
  std::vector<int> shift;                    // per round
  std::vector<std::size_t> size;             // [round * ranks + rank]
  std::vector<std::size_t> offset;           // payload slice in the pool
  std::vector<std::vector<double>> contrib;  // allreduce input per op
  std::vector<std::vector<double>> sum;      // expected result per round
  std::vector<std::uint64_t> fault_seed;     // per node
  std::vector<std::byte> pool;
};

MpiInputs mpi_inputs(std::uint64_t seed) {
  MpiInputs in;
  Rng rng = stream(seed, 4);
  in.size = stratified_sizes(
      rng, static_cast<std::size_t>(kMpiRounds) * kMpiRanks, kMpiMin, kMpiMax);
  for (int round = 0; round < kMpiRounds; ++round) {
    in.shift.push_back(static_cast<int>(rng.range(1, kMpiRanks - 1)));
    std::vector<double> sum(kReduceCount, 0.0);
    for (int rank = 0; rank < kMpiRanks; ++rank) {
      in.offset.push_back(rng.range(0, kMpiPool - kMpiMax));
      std::vector<double> v(kReduceCount);
      for (std::size_t k = 0; k < kReduceCount; ++k) {
        v[k] = static_cast<double>(rng.range(0, 999));  // exact in sums
        sum[k] += v[k];
      }
      in.contrib.push_back(std::move(v));
    }
    in.sum.push_back(std::move(sum));
  }
  for (std::uint32_t n = 0; n < kMpiNodes; ++n) {
    in.fault_seed.push_back(rng.next());
  }
  in.pool = make_pool(seed, kMpiPool);
  return in;
}

Rep mpi16_lossy(const Params& p) {
  Rep r;
  Failures f;
  const MpiInputs in = mpi_inputs(p.seed);
  const std::size_t n_ops = static_cast<std::size_t>(kMpiRounds) * kMpiRanks;
  Ledger p2p{n_ops, p.inject, pick_victim(in.size), f};
  Ledger coll{n_ops, Inject::kNone, n_ops, f};

  Phase setup{p.spans, "setup", p.parent_span};
  Phase ctor{p.spans, "world.construct", setup.id()};
  cluster::WorldConfig cfg;
  cfg.cluster.nodes = kMpiNodes;
  if (p.traced) cfg.cluster.trace_event_cap = kTraceCap;
  auto w = std::make_unique<cluster::World>(cfg, kMpiRanks);
  r.ctor_s = ctor.end();
  Phase eps{p.spans, "world.buffers_faults", setup.id()};
  auto& fabric = dynamic_cast<hw::MyrinetFabric&>(w->cluster().fabric());
  for (std::uint32_t n = 0; n < kMpiNodes; ++n) {
    hw::FaultPlan plan;
    plan.drop_prob = kMpiDrop;
    plan.seed = in.fault_seed[n];
    fabric.set_host_link_fault_plan(n, plan);
  }
  struct Bufs {
    osk::UserBuffer send, recv, red_in, red_out;
  };
  std::vector<Bufs> bufs;
  for (int rank = 0; rank < kMpiRanks; ++rank) {
    auto& proc = w->mpi(rank).process();
    bufs.push_back({proc.alloc(kMpiMax), proc.alloc(kMpiMax),
                    proc.alloc(kReduceCount * sizeof(double)),
                    proc.alloc(kReduceCount * sizeof(double))});
  }
  if (p.traced) w->cluster().trace().enable();
  r.endpoints_s = eps.end();
  r.setup_s = setup.end();

  auto& eng = w->engine();
  for (int rank = 0; rank < kMpiRanks; ++rank) {
    eng.spawn([](sim::Engine& eng, minimpi::Mpi& me, const Bufs& b,
                 const MpiInputs& in, Ledger& p2p, Ledger& coll)
                  -> Task<void> {
      const int me_r = me.rank();
      std::vector<std::byte> got;
      for (int round = 0; round < kMpiRounds; ++round) {
        const int s = in.shift[static_cast<std::size_t>(round)];
        const int dst = (me_r + s) % kMpiRanks;
        const int src = (me_r - s + kMpiRanks) % kMpiRanks;
        const std::size_t mine =
            static_cast<std::size_t>(round) * kMpiRanks + me_r;
        const std::size_t theirs =
            static_cast<std::size_t>(round) * kMpiRanks + src;
        me.process().poke(b.send, 0,
                          std::span{in.pool}.subspan(in.offset[mine],
                                                     in.size[mine]));
        auto rreq = me.irecv(b.recv, src, round);
        p2p.sent(mine, eng.now());
        auto sreq = me.isend(b.send, in.size[mine], dst, round);
        const auto st = co_await me.wait(rreq);
        const Time at = eng.now();
        got.resize(std::min(st.len, kMpiMax));
        me.process().peek(b.recv, 0, got);
        p2p.delivered(theirs, at, got,
                      std::span{in.pool}.subspan(in.offset[theirs],
                                                 in.size[theirs]));
        (void)co_await me.wait(sreq);

        me.write_doubles(b.red_in, in.contrib[mine]);
        coll.sent(mine, eng.now());
        co_await me.allreduce(b.red_in, b.red_out, kReduceCount);
        auto res = me.read_doubles(b.red_out, kReduceCount);
        const auto& want = in.sum[static_cast<std::size_t>(round)];
        coll.delivered(mine, eng.now(), std::as_writable_bytes(std::span{res}),
                       std::as_bytes(std::span{want}));
      }
    }(eng, w->mpi(rank), bufs[static_cast<std::size_t>(rank)], in, p2p,
      coll));
  }
  run_engine(eng, p, r, f);

  Phase verify{p.spans, "verify", p.parent_span};
  p2p.finish(r, true);
  coll.finish(r, false);
  // The receiver of each rendezvous message posts its buffer once (each
  // message fits one chunk); eager messages and shm need no ioctl.
  const std::size_t eager = w->device(0).eager_threshold();
  if (w->device(0).config().rendezvous_chunk < kMpiMax) {
    f.add("workload", "messages no longer fit one rendezvous chunk");
  }
  const auto rendezvous = static_cast<std::uint64_t>(
      std::count_if(in.size.begin(), in.size.end(),
                    [eager](std::size_t n) { return n > eager; }));
  finish_rep(w->cluster(), r, f, rendezvous);
  verify.end();

  Phase teardown{p.spans, "teardown", p.parent_span};
  w.reset();
  r.teardown_s = teardown.end();
  return r;
}

using WorkloadFn = Rep (*)(const Params&);
const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> k{
      {"stream_small", &stream_small},
      {"bulk_large", &bulk_large},
      {"mpi16_lossy", &mpi16_lossy},
  };
  return k;
}

}  // namespace

bool known_workload(const std::string& name) {
  return workloads().count(name) != 0;
}

Rep run_workload(const std::string& name, const Params& p) {
  return workloads().at(name)(p);
}

}  // namespace perf
