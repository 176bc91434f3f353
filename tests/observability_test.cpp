// Latency attribution + flight recorder + post-mortem diagnosis:
//  * Trace event buffers are bounded and count what they drop.
//  * Spans still open at dump time get flagged synthetic ends.
//  * LatencyBreakdown stage sums reproduce the measured end-to-end latency.
//  * Go-back-N retransmissions are attributed to the message they hit.
//  * Collective fan-out trees link per-member records parent -> child.
//  * The per-NIC flight recorder ring wraps, keeping the newest events.
//  * A forced fail-stop produces a post-mortem naming the faulted peer's
//    links; a collective watchdog expiry on the mesh names mesh links;
//    a fail-stopped cable ranks hottest on its failed_drops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "bcl/postmortem.hpp"
#include "bcl/recorder.hpp"
#include "bcl/stack.hpp"
#include "cluster/cluster.hpp"
#include "hw/myrinet_switch.hpp"
#include "sim/breakdown.hpp"
#include "sim/trace.hpp"

namespace {

using cluster::World;
using cluster::WorldConfig;
using sim::Task;
using sim::Time;

TEST(TraceBounds, EventCapDropsAndCounts) {
  sim::Engine eng;
  sim::Trace tr{eng};
  tr.set_event_cap(3);
  tr.enable();
  for (int i = 0; i < 5; ++i) {
    tr.interval(Time::us(i), Time::us(i + 1), "c", "s", 0);
  }
  EXPECT_EQ(tr.events().size(), 3u);
  EXPECT_EQ(tr.dropped_events(), 2u);
  // Counter and flow buffers honor the same cap.
  for (int i = 0; i < 5; ++i) {
    tr.counter("t", "v", i);
    tr.flow_begin("c", "msg", static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(tr.counter_events().size(), 3u);
  EXPECT_EQ(tr.flow_events().size(), 3u);
  EXPECT_EQ(tr.dropped_events(), 6u);
}

TEST(TraceBounds, OpenSpansGetFlaggedSyntheticEnds) {
  sim::Engine eng;
  sim::Trace tr{eng};
  tr.enable();
  {
    auto done = tr.span("node0.lib", "finished", 1);
  }
  auto dangling = tr.span("node0.lib", "in-flight", 2);
  EXPECT_EQ(tr.open_spans().size(), 1u);
  EXPECT_EQ(tr.open_spans()[0].stage, "in-flight");
  const std::string js = tr.to_chrome_json();
  EXPECT_NE(js.find("synthetic_end"), std::string::npos);
  EXPECT_NE(js.find("in-flight"), std::string::npos);
  dangling.end();
  EXPECT_TRUE(tr.open_spans().empty());
  // Once ended for real, the flag is gone.
  EXPECT_EQ(tr.to_chrome_json().find("synthetic_end"), std::string::npos);
}

// One traced 2-node message: the attribution table's stage sums must equal
// the measured end-to-end latency exactly (the projection partitions the
// window), and the semi-user-level kernel stages must all be present.
TEST(Breakdown, StageSumsReproduceEndToEnd) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.trace().enable();
  Time send_start, recv_done;
  c.engine().spawn([](sim::Engine& eng, bcl::Endpoint& ep, bcl::PortId dst,
                      Time& t0) -> Task<void> {
    auto buf = ep.process().alloc(512);
    t0 = eng.now();
    (void)co_await ep.send_system(dst, buf, 512);
    (void)co_await ep.wait_send();
  }(c.engine(), tx, rx.id(), send_start));
  c.engine().spawn([](sim::Engine& eng, bcl::Endpoint& ep,
                      Time& t1) -> Task<void> {
    auto ev = co_await ep.wait_recv();
    t1 = eng.now();
    (void)co_await ep.copy_out_system(ev);
  }(c.engine(), rx, recv_done));
  c.engine().run();

  const auto bd =
      sim::LatencyBreakdown::project(c.trace().events(), send_start,
                                     recv_done);
  const double e2e = (recv_done - send_start).to_us();
  ASSERT_GT(e2e, 0.0);
  EXPECT_NEAR(bd.sum_us(), e2e, 1e-6 * e2e);
  EXPECT_NEAR(bd.window_us(), e2e, 1e-6 * e2e);
  for (const char* stage : {"trap-enter", "security-check", "pio-fill",
                            "trap-exit", "mcp-tx-proc", "wire"}) {
    EXPECT_GT(bd.stage_us(stage), 0.0) << stage;
  }
  // The ledger recorded the message begin-to-end.
  bool found = false;
  for (const auto& [key, rec] : c.trace().msg_records()) {
    if (rec.label == "send" && rec.started && rec.done) {
      found = true;
      EXPECT_TRUE(rec.ok);
      EXPECT_EQ(rec.src, 0);
      EXPECT_GE(rec.end, rec.begin);
    }
  }
  EXPECT_TRUE(found);
}

// Congestion telemetry: after real traffic the fabric ranks its links with
// non-zero counters and sane utilization.
TEST(Congestion, FabricReportCountsTraffic) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn([](bcl::Endpoint& ep, bcl::PortId dst) -> Task<void> {
    auto buf = ep.process().alloc(4096);
    (void)co_await ep.send_system(dst, buf, 4096);
    (void)co_await ep.wait_send();
  }(tx, rx.id()));
  c.engine().spawn([](bcl::Endpoint& ep) -> Task<void> {
    auto ev = co_await ep.wait_recv();
    (void)co_await ep.copy_out_system(ev);
  }(rx));
  c.engine().run();

  const auto report = c.fabric().congestion_report();
  ASSERT_FALSE(report.empty());
  bool uplink_seen = false;
  for (const auto& l : report) {
    EXPECT_GE(l.util, 0.0) << l.name;
    EXPECT_LE(l.util, 1.0) << l.name;
    if (l.name == "n0->sw") {
      uplink_seen = true;
      EXPECT_GT(l.packets, 0u);
      EXPECT_GT(l.busy_us, 0.0);
      EXPECT_EQ(l.dropped, 0u);
    }
  }
  EXPECT_TRUE(uplink_seen);
  // links_of() scopes the report to one node's attached links.
  const auto mine = c.fabric().links_of(0);
  EXPECT_FALSE(mine.empty());
  for (const auto& name : mine) {
    EXPECT_NE(name.find('0'), std::string::npos) << name;
  }
}

// Dropping the first packets off node 0's uplink forces go-back-N; the
// retransmission must land on the victim message's causal record and in the
// sender's flight recorder.
TEST(Breakdown, RetransmitsAttributedToMessage) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cost.rto = Time::us(80);
  bcl::BclCluster c{cfg};
  hw::FaultPlan plan;
  plan.drop_nth = {0, 1};
  dynamic_cast<hw::MyrinetFabric&>(c.fabric())
      .set_host_link_fault_plan(0, plan);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.trace().enable();
  c.engine().spawn([](bcl::Endpoint& ep, bcl::PortId dst) -> Task<void> {
    auto buf = ep.process().alloc(512);
    (void)co_await ep.send_system(dst, buf, 512);
    (void)co_await ep.wait_send();
  }(tx, rx.id()));
  c.engine().spawn([](bcl::Endpoint& ep) -> Task<void> {
    auto ev = co_await ep.wait_recv();
    (void)co_await ep.copy_out_system(ev);
  }(rx));
  c.engine().run();

  ASSERT_GT(c.node(0).mcp().retransmissions(), 0u);
  std::uint32_t attributed = 0;
  for (const auto& [key, rec] : c.trace().msg_records()) {
    attributed += rec.retransmits;
  }
  EXPECT_GT(attributed, 0u);
  // The flight recorder kept the episode (always on, no tracing needed).
  const auto timeline = c.node(0).mcp().recorder().snapshot();
  const bool storm = std::any_of(
      timeline.begin(), timeline.end(), [](const bcl::FlightEvent& e) {
        return e.kind == bcl::FlightKind::kRetransmit ||
               e.kind == bcl::FlightKind::kTimeout;
      });
  EXPECT_TRUE(storm);
  // Per-link retransmit heat shows on the faulted uplink.
  for (const auto& l : c.fabric().congestion_report()) {
    if (l.name == "n0->sw") {
      EXPECT_GT(l.retx_packets + l.dropped, 0u);
    }
  }
}

// A NIC-offloaded broadcast records one causal entry per member, stitched
// into a tree: the root's record has children, interior members have both a
// parent and children, and every member completes.
TEST(CollectiveTrace, BcastRecordsFormParentChildTree) {
  WorldConfig cfg;
  cfg.cluster.nodes = 4;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.mpi.nic_collectives = true;
  World w{cfg, 4};
  w.cluster().trace().enable();
  constexpr std::size_t kBytes = 4096;
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    auto buf = me.process().alloc(kBytes);
    if (rank == 0) me.process().fill_pattern(buf, 7);
    co_await me.bcast(buf, kBytes, 0);
    EXPECT_TRUE(me.process().check_pattern(buf, 7)) << "rank " << rank;
    co_await me.barrier();
  });

  int bcast_records = 0, with_children = 0, with_parent = 0, completed = 0;
  for (const auto& [key, rec] : w.cluster().trace().msg_records()) {
    if (rec.label != "bcast") continue;
    ++bcast_records;
    if (!rec.children.empty()) ++with_children;
    if (rec.parent != 0) ++with_parent;
    if (rec.done && rec.ok) ++completed;
    // Child links must point at real records.
    for (const std::uint64_t child : rec.children) {
      EXPECT_NE(w.cluster().trace().msg_find(child), nullptr);
    }
  }
  EXPECT_EQ(bcast_records, 4);   // one per member
  EXPECT_GE(with_children, 1);   // the root fans out
  EXPECT_EQ(with_parent, 3);     // everyone but the root has a parent
  EXPECT_EQ(completed, 4);
}

TEST(FlightRecorderRing, WrapKeepsNewestEvents) {
  bcl::FlightRecorder r{4};
  for (int i = 0; i < 10; ++i) {
    r.record({Time::us(i), bcl::FlightKind::kSend, 0,
              static_cast<std::uint64_t>(i), 0, 0});
  }
  EXPECT_EQ(r.capacity(), 4u);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.total(), 10u);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[static_cast<std::size_t>(i)].msg_id,
              static_cast<std::uint64_t>(6 + i));  // oldest-first: 6,7,8,9
  }
  // Depth 0 disables recording entirely.
  bcl::FlightRecorder off{0};
  off.record({Time::zero(), bcl::FlightKind::kSend, 0, 0, 0, 0});
  EXPECT_EQ(off.size(), 0u);
}

// Rank 7 fail-stops mid-run; the survivors' retry budgets expire and the
// cluster captures a post-mortem that names the dead peer and its links.
TEST(Postmortem, FailStopProducesDiagnosisNamingFaultedPeer) {
  WorldConfig cfg;
  cfg.cluster.nodes = 8;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.cluster.cost.rto = Time::us(60);
  cfg.cluster.cost.max_retries = 4;
  cfg.cluster.cost.coll_op_timeout = Time::ms(2);
  World w{cfg, 8};

  constexpr std::size_t kCount = 16;
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    auto sbuf = me.process().alloc(kCount * sizeof(double));
    auto rbuf = me.process().alloc(kCount * sizeof(double));
    me.write_doubles(sbuf, std::vector<double>(kCount, rank + 1.0));
    co_await me.allreduce(sbuf, rbuf, kCount);
    if (rank == 7) {
      dynamic_cast<hw::MyrinetFabric&>(world.cluster().fabric())
          .host_uplink(7)
          .fail();
      co_return;
    }
    try {
      co_await me.allreduce(sbuf, rbuf, kCount);
    } catch (const minimpi::PeerUnreachableError&) {
    }
  });

  const auto& dumps = w.cluster().postmortems();
  ASSERT_FALSE(dumps.empty());
  const bcl::Postmortem* pm = nullptr;
  for (const auto& d : dumps) {
    if (d.reason == "peer-unreachable") pm = &d;
  }
  ASSERT_NE(pm, nullptr) << "no peer-unreachable dump captured";
  // Either a survivor declares node 7 dead, or node 7's own NIC — cut off
  // from every ack by its dark uplink — declares a survivor unreachable
  // first.  Both are correct diagnoses, and both implicate node 7's links.
  EXPECT_TRUE(pm->peer == 7 || pm->node == 7)
      << "diagnosing node " << pm->node << ", peer " << pm->peer;
  EXPECT_GT(pm->time_us, 0.0);
  // The suspect set covers the dead peer's attached links.
  const bool names_peer_link = std::any_of(
      pm->suspect_links.begin(), pm->suspect_links.end(),
      [](const std::string& n) {
        return n.find('7') != std::string::npos;
      });
  EXPECT_TRUE(names_peer_link);
  EXPECT_FALSE(pm->top_links.empty());
  EXPECT_FALSE(pm->timeline.empty());
  EXPECT_FALSE(pm->sessions.empty());
  // The machine-readable dump round-trips the headline facts.
  const std::string js = w.cluster().postmortems_json();
  EXPECT_NE(js.find("\"reason\": \"peer-unreachable\""), std::string::npos);
  EXPECT_NE(js.find("\"timeline\""), std::string::npos);
  EXPECT_NE(js.find("\"suspect_links\""), std::string::npos);
}

// An impossibly tight collective watchdog on the mesh fabric: the timeout
// post-mortem must name the victim op and rank mesh links.
TEST(Postmortem, CollectiveTimeoutOnMeshNamesMeshLinks) {
  WorldConfig cfg;
  cfg.cluster.nodes = 8;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.cluster.fabric.kind = hw::FabricKind::kNwrcMesh;
  cfg.mpi.nic_collectives = true;
  cfg.cluster.cost.coll_op_timeout = Time::us(30);
  World w{cfg, 8};

  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    try {
      co_await me.barrier();
    } catch (const minimpi::PeerUnreachableError&) {
    }
  });

  const auto& dumps = w.cluster().postmortems();
  ASSERT_FALSE(dumps.empty());
  const bcl::Postmortem* pm = nullptr;
  for (const auto& d : dumps) {
    if (d.reason == "collective-timeout") pm = &d;
  }
  ASSERT_NE(pm, nullptr) << "no collective-timeout dump captured";
  EXPECT_NE(pm->victim.find("barrier"), std::string::npos) << pm->victim;
  ASSERT_FALSE(pm->top_links.empty());
  for (const auto& l : pm->top_links) {
    EXPECT_EQ(l.name[0], 'm') << l.name;  // NwrcMesh link naming
  }
  const bool coll_event_kept = std::any_of(
      pm->timeline.begin(), pm->timeline.end(), [](const bcl::FlightEvent& e) {
        return e.kind == bcl::FlightKind::kCollPost ||
               e.kind == bcl::FlightKind::kCollTimeout;
      });
  EXPECT_TRUE(coll_event_kept);
}

// The cluster keeps at most postmortem_max dumps and counts the rest, so a
// 64-node failure cascade cannot OOM the post-mortem path.
TEST(Postmortem, DumpCountIsBounded) {
  WorldConfig cfg;
  cfg.cluster.nodes = 8;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.cluster.cost.rto = Time::us(60);
  cfg.cluster.cost.max_retries = 4;
  cfg.cluster.cost.coll_op_timeout = Time::ms(2);
  cfg.cluster.postmortem_max = 2;
  World w{cfg, 8};

  constexpr std::size_t kCount = 16;
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    auto sbuf = me.process().alloc(kCount * sizeof(double));
    auto rbuf = me.process().alloc(kCount * sizeof(double));
    me.write_doubles(sbuf, std::vector<double>(kCount, 1.0));
    co_await me.allreduce(sbuf, rbuf, kCount);
    if (rank == 7) {
      dynamic_cast<hw::MyrinetFabric&>(world.cluster().fabric())
          .host_uplink(7)
          .fail();
      co_return;
    }
    try {
      co_await me.allreduce(sbuf, rbuf, kCount);
    } catch (const minimpi::PeerUnreachableError&) {
    }
    try {
      co_await me.barrier();
    } catch (const minimpi::PeerUnreachableError&) {
    }
  });

  EXPECT_LE(w.cluster().postmortems().size(), 2u);
  if (w.cluster().postmortems().size() == 2u) {
    EXPECT_GT(w.cluster().postmortems_suppressed(), 0u);
  }
}

// A crash–restart cycle is visible from the outside: the rebooted NIC's
// rel.restarts counter ticks, the survivor's rel.recovered_peers ticks once
// the handshake re-establishes, and the post-mortem session snapshots carry
// the incarnation numbers a postmortem reader needs to line traffic up
// against epochs.
TEST(Postmortem, RestartCountersAndIncarnationFieldsSurface) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(60);
  cfg.cost.max_retries = 3;
  cfg.cost.e2e_completion = true;
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn_daemon([](bcl::Endpoint& rx) -> Task<void> {
    for (;;) {
      bcl::RecvEvent ev = co_await rx.wait_recv();
      (void)co_await rx.copy_out_system(ev);
    }
  }(rx));

  bool done = false;
  c.engine().spawn([](bcl::BclCluster& c, bcl::Endpoint& tx, bcl::PortId dst,
                      bool& done) -> Task<void> {
    constexpr std::size_t kLen = 64;
    auto buf = tx.process().alloc(kLen);
    tx.process().fill_pattern(buf, 9);
    // Completion matched by msg_id: the unreachable verdict also posts a
    // port-wide advisory event (msg_id 0).
    const auto one = [&]() -> Task<bcl::BclErr> {
      auto r = co_await tx.send_system(dst, buf, kLen);
      if (r.err != bcl::BclErr::kOk) co_return r.err;
      for (;;) {
        bcl::SendEvent ev = co_await tx.wait_send();
        if (ev.msg_id == r.value) co_return ev.err;
      }
    };
    EXPECT_EQ(co_await one(), bcl::BclErr::kOk);
    c.node(1).mcp().crash();
    EXPECT_NE(co_await one(), bcl::BclErr::kOk);  // budget exhausts
    co_await c.engine().sleep(Time::ms(2));
    co_await c.node(1).driver().reset_nic();
    co_await c.engine().sleep(Time::ms(2));  // revival probe answered
    EXPECT_EQ(co_await one(), bcl::BclErr::kOk);  // re-established epoch
    done = true;
  }(c, tx, rx.id(), done));
  c.engine().run();
  EXPECT_TRUE(done);

  EXPECT_EQ(c.metrics().counter("node1.nic.rel.restarts").value(), 1u);
  EXPECT_EQ(c.metrics().counter("node0.nic.rel.restarts").value(), 0u);
  EXPECT_GE(c.metrics().counter("node0.nic.rel.recovered_peers").value(), 1u);
  EXPECT_GE(c.metrics().counter("node0.nic.rel.peer_failures").value(), 1u);
  EXPECT_EQ(c.node(1).mcp().incarnation(), 1u);

  // The unreachable verdict produced a dump; its session snapshots carry
  // both ends' incarnation view.
  ASSERT_FALSE(c.postmortems().empty());
  const std::string js = c.postmortems_json();
  EXPECT_NE(js.find("\"incarnation\""), std::string::npos);
  EXPECT_NE(js.find("\"peer_incarnation\""), std::string::npos);
}

// A cable killed by fail-stop carries no retransmissions (it eats them), so
// only its failed_drops can rank it: with room for one link, the post-mortem
// must name the dead one.
TEST(Postmortem, FailStoppedLinkRanksHottest) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(60);
  cfg.cost.max_retries = 3;
  cfg.postmortem_top_links = 1;
  bcl::BclCluster c{cfg};
  c.fabric().link("sw->n1").fail();
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn([](bcl::Endpoint& tx, bcl::PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(64);
    EXPECT_EQ((co_await tx.send_system(dst, buf, 64)).err, bcl::BclErr::kOk);
    (void)co_await tx.wait_send();  // staged; the retry budget then exhausts
  }(tx, rx.id()));
  c.engine().run();

  ASSERT_FALSE(c.postmortems().empty());
  const auto& top = c.postmortems().front().top_links;
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].name, "sw->n1");
  EXPECT_GT(top[0].failed_drops, 0u);
}

}  // namespace
