// Scale tests: BCL and the full middleware stack on larger clusters —
// two-level Myrinet (leaf/spine) topologies, wide meshes, many ranks.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/workload.hpp"

namespace {

using bcl::BclCluster;
using bcl::BclErr;
using bcl::ClusterConfig;
using bcl::Endpoint;
using bcl::PortId;
using cluster::World;
using cluster::WorldConfig;
using sim::Task;

// 16 nodes forces the two-level leaf/spine Myrinet build (4 leaves + 4
// spines); every pair exchanges through at most 4 wire hops.
TEST(Scale, AllPairsAcrossTwoLevelMyrinet) {
  ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.node.mem_bytes = 8u << 20;
  BclCluster c{cfg};
  std::vector<Endpoint*> eps;
  for (std::uint32_t n = 0; n < 16; ++n) {
    eps.push_back(&c.open_endpoint(n));
  }
  int received = 0;
  for (int i = 0; i < 16; ++i) {
    // Every node sends to every other node once (15 sends each).
    c.engine().spawn([](Endpoint& me, std::vector<Endpoint*>& all)
                         -> Task<void> {
      auto buf = me.process().alloc(256);
      me.process().fill_pattern(buf, static_cast<unsigned>(me.id().node));
      for (auto* peer : all) {
        if (peer == &me) continue;
        auto r = co_await me.send_system(peer->id(), buf, 256);
        EXPECT_EQ(r.err, BclErr::kOk);
        (void)co_await me.wait_send();
      }
    }(*eps[i], eps));
    c.engine().spawn([](Endpoint& me, int& received) -> Task<void> {
      for (int k = 0; k < 15; ++k) {
        auto ev = co_await me.wait_recv();
        auto data = co_await me.copy_out_system(ev);
        EXPECT_EQ(data.size(), 256u);
        ++received;
      }
    }(*eps[i], received));
  }
  c.engine().run();
  EXPECT_EQ(received, 16 * 15);
  // Traffic really crossed the spines.
  auto& fab = dynamic_cast<hw::MyrinetFabric&>(c.fabric());
  std::uint64_t spine_forwards = 0;
  for (std::size_t s = 4; s < fab.switch_count(); ++s) {
    spine_forwards += fab.switch_at(s).forwarded();
  }
  EXPECT_GT(spine_forwards, 0u);
}

TEST(Scale, MpiAllreduceAcross24Ranks) {
  WorldConfig cfg;
  cfg.cluster.nodes = 12;  // two-level topology, 2 ranks per node
  cfg.cluster.node.mem_bytes = 16u << 20;
  World w{cfg, 24};
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    auto sbuf = me.process().alloc(sizeof(double));
    auto rbuf = me.process().alloc(sizeof(double));
    me.write_doubles(sbuf, std::vector<double>{static_cast<double>(rank)});
    co_await me.allreduce(sbuf, rbuf, 1);
    EXPECT_DOUBLE_EQ(me.read_doubles(rbuf, 1)[0], 276.0);  // 0+..+23
  });
}

TEST(Scale, MpiAlltoallAcross16Ranks) {
  WorldConfig cfg;
  cfg.cluster.nodes = 16;
  cfg.cluster.node.mem_bytes = 16u << 20;
  World w{cfg, 16};
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    const int n = me.size();
    constexpr std::size_t kBlock = 512;
    auto sbuf = me.process().alloc(kBlock * n);
    auto rbuf = me.process().alloc(kBlock * n);
    for (int r = 0; r < n; ++r) {
      osk::UserBuffer slice{sbuf.vaddr + static_cast<std::size_t>(r) * kBlock,
                            kBlock, sbuf.owner};
      me.process().fill_pattern(
          slice, static_cast<unsigned>((rank * 37 + r) & 0xff));
    }
    co_await me.alltoall(sbuf, kBlock, rbuf);
    for (int r = 0; r < n; ++r) {
      osk::UserBuffer slice{rbuf.vaddr + static_cast<std::size_t>(r) * kBlock,
                            kBlock, rbuf.owner};
      EXPECT_TRUE(me.process().check_pattern(
          slice, static_cast<unsigned>((r * 37 + rank) & 0xff)))
          << "rank " << rank << " block " << r;
    }
  });
}

TEST(Scale, WideMeshShiftTraffic) {
  WorldConfig cfg;
  cfg.cluster.nodes = 25;  // 5x5 nwrc mesh
  cfg.cluster.fabric.kind = hw::FabricKind::kNwrcMesh;
  cfg.cluster.fabric.mesh_width = 5;
  cfg.cluster.node.mem_bytes = 8u << 20;
  World w{cfg, 25};
  w.run([](World& world, int rank) -> Task<void> {
    co_await cluster::workload::shift_traffic(world.mpi(rank), /*rounds=*/4,
                                              /*bytes=*/1024, /*seed=*/7);
  });
  SUCCEED();
}

TEST(Scale, FullNodeFourProcessesShareOneNic) {
  // Four endpoints on one node all stream to peers on another node: the
  // single NIC serializes, but nothing is lost or corrupted.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 16u << 20;
  BclCluster c{cfg};
  std::vector<Endpoint*> senders, receivers;
  for (int i = 0; i < 4; ++i) {
    senders.push_back(&c.open_endpoint(0));
    receivers.push_back(&c.open_endpoint(1));
  }
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    c.engine().spawn([](Endpoint& tx, PortId dst, unsigned seed)
                         -> Task<void> {
      auto buf = tx.process().alloc(2048);
      tx.process().fill_pattern(buf, seed);
      for (int k = 0; k < 10; ++k) {
        auto r = co_await tx.send_system(dst, buf, 2048);
        EXPECT_EQ(r.err, BclErr::kOk);
        (void)co_await tx.wait_send();
      }
    }(*senders[i], receivers[i]->id(), static_cast<unsigned>(i)));
    c.engine().spawn([](Endpoint& rx, unsigned seed, int& done)
                         -> Task<void> {
      for (int k = 0; k < 10; ++k) {
        auto ev = co_await rx.wait_recv();
        auto data = co_await rx.copy_out_system(ev);
        EXPECT_EQ(data.size(), 2048u);
        for (std::size_t b = 0; b < data.size(); ++b) {
          if (data[b] != static_cast<std::byte>(
                             (b * 197 + seed * 31 + 7) & 0xff)) {
            ADD_FAILURE() << "corruption at byte " << b;
            break;
          }
        }
      }
      ++done;
    }(*receivers[i], static_cast<unsigned>(i), done));
  }
  c.engine().run();
  EXPECT_EQ(done, 4);
}

TEST(Scale, ThirtyTwoNodeLimitHolds) {
  ClusterConfig cfg;
  cfg.nodes = 32;  // the maximum the two-level 8-port build supports
  cfg.node.mem_bytes = 4u << 20;
  BclCluster c{cfg};
  auto& a = c.open_endpoint(0);
  auto& b = c.open_endpoint(31);
  bool got = false;
  c.engine().spawn([](Endpoint& a, PortId dst) -> Task<void> {
    auto buf = a.process().alloc(64);
    auto r = co_await a.send_system(dst, buf, 64);
    EXPECT_EQ(r.err, BclErr::kOk);
  }(a, b.id()));
  c.engine().spawn([](Endpoint& b, bool& got) -> Task<void> {
    auto ev = co_await b.wait_recv();
    (void)co_await b.copy_out_system(ev);
    got = true;
  }(b, got));
  c.engine().run();
  EXPECT_TRUE(got);
}

long max_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// 1024 nodes at the default 64 MiB each is 64 GiB of simulated memory.
// Host memory materializes only the frames that are written, so the whole
// cluster must fit in a small fraction of that.
TEST(Scale, ThousandDefaultMemoryNodesOnMesh) {
  const long rss_before = max_rss_kb();
  ClusterConfig cfg;
  cfg.nodes = 1024;
  cfg.fabric.kind = hw::FabricKind::kNwrcMesh;
  BclCluster c{cfg};
  auto& a = c.open_endpoint(0);
  auto& b = c.open_endpoint(1023);
  bool got = false;
  c.engine().spawn([](Endpoint& a, PortId dst) -> Task<void> {
    auto buf = a.process().alloc(64);
    a.process().fill_pattern(buf, 5);
    auto r = co_await a.send_system(dst, buf, 64);
    EXPECT_EQ(r.err, BclErr::kOk);
  }(a, b.id()));
  c.engine().spawn([](Endpoint& b, bool& got) -> Task<void> {
    auto ev = co_await b.wait_recv();
    auto data = co_await b.copy_out_system(ev);
    EXPECT_EQ(data.size(), 64u);
    got = true;
  }(b, got));
  c.engine().run();
  EXPECT_TRUE(got);
  EXPECT_LT(max_rss_kb() - rss_before, 512L * 1024);
}

}  // namespace
