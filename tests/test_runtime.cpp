// Integration tests for the Gravel runtime: symmetric heap, fabric,
// aggregator repacking, network-thread resolution, the device-side
// shmem_put / shmem_inc / shmem_am API with work-group-level reservation,
// the quiet protocol, and the Table-5 statistics plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "runtime/cluster.hpp"
#include "pump_threads.hpp"

namespace gravel::rt {
namespace {

ClusterConfig smallCluster(std::uint32_t nodes, std::uint32_t wg = 16,
                           std::uint32_t wf = 4) {
  ClusterConfig c;
  c.nodes = nodes;
  c.heap_bytes = 1 << 20;
  c.gpu_queue_bytes = 1 << 14;
  c.pernode_queue_bytes = 1 << 10;  // 1 kB = 32 messages per flush
  c.device.wavefront_width = wf;
  c.device.max_wg_size = wg;
  return c;
}

TEST(SymmetricHeap, WordAccess) {
  SymmetricHeap h(1024);
  h.storeU64(16, 0xdeadbeef);
  EXPECT_EQ(h.loadU64(16), 0xdeadbeefu);
  EXPECT_EQ(h.fetchAddU64(16, 2), 0xdeadbeefu);
  EXPECT_EQ(h.loadU64(16), 0xdeadbef1u);
}

TEST(SymmetricHeap, TypedDoubleRoundTrip) {
  SymmetricHeap h(1024);
  SymAddr<double> a{64};
  h.store(a, 3, 2.718281828);
  EXPECT_DOUBLE_EQ(h.load(a, 3), 2.718281828);
}

TEST(SymmetricHeap, BoundsChecked) {
  SymmetricHeap h(64);
  EXPECT_THROW(h.loadU64(64), Error);
  EXPECT_THROW(h.storeU64(61, 0), Error);  // unaligned + oob
}

TEST(SymmetricAllocator, OffsetsAreSequentialAndBounded) {
  SymmetricAllocator a(64);
  auto x = a.alloc<std::uint64_t>(4);
  auto y = a.alloc<std::uint64_t>(4);
  EXPECT_EQ(x.offset, 0u);
  EXPECT_EQ(y.offset, 32u);
  EXPECT_THROW(a.alloc<std::uint64_t>(1), Error);
}

TEST(NetMessage, PackingRoundTrips) {
  auto m = NetMessage::activeMessage(3, 77, 123, 456);
  EXPECT_EQ(m.command(), Command::kActiveMessage);
  EXPECT_EQ(m.handler(), 77u);
  EXPECT_EQ(m.dest, 3u);
  EXPECT_EQ(m.addr, 123u);
  EXPECT_EQ(m.value, 456u);
  auto p = NetMessage::put(1, 8, 9);
  EXPECT_EQ(p.command(), Command::kPut);
  auto i = NetMessage::atomicInc(2, 16);
  EXPECT_EQ(i.command(), Command::kAtomicInc);
}

TEST(Fabric, DeliversAndCounts) {
  net::PerfectFabric f(2);
  std::vector<NetMessage> batch{NetMessage::put(1, 0, 42),
                                NetMessage::put(1, 8, 43)};
  f.send(0, 1, std::move(batch));
  EXPECT_EQ(f.inFlight(), 2u);
  EXPECT_FALSE(f.quiescent());
  net::Delivery d;
  EXPECT_FALSE(f.tryReceive(0, d));
  ASSERT_TRUE(f.tryReceive(1, d));
  EXPECT_EQ(d.src, 0u);
  ASSERT_EQ(d.messages.size(), 2u);
  f.markResolved(1, d);
  EXPECT_EQ(f.inFlight(), 0u);
  EXPECT_TRUE(f.quiescent());
  auto link = f.link(0, 1);
  EXPECT_EQ(link.batches, 1u);
  EXPECT_EQ(link.messages, 2u);
  EXPECT_EQ(link.bytes, 64u);
}

TEST(Fabric, EmptyBatchIsDropped) {
  net::PerfectFabric f(2);
  f.send(0, 1, {});
  net::Delivery d;
  EXPECT_FALSE(f.tryReceive(1, d));
  EXPECT_EQ(f.total().batches, 0u);
}

TEST(Aggregator, TimeoutFlushesPartialBufferWithoutFlushAll) {
  // A message parked in a partially-filled per-node buffer must reach the
  // wire within the configured timeout through checkTimeouts() alone —
  // flushAll() is never called here.
  ClusterConfig c;
  c.nodes = 2;
  c.pernode_queue_bytes = 1 << 10;  // 32-message buffers; we park only 3
  c.flush_timeout = std::chrono::milliseconds(2);
  GravelQueue queue(GravelQueueConfig{1 << 13, 32, NetMessage::kRows});
  net::PerfectFabric fabric(2);
  obs::Tracer tracer(c.obs);
  Aggregator agg(0, queue, fabric, c, tracer);
  PumpThreads pumps(agg, 1);
  auto ref = queue.acquireWrite(3);
  const NetMessage msgs[3] = {NetMessage::put(1, 0, 7),
                              NetMessage::put(1, 8, 8),
                              NetMessage::atomicInc(1, 16)};
  for (std::uint32_t lane = 0; lane < 3; ++lane) {
    queue.wordAt(ref, 0, lane) = msgs[lane].cmd;
    queue.wordAt(ref, 1, lane) = msgs[lane].dest;
    queue.wordAt(ref, 2, lane) = msgs[lane].addr;
    queue.wordAt(ref, 3, lane) = msgs[lane].value;
  }
  queue.publish(ref);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fabric.link(0, 1).batches == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timeout flush never pushed the partial buffer onto the wire";
    std::this_thread::yield();
  }
  EXPECT_EQ(fabric.link(0, 1).messages, 3u);
  // send() counts the batch on the link just before it enters the inbox.
  net::Delivery d;
  while (!fabric.tryReceive(1, d)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the flushed batch never reached the destination inbox";
    std::this_thread::yield();
  }
  ASSERT_EQ(d.messages.size(), 3u);
  EXPECT_EQ(d.messages[0].value, 7u);
  pumps.stop();
}

// --- end-to-end cluster tests -------------------------------------------

TEST(Cluster, RemotePutLandsOnDestinationHeap) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(64);
  cluster.launchAll(16, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    auto& self = cluster.node(nodeId);
    const std::uint32_t dest = 1 - nodeId;
    self.shmemPut(wi, dest, arr.at(wi.globalId()),
                  nodeId * 1000 + wi.globalId());
  });
  for (std::uint32_t n = 0; n < 2; ++n) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      EXPECT_EQ(cluster.node(n).heap().loadU64(arr.at(i)),
                (1 - n) * 1000 + i);
    }
  }
}

TEST(Cluster, LocalPutIsDirectStore) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(64);
  cluster.launchAll(16, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemPut(wi, nodeId, arr.at(wi.globalId()), 7);
  });
  auto s = cluster.runStats();
  EXPECT_EQ(s.put_local, 32u);
  EXPECT_EQ(s.put_remote, 0u);
  EXPECT_EQ(s.net_messages, 0u);  // nothing crossed the aggregator
  EXPECT_EQ(cluster.node(0).heap().loadU64(arr.at(3)), 7u);
}

TEST(Cluster, AtomicIncrementsAreExact) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint64_t kGrid = 64;
  Cluster cluster(smallCluster(kNodes));
  auto counters = cluster.alloc<std::uint64_t>(8);
  // Every work-item increments counter (globalId % 8) on node
  // (globalId % kNodes): each counter on each node gets grid/8 increments
  // from each source node... total per (node, counter) is easy to compute.
  cluster.launchAll(kGrid, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    const std::uint32_t dest = wi.globalId() % kNodes;
    const std::uint64_t slot = wi.globalId() % 8;
    cluster.node(nodeId).shmemInc(wi, dest, counters.at(slot));
  });
  // Work-item g on each of the 4 source nodes targets (g%4, g%8); for a
  // fixed (dest, slot) pair the number of g in [0,64) with g%4==dest and
  // g%8==slot is 8 when slot%4==dest, else 0. Each source node contributes.
  for (std::uint32_t dest = 0; dest < kNodes; ++dest) {
    for (std::uint64_t slot = 0; slot < 8; ++slot) {
      const std::uint64_t expected = (slot % kNodes == dest) ? 8 * kNodes : 0;
      EXPECT_EQ(cluster.node(dest).heap().loadU64(counters.at(slot)), expected)
          << "dest=" << dest << " slot=" << slot;
    }
  }
  // All atomics route through the NI, local ones included (§6).
  auto s = cluster.runStats();
  EXPECT_EQ(s.inc_local + s.inc_remote, kGrid * kNodes);
  EXPECT_EQ(s.net_messages, kGrid * kNodes);
}

TEST(Cluster, ActiveMessagesRunAtHomeNode) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(16);
  // Handler: arr[arg0] = max(arr[arg0], arg1).
  const std::uint32_t h = cluster.registerHandler(
      [arr](AmContext& ctx, std::uint64_t a0, std::uint64_t a1) {
        const std::uint64_t cur = ctx.heap().loadU64(arr.at(a0));
        if (a1 > cur) ctx.heap().storeU64(arr.at(a0), a1);
      });
  cluster.launchAll(32, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemAm(wi, 1 - nodeId, h, wi.globalId() % 16,
                                 wi.globalId() + nodeId * 100);
  });
  // Node 0's array receives maxima from node 1 (values 100..131).
  for (std::uint64_t s = 0; s < 16; ++s) {
    EXPECT_EQ(cluster.node(0).heap().loadU64(arr.at(s)), 100 + 16 + s);
    EXPECT_EQ(cluster.node(1).heap().loadU64(arr.at(s)), 16 + s);
  }
}

TEST(Cluster, SoftwarePredicationSkipsInactiveLanes) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(64);
  cluster.launchAll(32, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    const bool active = wi.globalId() % 4 == 0;  // 8 of 32 lanes
    cluster.node(nodeId).shmemPut(wi, 1 - nodeId, arr.at(wi.globalId()),
                                  wi.globalId() + 1, active);
  });
  for (std::uint64_t i = 0; i < 32; ++i) {
    const std::uint64_t expect = (i % 4 == 0) ? i + 1 : 0;
    EXPECT_EQ(cluster.node(0).heap().loadU64(arr.at(i)), expect);
  }
  auto s = cluster.runStats();
  EXPECT_EQ(s.put_remote, 16u);  // 8 active lanes per node
}

TEST(Cluster, AllLanesInactiveIsANoop) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(16);
  cluster.launchAll(16, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemPut(wi, 1 - nodeId, arr.at(0), 1,
                                  /*active=*/false);
  });
  auto s = cluster.runStats();
  EXPECT_EQ(s.opsTotal(), 0u);
  EXPECT_EQ(s.net_messages, 0u);
}

TEST(Cluster, ManyGroupsStressQueueReuse) {
  // Grid far larger than the GPU queue so the ring wraps many times and
  // producers spin on slot reuse while the aggregator drains.
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(4096);
  cluster.launchAll(4096, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemInc(wi, 1 - nodeId,
                                  arr.at(wi.globalId() % 4096));
  });
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < 4096; ++i)
    total += cluster.node(0).heap().loadU64(arr.at(i));
  EXPECT_EQ(total, 4096u);
}

TEST(Cluster, SequentialLaunchesComposeWithQuiet) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(16);
  for (int iter = 0; iter < 5; ++iter) {
    cluster.launchAll(16, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
      cluster.node(nodeId).shmemInc(wi, 1 - nodeId, arr.at(wi.globalId()));
    });
    // quiet() ran inside launchAll: results must be visible now.
    EXPECT_EQ(cluster.node(0).heap().loadU64(arr.at(0)), std::uint64_t(iter + 1));
  }
}

TEST(Cluster, RunStatsWindowsResetCleanly) {
  // runStats() windows each field by its metric kind: after resetStats(),
  // counters (dead-letter counts included) restart at 0 while levels keep
  // their value. The warm launch makes the levels nonzero before the
  // reset, so a level published as a counter would read 0 here.
  ClusterConfig faulty = smallCluster(2);
  faulty.fault.drop_prob = 0.05;
  faulty.fault.dup_prob = 0.05;
  faulty.reliability.enabled = true;
  faulty.reliability.policy = net::FailurePolicy::kDegrade;
  faulty.reliability.rto_base = std::chrono::microseconds(500);
  faulty.reliability.rto_max = std::chrono::microseconds(8000);
  faulty.reliability.max_retries = 1u << 20;
  for (const ClusterConfig& config : {smallCluster(2), faulty}) {
    SCOPED_TRACE(config.fault.active() ? "faulty+reliable" : "perfect");
    Cluster cluster(config);
    auto arr = cluster.alloc<std::uint64_t>(16);
    const auto launch = [&] {
      cluster.launchAll(16, 16, [&](std::uint32_t nodeId,
                                    simt::WorkItem& wi) {
        cluster.node(nodeId).shmemInc(wi, 1 - nodeId,
                                      arr.at(wi.globalId() % 16));
      });
    };
    launch();
    const ClusterRunStats first = cluster.runStats();
    EXPECT_EQ(first.inc_remote, 32u);
    EXPECT_GT(first.agg_lazy_buffers, 0u);
    EXPECT_GT(first.agg_staging_bytes_peak, 0u);

    cluster.resetStats();
    const ClusterRunStats empty = cluster.runStats();
    const std::uint64_t counters[] = {
        empty.opsTotal(), empty.lanes_executed, empty.workgroups_executed,
        empty.collective_ops, empty.collective_arrivals,
        empty.active_arrivals, empty.predication_overhead_ops,
        empty.agg_slots, empty.agg_lock_acquisitions, empty.agg_dests_touched,
        empty.agg_timeout_scanned, empty.net_batches, empty.net_messages,
        empty.net_bytes, empty.net_resolved, empty.retransmits,
        empty.dup_drops, empty.acks, empty.acks_sent, empty.reorder_drops,
        empty.breaker_trips, empty.probes, empty.stale_data_drops,
        empty.stale_ack_drops, empty.injected_drops, empty.injected_dups,
        empty.degraded.dead_lettered, empty.degraded.rejected};
    for (std::size_t i = 0; i < std::size(counters); ++i)
      EXPECT_EQ(counters[i], 0u) << "counter #" << i;
    EXPECT_EQ(empty.avg_batch_bytes, 0.0);
    EXPECT_EQ(empty.agg_lazy_buffers, first.agg_lazy_buffers);
    EXPECT_EQ(empty.agg_resident_bytes, first.agg_resident_bytes);
    EXPECT_EQ(empty.agg_staging_bytes_peak, first.agg_staging_bytes_peak);
    EXPECT_EQ(empty.reorder_peak, first.reorder_peak);

    launch();
    const ClusterRunStats second = cluster.runStats();
    EXPECT_EQ(second.inc_remote, first.inc_remote);
    EXPECT_EQ(second.net_messages, first.net_messages);
  }
}

TEST(Cluster, BatchSizesReflectAggregation) {
  // 1 kB per-node queues = 32 messages per batch. A burst of 256 messages
  // to one destination must produce full 1 kB batches (plus a tail).
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(16);
  cluster.launchAll(256, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    if (nodeId == 0) cluster.node(0).shmemInc(wi, 1, arr.at(0));
    else cluster.node(1).shmemInc(wi, 1, arr.at(0), false);
  });
  auto s = cluster.runStats();
  EXPECT_EQ(s.net_messages, 256u);
  EXPECT_EQ(s.net_batches, 8u);  // 256 / 32
  EXPECT_DOUBLE_EQ(s.avg_batch_bytes, 1024.0);
  EXPECT_EQ(cluster.node(1).heap().loadU64(arr.at(0)), 256u);
}

TEST(Cluster, SingleNodeClusterWorks) {
  Cluster cluster(smallCluster(1));
  auto arr = cluster.alloc<std::uint64_t>(16);
  cluster.launchAll(64, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemInc(wi, 0, arr.at(wi.globalId() % 16));
  });
  for (std::uint64_t i = 0; i < 16; ++i)
    EXPECT_EQ(cluster.node(0).heap().loadU64(arr.at(i)), 4u);
}

TEST(Cluster, HostParallelRunsPerNodeWork) {
  Cluster cluster(smallCluster(4));
  auto arr = cluster.alloc<std::uint64_t>(4);
  cluster.hostParallel([&](std::uint32_t nodeId) {
    cluster.node(nodeId).heap().storeU64(arr.at(0), nodeId + 1);
  });
  for (std::uint32_t n = 0; n < 4; ++n)
    EXPECT_EQ(cluster.node(n).heap().loadU64(arr.at(0)), n + 1u);
}

TEST(Cluster, MixedOperationKindsInterleave) {
  Cluster cluster(smallCluster(2));
  auto puts = cluster.alloc<std::uint64_t>(32);
  auto counters = cluster.alloc<std::uint64_t>(4);
  const std::uint32_t h = cluster.registerHandler(
      [counters](AmContext& ctx, std::uint64_t a0, std::uint64_t a1) {
        ctx.heap().fetchAddU64(counters.at(a0), a1);
      });
  cluster.launchAll(32, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    auto& self = cluster.node(nodeId);
    const std::uint32_t other = 1 - nodeId;
    switch (wi.globalId() % 3) {
      case 0:
        self.shmemPut(wi, other, puts.at(wi.globalId()), 11);
        self.shmemInc(wi, other, counters.at(3), false);
        self.shmemAm(wi, other, h, 0, 0, false);
        break;
      case 1:
        self.shmemPut(wi, other, puts.at(0), 0, false);
        self.shmemInc(wi, other, counters.at(3));
        self.shmemAm(wi, other, h, 0, 0, false);
        break;
      default:
        self.shmemPut(wi, other, puts.at(0), 0, false);
        self.shmemInc(wi, other, counters.at(3), false);
        self.shmemAm(wi, other, h, 1, 5);
        break;
    }
  });
  // 32 ids: 11 with id%3==0, 11 with id%3==1, 10 with id%3==2.
  EXPECT_EQ(cluster.node(0).heap().loadU64(puts.at(0)), 11u);
  EXPECT_EQ(cluster.node(0).heap().loadU64(counters.at(3)), 11u);
  EXPECT_EQ(cluster.node(0).heap().loadU64(counters.at(1)), 50u);
}

// --- the work-group reserve (paper §4.1) --------------------------------
// A node on its own: its aggregator is never pumped, so every slot a kernel
// reserves stays in the GPU queue for the test to read back.
struct LoneNode {
  explicit LoneNode(bool reconvergence = false)
      : config(loneConfig(reconvergence)),
        fabric(config.nodes),
        tracer(config.obs),
        node(0, config, fabric, registry, tracer) {}

  static ClusterConfig loneConfig(bool reconvergence) {
    ClusterConfig c = smallCluster(2);
    c.device.wg_reconvergence = reconvergence;
    return c;
  }

  /// Claims every published slot; each as its messages in column order.
  std::vector<std::vector<NetMessage>> drain() {
    std::vector<std::vector<NetMessage>> slots;
    GravelQueue::SlotRef ref;
    while (node.queue().tryAcquireRead(ref)) {
      slots.emplace_back(ref.count);
      node.queue().copySlot(ref, slots.back().data());
      node.queue().release(ref);
    }
    return slots;
  }

  ClusterConfig config;
  net::PerfectFabric fabric;
  AmRegistry registry;
  obs::Tracer tracer;
  NodeRuntime node;
};

/// The heap offsets the slot's columns carry, in column order (the kernels
/// below send each lane's global id, or an id derived from it, as offset).
std::vector<std::uint64_t> columnIds(const std::vector<NetMessage>& slot) {
  std::vector<std::uint64_t> ids;
  for (const NetMessage& m : slot) ids.push_back(m.addr / 8);
  return ids;
}

void expectCounts(const simt::DeviceStats& st, std::uint64_t ops,
                  std::uint64_t arrivals, std::uint64_t active) {
  EXPECT_EQ(st.collective_ops, ops);
  EXPECT_EQ(st.collective_arrivals, arrivals);
  EXPECT_EQ(st.active_arrivals, active);
}

TEST(Reserve, FullGroupFillsOneSlotInLaneOrder) {
  LoneNode n;
  n.node.device().launch({16, 16}, [&](simt::WorkItem& wi) {
    n.node.shmemInc(wi, 1, wi.globalId() * 8);
  });
  const auto slots = n.drain();
  ASSERT_EQ(slots.size(), 1u);
  std::vector<std::uint64_t> lanes(16);
  std::iota(lanes.begin(), lanes.end(), 0);
  EXPECT_EQ(columnIds(slots[0]), lanes);
  for (const NetMessage& m : slots[0]) {
    EXPECT_EQ(m.command(), Command::kAtomicInc);
    EXPECT_EQ(m.dest, 1u);
  }
  expectCounts(n.node.device().stats(), 4, 64, 64);
}

TEST(Reserve, PartialTrailingGroupReservesItsOwnSlot) {
  LoneNode n;
  n.node.device().launch({20, 16}, [&](simt::WorkItem& wi) {
    n.node.shmemPut(wi, 1, wi.globalId() * 8, wi.globalId() + 100);
  });
  const auto slots = n.drain();
  ASSERT_EQ(slots.size(), 2u);
  ASSERT_EQ(slots[0].size(), 16u);
  EXPECT_EQ(columnIds(slots[1]), (std::vector<std::uint64_t>{16, 17, 18, 19}));
  for (const auto& slot : slots)
    for (const NetMessage& m : slot) EXPECT_EQ(m.value, m.addr / 8 + 100);
  expectCounts(n.node.device().stats(), 8, 80, 80);
}

TEST(Reserve, PredicatedGroupPacksActiveLanesInLaneOrder) {
  LoneNode n;
  n.node.device().launch({16, 16}, [&](simt::WorkItem& wi) {
    n.node.shmemInc(wi, 1, wi.globalId() * 8, wi.localId() % 3 == 0);
  });
  const auto slots = n.drain();
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(columnIds(slots[0]),
            (std::vector<std::uint64_t>{0, 3, 6, 9, 12, 15}));
  // Inactive lanes arrive inactive at the reduce-max and the prefix-sum and
  // active at the broadcast and the barrier: 6 * 4 + 10 * 2.
  expectCounts(n.node.device().stats(), 4, 64, 44);
}

TEST(Reserve, AllInactiveGroupReservesAndPublishesNothing) {
  LoneNode n;
  n.node.device().launch({16, 16}, [&](simt::WorkItem& wi) {
    n.node.shmemInc(wi, 1, 0, /*active=*/false);
  });
  EXPECT_EQ(n.node.queue().reservedCount(), 0u);
  EXPECT_TRUE(n.drain().empty());
  expectCounts(n.node.device().stats(), 4, 64, 32);
}

// The even lanes reserve through an fbar, twice, except lane 12, which
// leaves after one. In the second round lanes 14, 0, 2, ..., 10 have
// arrived when lane 12 leaves, so its fbarLeave completes the rendezvous
// and must publish the slot.
TEST(Reserve, FbarSubsetReservesAndLeaveCompletesTheRendezvous) {
  LoneNode n;
  n.node.device().launch({16, 16}, [&](simt::WorkItem& wi) {
    const std::uint32_t l = wi.localId();
    if (l % 2 != 0) return;
    auto& fb = wi.fbar();
    wi.fbarJoin(fb);
    const int rounds = l == 12 ? 1 : 2;
    for (int r = 0; r < rounds; ++r)
      n.node.shmemInc(wi, 1, (r * 16 + l) * 8, true, &fb);
    wi.fbarLeave(fb);
  });
  const auto slots = n.drain();
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(columnIds(slots[0]),
            (std::vector<std::uint64_t>{0, 2, 4, 6, 8, 10, 12, 14}));
  EXPECT_EQ(columnIds(slots[1]),
            (std::vector<std::uint64_t>{16, 18, 20, 22, 24, 26, 30}));
  expectCounts(n.node.device().stats(), 8, 60, 60);
}

// Under §5.3 reconvergence lanes 2, 6, 10 and 14 exit after one reserve.
// In the second round every other live lane has arrived when lane 14
// exits, so onLaneFinish completes the rendezvous and must publish.
TEST(Reserve, ReconvergedExitsCompleteTheRendezvousAndPublish) {
  LoneNode n(/*reconvergence=*/true);
  n.node.device().launch({16, 16}, [&](simt::WorkItem& wi) {
    const std::uint32_t l = wi.localId();
    const int rounds = l % 4 == 2 ? 1 : 2;
    for (int r = 0; r < rounds; ++r)
      n.node.shmemInc(wi, 1, (r * 16 + l) * 8);
  });
  const auto slots = n.drain();
  ASSERT_EQ(slots.size(), 2u);
  ASSERT_EQ(slots[0].size(), 16u);
  EXPECT_EQ(columnIds(slots[1]),
            (std::vector<std::uint64_t>{16, 17, 19, 20, 21, 23, 24, 25, 27,
                                        28, 29, 31}));
  expectCounts(n.node.device().stats(), 8, 112, 112);
}

// A reserve is its own collective operation: meeting any other one, in
// either order, is divergent misuse.
TEST(Reserve, MeetingAnotherCollectiveThrows) {
  for (const bool barrierFirst : {true, false}) {
    LoneNode n;
    try {
      n.node.device().launch({4, 4}, [&](simt::WorkItem& wi) {
        if ((wi.localId() == 0) == barrierFirst)
          wi.wgBarrier();
        else
          n.node.shmemInc(wi, 1, 0);
      });
      ADD_FAILURE() << "mixed reserve and barrier did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("different collective operations"),
                std::string::npos)
          << e.what();
    }
  }
}

// The DES-facing counts bench_fig6_wg_sync prints: every message costs four
// collective arrivals (reduce-max, prefix-sum, broadcast, barrier), and a
// full group of w lanes costs one producer and one consumer RMW per w
// messages.
TEST(Reserve, Fig6CountsPerMessage) {
  for (const std::uint32_t wavefronts : {1u, 2u, 4u}) {
    ClusterConfig c = smallCluster(1, 256, 64);
    Cluster cluster(c);
    auto sink = cluster.alloc<std::uint64_t>(16);
    const std::uint32_t wg = wavefronts * 64;
    const std::uint64_t msgs = 4 * wg;
    cluster.launchAll(msgs, wg, [&](std::uint32_t, simt::WorkItem& wi) {
      cluster.node(0).shmemInc(wi, 0, sink.at(wi.globalId() % 16));
    });
    auto& node = cluster.node(0);
    EXPECT_EQ(node.device().stats().collective_arrivals, 4 * msgs) << wg;
    EXPECT_EQ(node.queue().atomicRmwCount() * wg, 2 * msgs) << wg;
  }
}

// Property sweep: random mixes of destinations/activity must always deliver
// exactly the multiset of increments the kernel issued. Every field is 64-bit
// so the struct has no padding: gtest names each case by the param's bytes,
// and uninitialised padding would make those names differ from run to run.
struct MixParam {
  std::uint64_t nodes;
  std::uint64_t grid;
  std::uint64_t wg;
  std::uint64_t seed;
};
static_assert(sizeof(MixParam) == 4 * sizeof(std::uint64_t));

class RandomTraffic : public ::testing::TestWithParam<MixParam> {};

TEST_P(RandomTraffic, IncrementsConserveCount) {
  const auto p = GetParam();
  Cluster cluster(smallCluster(std::uint32_t(p.nodes), std::uint32_t(p.wg)));
  constexpr std::uint64_t kSlots = 32;
  auto arr = cluster.alloc<std::uint64_t>(kSlots);

  // Precompute each (node, workitem)'s action so the expectation is exact.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> plan(
      p.nodes);
  std::vector<std::vector<std::uint64_t>> expected(
      p.nodes, std::vector<std::uint64_t>(kSlots, 0));
  for (std::uint32_t n = 0; n < p.nodes; ++n) {
    Xoshiro256 rng(p.seed + n);
    plan[n].resize(p.grid);
    for (std::uint64_t g = 0; g < p.grid; ++g) {
      if (rng.uniform() < 0.25) {
        plan[n][g] = {~0u, 0};  // inactive lane
      } else {
        const auto dest = std::uint32_t(rng.below(p.nodes));
        const auto slot = rng.below(kSlots);
        plan[n][g] = {dest, slot};
        ++expected[dest][slot];
      }
    }
  }
  cluster.launchAll(p.grid, std::uint32_t(p.wg),
                    [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    const auto [dest, slot] = plan[nodeId][wi.globalId()];
    const bool active = dest != ~0u;
    cluster.node(nodeId).shmemInc(wi, active ? dest : 0,
                                  arr.at(active ? slot : 0), active);
  });
  for (std::uint32_t n = 0; n < p.nodes; ++n)
    for (std::uint64_t s = 0; s < kSlots; ++s)
      EXPECT_EQ(cluster.node(n).heap().loadU64(arr.at(s)), expected[n][s])
          << "node " << n << " slot " << s;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomTraffic,
    ::testing::Values(MixParam{1, 64, 16, 1}, MixParam{2, 128, 16, 2},
                      MixParam{3, 96, 8, 3}, MixParam{4, 256, 16, 4},
                      MixParam{8, 128, 16, 5}));

}  // namespace
}  // namespace gravel::rt
