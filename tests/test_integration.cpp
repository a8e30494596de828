// Cross-module integration and failure-injection tests: scenarios that span
// the SIMT engine, queue, aggregator, fabric and network threads in ways the
// per-module suites do not — timeout flushes, backpressure from tiny queues,
// active-message chains, heterogeneous work-group sizes, and quiet-protocol
// edge cases.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "apps/app.hpp"
#include "runtime/cluster.hpp"

namespace gravel::rt {
namespace {

ClusterConfig tiny(std::uint32_t nodes) {
  ClusterConfig c;
  c.nodes = nodes;
  c.heap_bytes = 1 << 20;
  c.gpu_queue_bytes = 1 << 13;
  c.pernode_queue_bytes = 1 << 10;
  c.device.wavefront_width = 8;
  c.device.max_wg_size = 32;
  return c;
}

TEST(Integration, BackpressureFromTinyGpuQueue) {
  // GPU queue of 2 slots: producers must spin on slot reuse constantly
  // while the aggregator drains; nothing may be lost or duplicated.
  ClusterConfig c = tiny(2);
  c.gpu_queue_bytes = 256;  // 2 slots at 32 lanes x 4 rows? -> min 2 slots
  Cluster cluster(c);
  auto arr = cluster.alloc<std::uint64_t>(8);
  cluster.launchAll(2048, 32, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemInc(wi, 1 - nodeId,
                                  arr.at(wi.globalId() % 8));
  });
  std::uint64_t total = 0;
  for (std::uint32_t n = 0; n < 2; ++n)
    for (std::uint64_t i = 0; i < 8; ++i)
      total += cluster.node(n).heap().loadU64(arr.at(i));
  EXPECT_EQ(total, 4096u);
}

TEST(Integration, TimeoutFlushesSparseTraffic) {
  // A trickle that never fills a per-node queue must still be delivered by
  // the aggregator's timeout path (not only by quiet()): we launch, then
  // poll the destination while the cluster stays otherwise idle.
  ClusterConfig c = tiny(2);
  c.flush_timeout = std::chrono::microseconds(500);
  Cluster cluster(c);
  auto flag = cluster.alloc<std::uint64_t>(1);
  cluster.start();
  // Drive the device directly (no quiet) so only the timeout can flush.
  cluster.node(0).device().launch({32, 32}, [&](simt::WorkItem& wi) {
    cluster.node(0).shmemInc(wi, 1, flag.at(0));
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.node(1).heap().loadU64(flag.at(0)) < 32) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timeout flush never delivered the messages";
    std::this_thread::yield();
  }
  cluster.quiet();
}

TEST(Integration, ActiveMessageChainsAcrossLaunches) {
  // Handler writes state the next kernel reads: launch-quiet-launch must
  // give read-your-writes across the whole cluster.
  Cluster cluster(tiny(4));
  auto stage1 = cluster.alloc<std::uint64_t>(64);
  auto stage2 = cluster.alloc<std::uint64_t>(64);
  const std::uint32_t h = cluster.registerHandler(
      [stage1](AmContext& ctx, std::uint64_t i, std::uint64_t v) {
        ctx.heap().storeU64(stage1.at(i), v);
      });
  cluster.launchAll(64, 32, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemAm(wi, (nodeId + 1) % 4, h,
                                 wi.globalId() % 64, wi.globalId() + 1);
  });
  // Second launch: forward stage1 values (local reads) to stage2 remotely.
  cluster.launchAll(64, 32, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    const std::uint64_t v =
        cluster.node(nodeId).heap().loadU64(stage1.at(wi.globalId() % 64));
    cluster.node(nodeId).shmemPut(wi, (nodeId + 2) % 4,
                                  stage2.at(wi.globalId() % 64), v);
  });
  // Every stage2 slot ends with globalId+1 of the final writer; just check
  // they are nonzero everywhere (values flowed through both hops).
  for (std::uint32_t n = 0; n < 4; ++n)
    for (std::uint64_t i = 0; i < 64; ++i)
      EXPECT_GT(cluster.node(n).heap().loadU64(stage2.at(i)), 0u);
}

TEST(Integration, HandlersThatSendNothingStillQuiesce) {
  Cluster cluster(tiny(2));
  auto arr = cluster.alloc<std::uint64_t>(4);
  const std::uint32_t nop = cluster.registerHandler(
      [](AmContext&, std::uint64_t, std::uint64_t) {});
  cluster.launchAll(64, 32, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemAm(wi, 1 - nodeId, nop, 0, 0);
  });
  (void)arr;
  SUCCEED();  // reaching here means quiet() terminated
}

TEST(Integration, MixedWorkGroupSizesAcrossLaunches) {
  Cluster cluster(tiny(2));
  auto arr = cluster.alloc<std::uint64_t>(4);
  for (std::uint32_t wg : {8u, 16u, 32u}) {
    cluster.launchAll(96, wg, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
      cluster.node(nodeId).shmemInc(wi, 1 - nodeId, arr.at(0));
    });
  }
  EXPECT_EQ(cluster.node(0).heap().loadU64(arr.at(0)), 3u * 96);
}

TEST(Integration, EightNodeAllToAll) {
  Cluster cluster(tiny(8));
  auto arr = cluster.alloc<std::uint64_t>(8);
  cluster.launchAll(256, 32, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    const auto dest = std::uint32_t((nodeId + wi.globalId()) % 8);
    cluster.node(nodeId).shmemInc(wi, dest, arr.at(nodeId));
  });
  // Each source node issued 256 increments to slot[source] spread over all
  // destinations: summing slot[source] across nodes gives 256.
  for (std::uint32_t src = 0; src < 8; ++src) {
    std::uint64_t total = 0;
    for (std::uint32_t n = 0; n < 8; ++n)
      total += cluster.node(n).heap().loadU64(arr.at(src));
    EXPECT_EQ(total, 256u) << "source " << src;
  }
  // All-to-all fabric links carried traffic.
  std::uint32_t activeLinks = 0;
  for (std::uint32_t i = 0; i < 8; ++i)
    for (std::uint32_t j = 0; j < 8; ++j)
      if (cluster.fabric().link(i, j).messages > 0) ++activeLinks;
  EXPECT_EQ(activeLinks, 64u);  // including loopback atomics
}

TEST(Integration, SymmetricAllocationsAreSharedAcrossLaunches) {
  Cluster cluster(tiny(2));
  auto a = cluster.alloc<std::uint64_t>(16);
  auto b = cluster.alloc<std::uint64_t>(16);
  EXPECT_NE(a.offset, b.offset);
  cluster.launchAll(16, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemPut(wi, 1 - nodeId, a.at(wi.globalId()), 1);
    cluster.node(nodeId).shmemPut(wi, 1 - nodeId, b.at(wi.globalId()), 2);
  });
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(cluster.node(0).heap().loadU64(a.at(i)), 1u);
    EXPECT_EQ(cluster.node(0).heap().loadU64(b.at(i)), 2u);
  }
}

TEST(Integration, AggregatorPollsWhileGpuIsSlow) {
  // §8.1: the CPU aggregator spends most of its time polling for GPU
  // messages (65% in the paper at 8 nodes — their motivation for a
  // hardware aggregator). With the fiber-interpreted GPU the imbalance is
  // even starker: the poll fraction must dominate — on a thread per unit
  // and on a shared pool alike.
  for (const std::uint32_t runtimeThreads : {0u, 2u}) {
    SCOPED_TRACE("runtime_threads " + std::to_string(runtimeThreads));
    ClusterConfig c = tiny(2);
    c.runtime_threads = runtimeThreads;
    Cluster cluster(c);
    auto arr = cluster.alloc<std::uint64_t>(4);
    cluster.launchAll(1024, 32,
                      [&](std::uint32_t nodeId, simt::WorkItem& wi) {
                        cluster.node(nodeId).shmemInc(wi, 1 - nodeId,
                                                      arr.at(0));
                      });
    EXPECT_GT(cluster.node(0).aggregator().pollFraction(), 0.5);
    EXPECT_EQ(cluster.node(0).aggregator().slotsProcessed(),
              cluster.node(0).queue().reservedCount());
  }
}

TEST(Integration, KernelExceptionsPropagateFromLaunchAll) {
  Cluster cluster(tiny(2));
  EXPECT_THROW(
      cluster.launchAll(32, 32,
                        [&](std::uint32_t, simt::WorkItem& wi) {
                          if (wi.globalId() == 7)
                            throw std::runtime_error("kernel bug");
                        }),
      std::runtime_error);
}

TEST(Integration, FbarDomainMessagingEndToEnd) {
  // The §5.3 fbar path through the full runtime: lanes with unequal work
  // leave the barrier as they finish; reservations synchronize members.
  Cluster cluster(tiny(2));
  auto arr = cluster.alloc<std::uint64_t>(64);
  cluster.launchAll(32, 32, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    auto& fb = wi.fbar();
    wi.fbarJoin(fb);
    const std::uint64_t mine = wi.localId() % 4;  // 0..3 messages per lane
    for (std::uint64_t i = 0;; ++i) {
      if (i >= mine) {
        wi.fbarLeave(fb);
        break;
      }
      cluster.node(nodeId).shmemInc(wi, 1 - nodeId,
                                    arr.at(wi.localId()), true, &fb);
    }
  });
  for (std::uint64_t l = 0; l < 32; ++l) {
    EXPECT_EQ(cluster.node(0).heap().loadU64(arr.at(l)), l % 4);
    EXPECT_EQ(cluster.node(1).heap().loadU64(arr.at(l)), l % 4);
  }
}

}  // namespace
}  // namespace gravel::rt
