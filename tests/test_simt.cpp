// Tests for the SIMT execution engine: fibers, work-group collectives
// (including the paper's Figure 5b reservation idiom), diverged semantics
// (§5.2), fine-grain barriers (§5.3), scratchpad, and deadlock detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "simt/device.hpp"
#include "simt/fiber.hpp"

namespace gravel::simt {
namespace {

DeviceConfig smallConfig(std::uint32_t wf = 4, std::uint32_t wg = 16) {
  DeviceConfig c;
  c.wavefront_width = wf;
  c.max_wg_size = wg;
  c.scratchpad_bytes = 4096;
  return c;
}

TEST(Fiber, RunsBodyToCompletion) {
  Fiber f;
  int x = 0;
  f.reset([&] { x = 42; });
  EXPECT_TRUE(f.resume().finished());
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  Fiber f;
  std::vector<int> trace;
  f.reset([&] {
    trace.push_back(1);
    f.yield();
    trace.push_back(3);
    f.yield();
    trace.push_back(5);
  });
  EXPECT_FALSE(f.resume().finished());
  trace.push_back(2);
  EXPECT_FALSE(f.resume().finished());
  trace.push_back(4);
  EXPECT_TRUE(f.resume().finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber f;
  f.reset([&] { EXPECT_EQ(Fiber::current(), &f); });
  f.resume();
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ExceptionsPropagateToResume) {
  Fiber f;
  f.reset([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, ReusableAfterFinish) {
  Fiber f;
  int sum = 0;
  for (int i = 0; i < 3; ++i) {
    f.reset([&, i] { sum += i; });
    f.resume();
  }
  EXPECT_EQ(sum, 0 + 1 + 2);
}

TEST(Fiber, DeepCallChainsFitTheStack) {
  Fiber f;
  std::function<int(int)> rec = [&](int n) -> int {
    return n == 0 ? 0 : n + rec(n - 1);
  };
  int out = 0;
  f.reset([&] { out = rec(100); });
  f.resume();
  EXPECT_EQ(out, 5050);
}

// switchTo(): a fiber hands the thread straight to a sibling (starting it if
// it has not started); the scheduler regains control only when some fiber
// yields or finishes, and resume() reports which one that was.
TEST(Fiber, SwitchToHandsOffAndReturnsToTheScheduler) {
  Fiber a(64 * 1024, 0);
  Fiber b(64 * 1024, 1);
  std::vector<int> trace;
  a.reset([&] {
    trace.push_back(1);
    a.switchTo(b);  // b has not started: entered via the switch
    trace.push_back(4);
  });
  b.reset([&] {
    EXPECT_EQ(Fiber::current(), &b);
    trace.push_back(2);
    b.yield();  // back to the scheduler, not to a
    trace.push_back(6);
  });
  Fiber& back = a.resume();
  EXPECT_EQ(&back, &b);
  EXPECT_EQ(back.id(), 1u);
  EXPECT_EQ(Fiber::current(), nullptr);
  EXPECT_FALSE(a.finished());
  EXPECT_FALSE(b.finished());
  trace.push_back(3);
  EXPECT_EQ(&a.resume(), &a);
  EXPECT_TRUE(a.finished());
  trace.push_back(5);
  EXPECT_EQ(&b.resume(), &b);
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Fiber, SiblingsSwitchBackAndForth) {
  Fiber a(64 * 1024, 0);
  Fiber b(64 * 1024, 1);
  std::vector<int> trace;
  a.reset([&] {
    trace.push_back(1);
    a.switchTo(b);
    trace.push_back(3);  // resumed by b, not by the scheduler
    a.switchTo(b);
    trace.push_back(5);
  });
  b.reset([&] {
    trace.push_back(2);
    b.switchTo(a);
    trace.push_back(4);
    b.switchTo(a);
  });
  // a finishes first; b is still suspended in its second switch.
  EXPECT_EQ(&a.resume(), &a);
  EXPECT_TRUE(a.finished());
  EXPECT_FALSE(b.finished());
  EXPECT_EQ(&b.resume(), &b);
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, ExceptionFromSwitchedToFiberSurfacesFromResume) {
  Fiber a(64 * 1024, 0);
  Fiber b(64 * 1024, 1);
  bool aDone = false;
  a.reset([&] {
    a.switchTo(b);
    aDone = true;
  });
  b.reset([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(a.resume(), std::runtime_error);
  EXPECT_EQ(Fiber::current(), nullptr);
  EXPECT_TRUE(b.finished());
  EXPECT_FALSE(a.finished());
  EXPECT_EQ(&a.resume(), &a);  // a is still suspended in its switch
  EXPECT_TRUE(aDone);
}

TEST(Fiber, AbandonedFiberIsReusable) {
  Fiber f;
  f.reset([&] {
    f.yield();
    ADD_FAILURE() << "abandoned continuation ran";
  });
  EXPECT_FALSE(f.resume().finished());
  f.abandon();
  EXPECT_TRUE(f.finished());
  int x = 0;
  f.reset([&] { x = 7; });
  EXPECT_TRUE(f.resume().finished());
  EXPECT_EQ(x, 7);
}

TEST(Device, LaunchCoversGridExactlyOnce) {
  Device dev(smallConfig());
  std::vector<int> hits(100, 0);
  dev.launch({100, 16}, [&](WorkItem& wi) { ++hits[wi.globalId()]; });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(dev.stats().lanes_executed, 100u);
  EXPECT_EQ(dev.stats().workgroups_executed, 7u);  // 6 full + 1 partial(4)
}

TEST(Device, IdentityArithmetic) {
  Device dev(smallConfig(/*wf=*/4, /*wg=*/16));
  dev.launch({32, 16}, [&](WorkItem& wi) {
    EXPECT_EQ(wi.localId(), wi.globalId() % 16);
    EXPECT_EQ(wi.workGroupId(), wi.globalId() / 16);
    EXPECT_EQ(wi.laneId(), wi.localId() % 4);
    EXPECT_EQ(wi.wavefrontId(), wi.localId() / 4);
    EXPECT_EQ(wi.gridSize(), 32u);
  });
}

TEST(Device, BarrierSeparatesPhases) {
  Device dev(smallConfig());
  std::vector<int> data(16, 0);
  std::vector<int> snapshot(16, -1);
  dev.launch({16, 16}, [&](WorkItem& wi) {
    data[wi.localId()] = int(wi.localId());
    wi.wgBarrier();
    // After the barrier every lane must see every other lane's write.
    int sum = std::accumulate(data.begin(), data.end(), 0);
    snapshot[wi.localId()] = sum;
  });
  for (int s : snapshot) EXPECT_EQ(s, 120);  // 0+1+...+15
}

TEST(Device, ReduceOpsMatchSerial) {
  Device dev(smallConfig());
  dev.launch({16, 16}, [&](WorkItem& wi) {
    const std::uint64_t v = wi.localId() * 3 + 1;
    EXPECT_EQ(wi.wgReduceSum(v), 16u * 1 + 3u * 120);
    EXPECT_EQ(wi.wgReduceMax(v), 15u * 3 + 1);
    EXPECT_EQ(wi.wgReduceMin(v), 1u);
  });
}

TEST(Device, PrefixSumIsExclusiveInLaneOrder) {
  Device dev(smallConfig());
  std::vector<std::uint64_t> out(16);
  dev.launch({16, 16}, [&](WorkItem& wi) {
    out[wi.localId()] = wi.wgPrefixSum(wi.localId() + 1);
  });
  std::uint64_t running = 0;
  for (std::uint32_t l = 0; l < 16; ++l) {
    EXPECT_EQ(out[l], running);
    running += l + 1;
  }
}

TEST(Device, BroadcastFromChosenLane) {
  Device dev(smallConfig());
  dev.launch({16, 16}, [&](WorkItem& wi) {
    const std::uint64_t got = wi.wgBroadcast(777, wi.localId() == 5);
    EXPECT_EQ(got, 777u);
  });
}

// The Figure 5b idiom: leader election by reduce-max over lane offsets,
// per-lane offsets by prefix-sum, one fetch-add by the leader, broadcast of
// the base. This is the exact reservation sequence Gravel's device API uses.
TEST(Device, Figure5bReservationIdiom) {
  Device dev(smallConfig(4, 16));
  std::atomic<std::uint64_t> writeIdx{2};  // matches the figure's sample run
  std::vector<std::uint64_t> slot(64, 0);
  dev.launch({16, 16}, [&](WorkItem& wi) {
    const std::uint64_t lid = wi.localId();
    const std::uint64_t max = wi.wgReduceMax(lid);
    const std::uint64_t myOff = wi.wgPrefixSum(1);
    std::uint64_t qOff = 0;
    if (lid == max) qOff = writeIdx.fetch_add(myOff + 1);
    const std::uint64_t base = wi.wgReduceSum(qOff);
    slot[base + myOff] = wi.globalId() + 1;
  });
  // All sixteen lanes landed contiguously starting at index 2.
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(slot[2 + i], i + 1);
  EXPECT_EQ(writeIdx.load(), 18u);
}

// §5.2 diverged semantics via software predication: inactive lanes submit
// identities; the result reflects active lanes only.
TEST(Device, DivergedReduceIgnoresInactiveLanes) {
  Device dev(smallConfig());
  dev.launch({16, 16}, [&](WorkItem& wi) {
    const bool active = wi.localId() % 3 == 0;  // lanes 0,3,6,9,12,15
    const std::uint64_t v = wi.localId() + 100;
    const std::uint64_t mx = wi.wgReduceMax(active ? v : 0, active);
    EXPECT_EQ(mx, 115u);
    const std::uint64_t sum = wi.wgReduceSum(active ? v : 0, active);
    EXPECT_EQ(sum, 100u + 103 + 106 + 109 + 112 + 115);
  });
  EXPECT_LT(dev.stats().activeFraction(), 1.0);
}

TEST(Device, DivergedPrefixSumCountsActiveLanesOnly) {
  Device dev(smallConfig());
  std::vector<std::uint64_t> out(16, 999);
  dev.launch({16, 16}, [&](WorkItem& wi) {
    const bool active = wi.localId() >= 8;
    out[wi.localId()] = wi.wgPrefixSum(active ? 1 : 0, active);
  });
  for (std::uint32_t l = 0; l < 8; ++l) EXPECT_EQ(out[l], 0u);
  for (std::uint32_t l = 8; l < 16; ++l) EXPECT_EQ(out[l], l - 8);
}

TEST(Device, MismatchedCollectiveOpsThrow) {
  Device dev(smallConfig(4, 4));
  EXPECT_THROW(dev.launch({4, 4},
                          [&](WorkItem& wi) {
                            if (wi.localId() % 2 == 0)
                              wi.wgReduceSum(1);
                            else
                              wi.wgReduceMax(1);
                          }),
               Error);
}

TEST(Device, EarlyExitDuringCollectiveDeadlocks) {
  Device dev(smallConfig(4, 4));
  EXPECT_THROW(dev.launch({4, 4},
                          [&](WorkItem& wi) {
                            if (wi.localId() == 3) return;  // exits early
                            wi.wgBarrier();
                          }),
               DeadlockError);
}

TEST(Device, WgReconvergenceModeCompletesOverLiveLanes) {
  // Same kernel as above, but with §5.3 thread-block-compaction semantics:
  // the exited lane stops participating and the barrier completes.
  auto cfg = smallConfig(4, 4);
  cfg.wg_reconvergence = true;
  Device dev(cfg);
  int completions = 0;
  dev.launch({4, 4}, [&](WorkItem& wi) {
    if (wi.localId() == 3) return;
    wi.wgBarrier();
    ++completions;
  });
  EXPECT_EQ(completions, 3);
}

TEST(Device, ScratchpadSharedWithinGroup) {
  Device dev(smallConfig());
  dev.launch({32, 16}, [&](WorkItem& wi) {
    auto* buf = wi.scratchAlloc<std::uint32_t>(16);
    buf[wi.localId()] = std::uint32_t(wi.localId() * 2);
    wi.wgBarrier();
    EXPECT_EQ(buf[(wi.localId() + 1) % 16], ((wi.localId() + 1) % 16) * 2);
  });
  EXPECT_GE(dev.stats().scratchpad_high_water, 16u * 4);
}

TEST(Device, ScratchpadOverflowThrows) {
  Device dev(smallConfig());
  EXPECT_THROW(
      dev.launch({16, 16},
                 [&](WorkItem& wi) { wi.scratchAlloc<std::byte>(1 << 20); }),
      Error);
}

TEST(Device, ScratchpadResetBetweenGroups) {
  Device dev(smallConfig());
  // Each group allocates half the scratchpad; if the arena were not reset
  // per group this would overflow at the second group.
  dev.launch({64, 16},
             [&](WorkItem& wi) { wi.scratchAlloc<std::byte>(2048); });
  EXPECT_EQ(dev.stats().scratchpad_high_water, 2048u);
}

// Under §5.3 reconvergence the lane that exits completes the allocation
// its siblings wait at; they must still get arena offsets, not the size.
TEST(Device, ReconvergedExitCompletesScratchAllocWithAnOffset) {
  DeviceConfig c = smallConfig(4, 4);
  c.wg_reconvergence = true;
  Device dev(c);
  std::vector<std::byte*> first(3), second(3);
  dev.launch({4, 4}, [&](WorkItem& wi) {
    const std::uint32_t l = wi.localId();
    if (l == 3) return;  // lanes 0..2 are parked at the first allocation
    first[l] = wi.scratchAlloc<std::byte>(16);
    second[l] = wi.scratchAlloc<std::byte>(16);
  });
  for (std::uint32_t l = 0; l < 3; ++l) {
    EXPECT_EQ(first[l], first[0]);
    EXPECT_EQ(second[l], first[0] + 16);
  }
  EXPECT_EQ(dev.stats().scratchpad_high_water, 32u);
}

// §5.3 fine-grain barriers: lanes leave as their (unequal) work runs out;
// remaining members keep synchronizing. This is Figure 10c / Figure 11d.
TEST(Device, FbarSupportsShrinkingMembership) {
  Device dev(smallConfig(4, 8));
  std::vector<int> iterations(8, 0);
  dev.launch({8, 8}, [&](WorkItem& wi) {
    auto& fb = wi.fbar();
    wi.fbarJoin(fb);
    const int myWork = int(wi.localId()) + 1;  // lane l does l+1 rounds
    for (int i = 0; i < myWork; ++i) {
      ++iterations[wi.localId()];
      if (i + 1 == myWork) {
        wi.fbarLeave(fb);
      } else {
        wi.fbarBarrier(fb);
      }
    }
  });
  for (std::uint32_t l = 0; l < 8; ++l) EXPECT_EQ(iterations[l], int(l) + 1);
}

TEST(Device, FbarCollectivesUseMembersOnly) {
  Device dev(smallConfig(4, 8));
  dev.launch({8, 8}, [&](WorkItem& wi) {
    auto& fb = wi.fbar(1);
    if (wi.localId() < 4) {
      wi.fbarJoin(fb);
      const std::uint64_t sum = wi.fbarReduceSum(fb, wi.localId());
      EXPECT_EQ(sum, 0u + 1 + 2 + 3);
      const std::uint64_t off = wi.fbarPrefixSum(fb, 1);
      EXPECT_EQ(off, wi.localId());
      wi.fbarLeave(fb);
    }
  });
}

TEST(Device, FbarExitWhileJoinedThrows) {
  Device dev(smallConfig(4, 4));
  EXPECT_THROW(dev.launch({4, 4},
                          [&](WorkItem& wi) {
                            wi.fbarJoin(wi.fbar());
                            // forgot leavefbar
                          }),
               DeadlockError);
}

TEST(Device, NonMemberFbarCollectiveThrows) {
  Device dev(smallConfig(4, 4));
  EXPECT_THROW(dev.launch({4, 4},
                          [&](WorkItem& wi) {
                            auto& fb = wi.fbar();
                            if (wi.localId() == 0) wi.fbarJoin(fb);
                            wi.fbarBarrier(fb);  // lanes 1..3 never joined
                          }),
               Error);
}

TEST(Device, PartialTrailingGroupConverges) {
  Device dev(smallConfig(4, 16));
  std::vector<std::uint64_t> sums;
  std::mutex m;
  dev.launch({20, 16}, [&](WorkItem& wi) {  // second group has 4 lanes
    const std::uint64_t s = wi.wgReduceSum(1);
    if (wi.localId() == 0) {
      std::scoped_lock lk(m);
      sums.push_back(s);
    }
  });
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0], 16u);
  EXPECT_EQ(sums[1], 4u);
}

TEST(Device, StatsCountCollectives) {
  Device dev(smallConfig());
  dev.launch({16, 16}, [&](WorkItem& wi) {
    wi.wgBarrier();
    wi.wgReduceSum(1);
  });
  EXPECT_EQ(dev.stats().collective_ops, 2u);
  EXPECT_EQ(dev.stats().collective_arrivals, 32u);
}

// Pins the scheduling of a diverged four-collective kernel: lanes that park
// hand off directly to the next runnable lane, which must reproduce the
// resume order and the DeviceStats counts of a scheduler-driven pass (the
// DES charges collective_arrivals, so these feed the paper figures).
TEST(Device, DivergedKernelResumeOrderAndCountsArePinned) {
  Device dev(smallConfig(/*wf=*/64, /*wg=*/256));
  constexpr std::uint64_t kGrid = 1000;
  constexpr std::uint32_t kWg = 256;
  std::vector<std::pair<std::uint64_t, int>> trace;  // (global id, phase)
  std::vector<std::uint64_t> leader(kGrid), off(kGrid), total(kGrid);
  dev.launch({kGrid, kWg}, [&](WorkItem& wi) {
    const std::uint64_t g = wi.globalId();
    const std::uint32_t l = wi.localId();
    const bool active = l % 4 != 3;
    trace.emplace_back(g, 0);
    leader[g] = wi.wgReduceMax(l);
    trace.emplace_back(g, 1);
    off[g] = wi.wgPrefixSum(1, active);
    trace.emplace_back(g, 2);
    total[g] = wi.wgReduceSum(active ? 1 : 0, active);
    trace.emplace_back(g, 3);
    wi.wgBarrier();
    trace.emplace_back(g, 4);
  });

  // Expected order, per work-group of n lanes: pass k (1..4) resumes lanes
  // 0..n-k, which reach phase k-1; lane n-k completes collective k and goes
  // on to phase k, then lanes n-k+1..n-1 (woken by it) reach phase k too.
  // Pass 5 resumes the lanes 0..n-5 that the barrier woke.
  std::vector<std::pair<std::uint64_t, int>> expected;
  for (std::uint64_t base = 0; base < kGrid; base += kWg) {
    const std::uint64_t n = std::min<std::uint64_t>(kWg, kGrid - base);
    for (int k = 1; k <= 5; ++k) {
      for (std::uint64_t l = 0; l + k <= n; ++l)
        expected.emplace_back(base + l, k - 1);
      if (k == 5) break;
      for (std::uint64_t l = n - k; l < n; ++l) expected.emplace_back(base + l, k);
    }
  }
  EXPECT_EQ(trace, expected);

  for (std::uint64_t g = 0; g < kGrid; ++g) {
    const std::uint64_t base = g - g % kWg;
    const std::uint64_t n = std::min<std::uint64_t>(kWg, kGrid - base);
    const std::uint64_t l = g - base;
    EXPECT_EQ(leader[g], n - 1);
    EXPECT_EQ(total[g], n - n / 4);
    if (l % 4 != 3) {
      EXPECT_EQ(off[g], l - l / 4);  // rank among active lanes
    }
  }

  const DeviceStats& st = dev.stats();
  EXPECT_EQ(st.fiber_switches, 4984u);
  EXPECT_EQ(st.collective_ops, 16u);
  EXPECT_EQ(st.collective_arrivals, 4000u);
  EXPECT_EQ(st.active_arrivals, 3500u);
  EXPECT_EQ(st.lanes_executed, kGrid);
  EXPECT_EQ(st.workgroups_executed, 4u);
}

// Lane 0 parks and hands off to lane 1, which hands off to lane 2: lane 2
// is entered by a sibling, never by the scheduler, and its mismatched
// operation throws there. The exception must reach launch(), and the
// abandoned lanes must not poison the next launch on the same device.
TEST(Device, ThrowAfterHandoffPropagatesAndDeviceStaysUsable) {
  Device dev(smallConfig(4, 4));
  EXPECT_THROW(dev.launch({4, 4},
                          [&](WorkItem& wi) {
                            if (wi.localId() == 2)
                              wi.wgReduceMax(1);
                            else
                              wi.wgReduceSum(1);
                          }),
               Error);

  std::atomic<std::uint64_t> writeIdx{0};
  std::vector<std::uint64_t> slot(8, 0);
  dev.launch({8, 4}, [&](WorkItem& wi) {
    const std::uint64_t lid = wi.localId();
    const std::uint64_t max = wi.wgReduceMax(lid);
    const std::uint64_t myOff = wi.wgPrefixSum(1);
    std::uint64_t qOff = 0;
    if (lid == max) qOff = writeIdx.fetch_add(myOff + 1);
    const std::uint64_t base = wi.wgReduceSum(qOff);
    slot[base + myOff] = wi.globalId() + 1;
  });
  EXPECT_EQ(writeIdx.load(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(slot[i], i + 1);
}

// Property sweep: Figure 5b reservation must produce a dense permutation of
// offsets for any mix of active lanes, any wavefront width, any group size.
struct ReserveParam {
  std::uint32_t wf;
  std::uint32_t wg;
  std::uint32_t activeMod;  // lane active iff localId % activeMod == 0
};

class DivergedReserve : public ::testing::TestWithParam<ReserveParam> {};

TEST_P(DivergedReserve, ActiveLanesGetDenseOffsets) {
  const auto p = GetParam();
  DeviceConfig cfg;
  cfg.wavefront_width = p.wf;
  cfg.max_wg_size = p.wg;
  Device dev(cfg);
  std::atomic<std::uint64_t> idx{0};
  std::vector<std::uint64_t> taken(p.wg, ~0ull);
  dev.launch({p.wg, p.wg}, [&](WorkItem& wi) {
    const bool active = wi.localId() % p.activeMod == 0;
    const std::uint64_t lid = wi.localId();
    const std::uint64_t leader = wi.wgReduceMax(lid, active);
    const std::uint64_t myOff = wi.wgPrefixSum(active ? 1 : 0, active);
    const std::uint64_t total = wi.wgReduceSum(active ? 1 : 0, active);
    std::uint64_t qOff = 0;
    if (active && lid == leader) qOff = idx.fetch_add(total);
    const std::uint64_t base = wi.wgReduceSum(qOff);
    if (active) taken[base + myOff] = lid;
  });
  const std::uint64_t expected = (p.wg + p.activeMod - 1) / p.activeMod;
  EXPECT_EQ(idx.load(), expected);
  for (std::uint64_t i = 0; i < expected; ++i) {
    EXPECT_NE(taken[i], ~0ull) << "offset " << i << " unused";
    EXPECT_EQ(taken[i] % p.activeMod, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DivergedReserve,
    ::testing::Values(ReserveParam{4, 16, 1}, ReserveParam{4, 16, 2},
                      ReserveParam{4, 16, 5}, ReserveParam{8, 64, 3},
                      ReserveParam{8, 64, 7}, ReserveParam{16, 64, 1},
                      ReserveParam{64, 256, 9}, ReserveParam{64, 256, 64}));

}  // namespace
}  // namespace gravel::simt
