// The benchmark's four workloads: cluster shape, seeded inputs, kernels,
// active-message handlers and the result validators.
//
// Every workload runs the paper's Table-3 shape on 2 simulated nodes
// (256-lane work-groups, 1 MiB GPU queue, 64 KiB per-node queues) in a
// closed loop: a launch's messages are produced as fast as the SIMT engine
// runs, and the next launch starts only after quiet() returns.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "runtime/cluster.hpp"
#include "runtime/node_runtime.hpp"

namespace perfbench {

using namespace gravel;

constexpr std::uint32_t kNodes = 2;
constexpr std::uint32_t kWgSize = 256;
constexpr std::uint64_t kGridPerNode = 64 * 1024;
/// Launch inputs are pre-generated for this many launches and cycled, so a
/// run of any length replays the same seeded inputs.
constexpr std::uint32_t kInputSets = 8;
constexpr std::uint64_t kGupsWords = std::uint64_t(1) << 16;
/// am-hot: the destination-side hash table (about 60 MiB of heap).
constexpr std::uint64_t kAmTableWords = 60ull * 1024 * 1024 / 8;
constexpr std::uint32_t kAmProbes = 4;
constexpr std::uint32_t kChainsPerNode = 4;
constexpr std::uint32_t kChains = kChainsPerNode * kNodes;
constexpr std::uint64_t kChainHops = 50000;
/// Handlers record one latency sample per this many messages they handle.
constexpr std::uint64_t kLatEvery = 64;
/// Preallocated latency samples per node (8 MiB each); later samples are
/// counted as dropped instead of allocating inside a handler.
constexpr std::size_t kLatCapacity = std::size_t(1) << 21;
/// Every workload registers exactly one handler, so its id is 0.
constexpr std::uint32_t kHandler = 0;
/// The workload's table is its first symmetric allocation, at offset 0.
constexpr rt::SymAddr<std::uint64_t> kTable{};

enum class Kind { kGups, kAmHot, kAmChain, kGupsLossy };

struct Spec {
  const char* name;
  Kind kind;
};

inline const Spec kSpecs[] = {
    {"gups", Kind::kGups},
    {"am-hot", Kind::kAmHot},
    {"am-chain", Kind::kAmChain},
    {"gups-lossy", Kind::kGupsLossy},
};

inline bool isAm(Kind k) { return k == Kind::kAmHot || k == Kind::kAmChain; }
inline bool isPool(Kind k) { return k != Kind::kGupsLossy; }

inline std::uint64_t nowNs() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

inline std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Word of probe `p` for key `key` in the am-hot table.
inline std::uint64_t probeSlot(std::uint64_t key, std::uint32_t p) {
  return mix64(key + 0x9e3779b97f4a7c15ULL * (p + 1)) % kAmTableWords;
}

/// The runtime configuration of a workload. `traced` turns on the sampled
/// tracer and the profiler; the end-to-end run keeps both off.
inline rt::ClusterConfig makeConfig(Kind kind, bool traced) {
  rt::ClusterConfig c;
  c.nodes = kNodes;
  c.heap_bytes = kind == Kind::kAmHot ? 64_MiB : 1_MiB;
  c.gpu_queue_bytes = 1_MiB;
  c.pernode_queue_bytes = 64_KiB;
  c.device.max_wg_size = kWgSize;
  c.aggregator_threads = 1;
  // Pool workloads: 2 GPU threads + 2 pool threads on a 4-core host. The
  // pool cannot drive reliability, so gups-lossy runs dedicated threads.
  c.runtime_threads = isPool(kind) ? 2 : 0;
  c.quiet_deadline = std::chrono::milliseconds(60000);
  if (kind == Kind::kGupsLossy) {
    c.fault.seed = 0x5eed;
    c.fault.drop_prob = 0.01;
    c.fault.dup_prob = 0.01;
    c.reliability.enabled = true;
  }
  if (traced) {
    c.obs.enabled = true;
    c.obs.buffer_events = std::size_t(1) << 18;
    c.profiler.enabled = true;
  }
  return c;
}

/// Seeded launch inputs; the program sees only these.
struct Inputs {
  Kind kind = Kind::kGups;
  std::uint64_t gridPerNode = 0;
  /// gups: per node, kInputSets x grid targets packed as dest << 16 | word.
  std::vector<std::uint32_t> gups[kNodes];
  /// am-hot: per node, kInputSets x grid keys and destinations.
  std::vector<std::uint64_t> keys[kNodes];
  std::vector<std::uint8_t> dests[kNodes];

  std::size_t index(std::uint32_t set, std::uint64_t gid) const {
    return std::size_t(set) * gridPerNode + gid;
  }
};

inline Inputs makeInputs(Kind kind, std::uint64_t seed) {
  Inputs in;
  in.kind = kind;
  in.gridPerNode = kind == Kind::kAmChain ? kChainsPerNode : kGridPerNode;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    Xoshiro256 rng(mix64(seed * kNodes + n + 1));
    const std::size_t total = std::size_t(kInputSets) * in.gridPerNode;
    if (kind == Kind::kGups || kind == Kind::kGupsLossy) {
      in.gups[n].resize(total);
      for (auto& t : in.gups[n])
        t = std::uint32_t(rng.below(kNodes) << 16 | rng.below(kGupsWords));
    } else if (kind == Kind::kAmHot) {
      in.keys[n].resize(total);
      in.dests[n].resize(total);
      for (std::size_t i = 0; i < total; ++i) {
        in.keys[n][i] = rng.next();
        // 7/8 of the traffic goes to node 0: one hot resolver and inbox.
        in.dests[n][i] = rng.below(8) == 7 ? 1 : 0;
      }
    }
  }
  return in;
}

/// Per-node handler-side records. Only the thread resolving node n writes
/// node[n] (the pool thread or network thread that owns it), so counters
/// are bumped with relaxed load/store pairs: no lock, no RMW, no allocation.
struct NodeSink {
  std::atomic<std::uint64_t> handled{0};
  std::atomic<std::uint64_t> latCount{0};
  std::atomic<std::uint64_t> latDropped{0};
  std::atomic<std::uint64_t> spanCount{0};
  std::vector<std::uint32_t> latNs;
  std::vector<std::uint32_t> spanNs;
};

struct Sinks {
  explicit Sinks(bool handlerSpans) : spans(handlerSpans) {
    for (NodeSink& n : node) {
      n.latNs.assign(kLatCapacity, 0);
      if (spans) n.spanNs.assign(kLatCapacity, 0);
    }
  }
  bool spans;
  NodeSink node[kNodes];
  std::atomic<std::uint64_t> chainHops[kChains] = {};
  std::atomic<std::uint64_t> chainDone[kChains] = {};
};

inline std::uint64_t bump(std::atomic<std::uint64_t>& c) {
  const std::uint64_t v = c.load(std::memory_order_relaxed);
  c.store(v + 1, std::memory_order_relaxed);
  return v;
}

inline void record(std::vector<std::uint32_t>& arr,
                   std::atomic<std::uint64_t>& count,
                   std::atomic<std::uint64_t>* dropped, std::uint64_t ns) {
  const std::uint64_t i = count.load(std::memory_order_relaxed);
  if (i >= arr.size()) {
    if (dropped != nullptr) bump(*dropped);
    return;
  }
  arr[i] = std::uint32_t(std::min<std::uint64_t>(ns, UINT32_MAX));
  // Release: the main thread reads arr[0, count) after the run.
  count.store(i + 1, std::memory_order_release);
}

/// Stamp bookkeeping shared by both AM handlers: every message bumps the
/// node's count; one in kLatEvery records now - stamp. Returns the sample
/// time (0 when this message is not sampled) for the optional handler span.
inline std::uint64_t onAm(NodeSink& n, std::uint64_t stampNs) {
  if (bump(n.handled) % kLatEvery != 0) return 0;
  const std::uint64_t t = nowNs();
  record(n.latNs, n.latCount, &n.latDropped, t > stampNs ? t - stampNs : 0);
  return t;
}

inline void endSpan(const Sinks& s, NodeSink& n, std::uint64_t t0) {
  if (s.spans && t0 != 0) record(n.spanNs, n.spanCount, nullptr, nowNs() - t0);
}

/// The workload's single AM handler (none for the increment workloads).
inline rt::AmHandler makeHandler(Kind kind, Sinks& sinks) {
  if (kind == Kind::kAmHot)
    // k-mer-insert shape: a 4-probe hashed read-modify-write.
    return [&sinks](rt::AmContext& ctx, std::uint64_t key,
                    std::uint64_t stamp) {
      NodeSink& n = sinks.node[ctx.self()];
      const std::uint64_t t0 = onAm(n, stamp);
      rt::SymmetricHeap& heap = ctx.heap();
      for (std::uint32_t p = 0; p < kAmProbes; ++p) {
        const std::uint64_t at = kTable.at(probeSlot(key, p));
        heap.storeU64(at, heap.loadU64(at) + 1);
      }
      endSpan(sinks, n, t0);
    };
  // am-chain: arg0 = chain | hop << 16. Each hop forwards the next one to
  // the other node until the chain has made kChainHops hops.
  return [&sinks](rt::AmContext& ctx, std::uint64_t arg, std::uint64_t stamp) {
    NodeSink& n = sinks.node[ctx.self()];
    const std::uint64_t t0 = onAm(n, stamp);
    const std::uint64_t chain = arg & 0xffff;
    const std::uint64_t hop = arg >> 16;
    bump(sinks.chainHops[chain]);
    if (hop + 1 < kChainHops)
      ctx.sendAm(kNodes - 1 - ctx.self(), kHandler, chain | (hop + 1) << 16,
                 nowNs());
    else
      bump(sinks.chainDone[chain]);
    endSpan(sinks, n, t0);
  };
}

/// One work-item of launch input set `set` on `node`.
inline void runItem(const Inputs& in, rt::NodeRuntime& node,
                    simt::WorkItem& wi, std::uint32_t set) {
  const std::uint32_t n = node.id();
  const std::uint64_t gid = wi.globalId();
  switch (in.kind) {
    case Kind::kGups:
    case Kind::kGupsLossy: {
      const std::uint32_t t = in.gups[n][in.index(set, gid)];
      node.shmemInc(wi, t >> 16, kTable.at(t & 0xffff));
      break;
    }
    case Kind::kAmHot: {
      const std::size_t i = in.index(set, gid);
      node.shmemAm(wi, in.dests[n][i], kHandler, in.keys[n][i], nowNs());
      break;
    }
    case Kind::kAmChain:
      node.shmemAm(wi, kNodes - 1 - n, kHandler, n * kChainsPerNode + gid,
                   nowNs());
      break;
  }
}

/// The message node `src` sends for work-item `gid` of input set `set`, as
/// it appears on the wire (isolated layer drivers replay these).
inline rt::NetMessage messageOf(const Inputs& in, std::uint32_t src,
                                std::uint32_t set, std::uint64_t gid) {
  switch (in.kind) {
    case Kind::kGups:
    case Kind::kGupsLossy: {
      const std::uint32_t t = in.gups[src][in.index(set, gid)];
      return rt::NetMessage::atomicInc(t >> 16, kTable.at(t & 0xffff));
    }
    case Kind::kAmHot: {
      const std::size_t i = in.index(set, gid);
      return rt::NetMessage::activeMessage(in.dests[src][i], kHandler,
                                           in.keys[src][i], 0);
    }
    case Kind::kAmChain:
      break;
  }
  // A mid-chain hop: chain gid % kChains at hop 1 + gid / kChains.
  return rt::NetMessage::activeMessage(
      kNodes - 1 - src, kHandler,
      (gid % kChains) | (1 + gid / kChains % (kChainHops - 2)) << 16, 0);
}

/// Messages each launch produces cluster-wide (a chain hop is a message).
inline std::uint64_t messagesPerLaunch(const Inputs& in) {
  return in.kind == Kind::kAmChain ? kChains * kChainHops
                                   : kNodes * in.gridPerNode;
}

/// Largest share of all messages that one node receives: the share the
/// busiest instance of a receive-side layer carries. Every workload sends
/// evenly from both nodes.
inline double receiveShare(const Inputs& in) {
  if (in.kind != Kind::kAmHot) return 1.0 / kNodes;
  std::uint64_t to[kNodes] = {};
  for (std::uint32_t n = 0; n < kNodes; ++n)
    for (std::uint8_t d : in.dests[n]) ++to[d];
  std::uint64_t total = 0;
  for (std::uint64_t t : to) total += t;
  return double(*std::max_element(to, to + kNodes)) / double(total);
}

/// Outcome of one run's checks. failed counts operations whose effect is
/// missing or duplicated.
struct Check {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void expectEq(const std::string& what, std::uint64_t got,
                std::uint64_t want) {
    if (got == want) return;
    const std::uint64_t diff = got > want ? got - want : want - got;
    failed += diff;
    problems.push_back(what + ": got " + std::to_string(got) + ", expected " +
                       std::to_string(want));
  }
};

/// Checks a run's effects against a serial recount of its inputs. `uses`
/// says how many launches replayed each input set. With `corrupt`, one
/// expected value is off by one, to show the checks fire.
inline Check validate(rt::Cluster& cluster, const Inputs& in,
                      const Sinks& sinks,
                      const std::vector<std::uint64_t>& uses, bool corrupt) {
  Check c;
  std::uint64_t launches = 0;
  for (std::uint64_t u : uses) launches += u;
  const std::uint64_t msgs = launches * messagesPerLaunch(in);
  c.attempted = msgs;

  const rt::ClusterRunStats st = cluster.runStats();
  c.expectEq("net_messages", st.net_messages, msgs);
  c.expectEq("net_resolved vs net_messages", st.net_resolved,
             st.net_messages);
  c.expectEq("dead-lettered ops", st.degraded.dead_lettered, 0);
  c.expectEq("rejected ops", st.degraded.rejected, 0);

  if (in.kind == Kind::kGups || in.kind == Kind::kGupsLossy) {
    std::vector<std::uint64_t> want(kNodes * kGupsWords, 0);
    for (std::uint32_t n = 0; n < kNodes; ++n)
      for (std::uint32_t s = 0; s < kInputSets; ++s)
        if (uses[s] != 0)
          for (std::uint64_t g = 0; g < in.gridPerNode; ++g) {
            const std::uint32_t t = in.gups[n][in.index(s, g)];
            want[(t >> 16) * kGupsWords + (t & 0xffff)] += uses[s];
          }
    if (corrupt) want[0] += 1;
    std::uint64_t bad = 0, diff = 0;
    for (std::uint32_t d = 0; d < kNodes; ++d)
      for (std::uint64_t w = 0; w < kGupsWords; ++w) {
        const std::uint64_t got = cluster.node(d).heap().loadU64(kTable.at(w));
        const std::uint64_t exp = want[d * kGupsWords + w];
        if (got != exp) {
          ++bad;
          diff += got > exp ? got - exp : exp - got;
        }
      }
    if (bad != 0) {
      c.failed += diff;
      c.problems.push_back("GUPS table: " + std::to_string(bad) +
                           " words differ from the serial recount by " +
                           std::to_string(diff) + " increments");
    }
  } else if (in.kind == Kind::kAmHot) {
    std::uint64_t handled[kNodes] = {};
    for (std::uint32_t n = 0; n < kNodes; ++n)
      for (std::uint32_t s = 0; s < kInputSets; ++s)
        if (uses[s] != 0)
          for (std::uint64_t g = 0; g < in.gridPerNode; ++g)
            handled[in.dests[n][in.index(s, g)]] += uses[s];
    if (corrupt) handled[0] += 1;
    for (std::uint32_t d = 0; d < kNodes; ++d)
      c.expectEq("AMs handled on node " + std::to_string(d),
                 sinks.node[d].handled.load(), handled[d]);
    for (std::uint32_t d = 0; d < kNodes; ++d) {
      std::vector<std::uint32_t> want(kAmTableWords, 0);
      for (std::uint32_t n = 0; n < kNodes; ++n)
        for (std::uint32_t s = 0; s < kInputSets; ++s)
          if (uses[s] != 0)
            for (std::uint64_t g = 0; g < in.gridPerNode; ++g) {
              const std::size_t i = in.index(s, g);
              if (in.dests[n][i] != d) continue;
              for (std::uint32_t p = 0; p < kAmProbes; ++p)
                want[probeSlot(in.keys[n][i], p)] += std::uint32_t(uses[s]);
            }
      std::uint64_t bad = 0, diff = 0;
      const rt::SymmetricHeap& heap = cluster.node(d).heap();
      for (std::uint64_t w = 0; w < kAmTableWords; ++w) {
        const std::uint64_t got = heap.loadU64(kTable.at(w));
        if (got != want[w]) {
          ++bad;
          diff += got > want[w] ? got - want[w] : want[w] - got;
        }
      }
      if (bad != 0) {
        c.failed += (diff + kAmProbes - 1) / kAmProbes;
        c.problems.push_back("AM table on node " + std::to_string(d) + ": " +
                             std::to_string(bad) +
                             " words differ from the serial recount");
      }
    }
  } else {
    for (std::uint32_t ch = 0; ch < kChains; ++ch) {
      const std::uint64_t extra = corrupt && ch == 0 ? 1 : 0;
      c.expectEq("hops of chain " + std::to_string(ch),
                 sinks.chainHops[ch].load(), launches * kChainHops + extra);
      c.expectEq("completions of chain " + std::to_string(ch),
                 sinks.chainDone[ch].load(), launches);
    }
  }
  return c;
}

}  // namespace perfbench
