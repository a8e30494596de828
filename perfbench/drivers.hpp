// Isolated layer drivers: each calls one layer's public functions alone, on
// the workload's own message stream, at that layer's own maximum rate. The
// slowest of them (scaled to the cluster) names the layer that caps the
// composed pipeline.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "queue/gravel_queue.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/network_thread.hpp"
#include "runtime/node_runtime.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Timed work per driver.
constexpr double kDriverSeconds = 0.3;

inline double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A driver's measured rate plus the work it checked.
struct Rate {
  double per_s = 0;
  std::uint64_t items = 0;
  bool ok = true;
};

/// The first `count` messages node `src` sends for input set 0.
inline std::vector<rt::NetMessage> streamOf(const Inputs& in,
                                            std::uint32_t src,
                                            std::uint64_t count) {
  std::vector<rt::NetMessage> out;
  out.reserve(count);
  for (std::uint64_t g = 0; g < count; ++g)
    out.push_back(messageOf(in, src, 0, g % kGridPerNode));
  return out;
}

/// simt: the workload kernel on one NodeRuntime; a bench thread drains its
/// queue with tryAcquireRead/release. Rate = messages / kernel time.
inline Rate simtProduce(const Inputs& in) {
  rt::ClusterConfig cfg = makeConfig(in.kind, false);
  cfg.heap_bytes = 1_MiB;  // the kernel never touches the heap itself
  net::PerfectFabric fabric(kNodes);
  rt::AmRegistry registry;
  obs::Tracer tracer(cfg.obs);
  rt::NodeRuntime node(0, cfg, fabric, registry, tracer);
  GravelQueue& q = node.queue();
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> produced{0};
  std::uint64_t drained = 0;
  std::thread drain([&] {
    GravelQueue::SlotRef ref;
    for (;;) {
      if (q.tryAcquireRead(ref)) {
        drained += ref.count;
        q.release(ref);
      } else if (done.load(std::memory_order_acquire) &&
                 drained >= produced.load(std::memory_order_relaxed)) {
        return;
      } else {
        std::this_thread::yield();
      }
    }
  });
  double kernelS = 0;
  std::uint64_t msgs = 0;
  for (std::uint32_t k = 0; kernelS < kDriverSeconds; ++k) {
    const std::uint32_t set = k % kInputSets;
    const auto t0 = std::chrono::steady_clock::now();
    node.device().launch({in.gridPerNode, kWgSize}, [&](simt::WorkItem& wi) {
      runItem(in, node, wi, set);
    });
    kernelS += secondsSince(t0);
    msgs += in.gridPerNode;
  }
  produced.store(msgs, std::memory_order_relaxed);
  done.store(true, std::memory_order_release);
  drain.join();
  return {double(msgs) / kernelS, msgs, drained == msgs};
}

inline void putMessage(GravelQueue& q, const GravelQueue::SlotRef& ref,
                       std::uint32_t lane, const rt::NetMessage& m) {
  q.putWord(ref, 0, lane, m.cmd);
  q.putWord(ref, 1, lane, m.dest);
  q.putWord(ref, 2, lane, m.addr);
  q.putWord(ref, 3, lane, m.value);
}

/// queue: acquireWrite/putWord/publish against tryAcquireRead/copySlot/
/// release, one thread per side, 256 lanes x 32 B per slot.
inline Rate queueDrive(const Inputs& in) {
  const std::vector<rt::NetMessage> stream =
      streamOf(in, 0, kGridPerNode);
  GravelQueue q(GravelQueueConfig{1_MiB, kWgSize, rt::NetMessage::kRows});
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> produced{0};
  std::uint64_t consumed = 0, destSum = 0, wantDestSum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&] {
    std::uint64_t i = 0, sum = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const GravelQueue::SlotRef ref = q.acquireWrite(kWgSize);
      for (std::uint32_t lane = 0; lane < kWgSize; ++lane) {
        const rt::NetMessage& m = stream[(i + lane) % stream.size()];
        putMessage(q, ref, lane, m);
        sum += m.dest;
      }
      q.publish(ref);
      i += kWgSize;
    }
    wantDestSum = sum;
    produced.store(i, std::memory_order_release);
  });
  std::thread consumer([&] {
    std::vector<rt::NetMessage> buf(kWgSize);
    GravelQueue::SlotRef ref;
    for (;;) {
      if (q.tryAcquireRead(ref)) {
        q.copySlot(ref, buf.data());
        q.release(ref);
        consumed += ref.count;
        for (std::uint32_t l = 0; l < ref.count; ++l) destSum += buf[l].dest;
      } else if (produced.load(std::memory_order_acquire) != 0 &&
                 consumed >= produced.load(std::memory_order_relaxed)) {
        return;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(kDriverSeconds));
  stop.store(true, std::memory_order_relaxed);
  producer.join();
  consumer.join();
  const double s = secondsSince(t0);
  return {double(consumed) / s, consumed, destSum == wantDestSum};
}

/// Receives everything in `dst`'s inbox; returns messages received.
inline std::uint64_t drainInbox(net::Fabric& f, std::uint32_t dst) {
  std::uint64_t n = 0;
  net::Delivery d;
  while (f.tryReceive(dst, d)) {
    n += d.messages.size();
    f.markResolved(dst, d);
  }
  return n;
}

/// runtime/aggregator: Aggregator::pump over GPU-queue slots pre-filled with
/// the workload's destination mix, flushing into a PerfectFabric that is
/// drained between rounds. Only the pump is timed.
inline Rate aggregatorPump(const Inputs& in) {
  const rt::ClusterConfig cfg = makeConfig(in.kind, false);
  const std::vector<rt::NetMessage> stream =
      streamOf(in, 0, kGridPerNode);
  net::PerfectFabric fabric(kNodes);
  obs::Tracer tracer(cfg.obs);
  GravelQueue q(GravelQueueConfig{cfg.gpu_queue_bytes, kWgSize,
                                  rt::NetMessage::kRows});
  rt::Aggregator agg(0, q, fabric, cfg, tracer);
  rt::SlotRouter::Staging staging = agg.makeStaging();
  const std::uint32_t slots = std::uint32_t(q.slotCount());
  double timed = 0;
  std::uint64_t msgs = 0, received = 0, i = 0;
  while (timed < kDriverSeconds) {
    for (std::uint32_t s = 0; s < slots; ++s) {
      const GravelQueue::SlotRef ref = q.acquireWrite(kWgSize);
      for (std::uint32_t lane = 0; lane < kWgSize; ++lane)
        putMessage(q, ref, lane, stream[(i + lane) % stream.size()]);
      q.publish(ref);
      i += kWgSize;
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t routed = 0;
    while (routed < slots) routed += agg.pump(staging, slots - routed);
    timed += secondsSince(t0);
    msgs += std::uint64_t(slots) * kWgSize;
    for (std::uint32_t d = 0; d < kNodes; ++d)
      received += drainInbox(fabric, d);
  }
  agg.flushAll();
  for (std::uint32_t d = 0; d < kNodes; ++d) received += drainInbox(fabric, d);
  return {double(msgs) / timed, msgs, received == msgs};
}

/// net/fabric and net/reliable: one sender thread (node 0) and one receiver
/// thread (node 1) move `batch`-message batches, at most 32 in flight. Both
/// sides poll() and receive as the network threads do: the sender's inbox
/// carries the reliable layer's ACKs. Rate = batches/s.
inline Rate linkDrive(net::Fabric& f, const std::vector<rt::NetMessage>& tmpl,
                      std::uint64_t batch) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sent{0}, received{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::thread receiver([&] {
    net::Delivery d;
    std::uint64_t got = 0;
    for (;;) {
      f.poll(1);
      if (f.tryReceive(1, d)) {
        f.markResolved(1, d);
        received.store(++got, std::memory_order_release);
      } else if (stop.load(std::memory_order_acquire) &&
                 (f.failure() || (got >= sent.load(std::memory_order_relaxed) &&
                                  f.quiescent()))) {
        return;
      } else {
        std::this_thread::yield();
      }
    }
  });
  net::Delivery none;
  bool senderGotData = false;
  const auto serviceSender = [&] {
    f.poll(0);
    if (f.tryReceive(0, none)) senderGotData = true;
  };
  std::uint64_t n = 0, offset = 0;
  while (secondsSince(t0) < kDriverSeconds) {
    serviceSender();
    if (n - received.load(std::memory_order_acquire) >= 32) {
      std::this_thread::yield();
      continue;
    }
    offset = (offset + batch) % (tmpl.size() - batch + 1);
    f.send(0, 1, std::vector<rt::NetMessage>(tmpl.begin() + offset,
                                             tmpl.begin() + offset + batch));
    sent.store(++n, std::memory_order_relaxed);
  }
  // Keep driving the sender's ACK/retransmit side until everything landed
  // (or the link failed, which the check below reports).
  stop.store(true, std::memory_order_release);
  while (!f.quiescent() && !f.failure()) {
    serviceSender();
    std::this_thread::yield();
  }
  receiver.join();
  const double s = secondsSince(t0);
  return {double(n) / s, n,
          received.load() == n && !f.failure() && !senderGotData};
}

/// Messages bound for node 1 (the link the link drivers exercise).
inline std::vector<rt::NetMessage> linkTemplate(const Inputs& in,
                                                std::uint64_t batch) {
  std::vector<rt::NetMessage> t =
      streamOf(in, 0, std::max<std::uint64_t>(2 * batch, 4096));
  for (rt::NetMessage& m : t) m.dest = 1;
  return t;
}

inline Rate fabricDrive(const Inputs& in, std::uint64_t batch) {
  net::PerfectFabric f(kNodes);
  return linkDrive(f, linkTemplate(in, batch), batch);
}

/// ReliableFabric over the workload's own wire (faulty for gups-lossy).
inline Rate reliableDrive(const Inputs& in, std::uint64_t batch) {
  const rt::ClusterConfig cfg = makeConfig(in.kind, false);
  net::FaultyFabric wire(kNodes, cfg.fault);
  net::ReliableFabric f(wire, cfg.reliability);
  return linkDrive(f, linkTemplate(in, batch), batch);
}

/// runtime/network_thread: NetworkThread::pumpOnce over node 0's inbox
/// pre-filled with the workload's batches (messages bound for node 0, in
/// `batch`-message batches). Only the pumping is timed; messages handlers
/// forward to node 1 are drained between rounds.
inline Rate resolvePump(const Inputs& in, std::uint64_t batch) {
  const rt::ClusterConfig cfg = makeConfig(in.kind, false);
  std::vector<rt::NetMessage> stream;
  for (std::uint32_t src = 0; src < kNodes; ++src)
    for (const rt::NetMessage& m : streamOf(in, src, kGridPerNode))
      if (m.dest == 0) stream.push_back(m);
  net::PerfectFabric fabric(kNodes);
  rt::SymmetricHeap heap(cfg.heap_bytes);
  rt::AmRegistry registry;
  auto sinks = std::make_unique<Sinks>(false);
  if (isAm(in.kind)) registry.add(makeHandler(in.kind, *sinks));
  obs::Tracer tracer(cfg.obs);
  rt::NetworkThread nt(0, fabric, heap, registry, tracer);
  double timed = 0;
  std::uint64_t msgs = 0;
  while (timed < kDriverSeconds) {
    for (std::size_t i = 0; i < stream.size(); i += batch) {
      const std::size_t end = std::min(stream.size(), i + batch);
      fabric.send(1, 0, std::vector<rt::NetMessage>(stream.begin() + i,
                                                    stream.begin() + end));
    }
    const auto t0 = std::chrono::steady_clock::now();
    while (nt.pumpOnce()) {
    }
    timed += secondsSince(t0);
    msgs += stream.size();
    drainInbox(fabric, 1);
  }
  return {double(msgs) / timed, msgs, nt.messagesResolved() == msgs};
}

}  // namespace perfbench
