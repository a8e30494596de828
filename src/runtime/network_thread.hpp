// The per-node network thread (paper §6): receives per-node queues from the
// fabric and resolves each message as a local memory operation. The runtime
// pool drives it as one unit per node (DESIGN.md §14), so one thread at a
// time resolves a node's traffic. Routing all atomics — local ones
// included — through this single resolver serializes them,
// which is both the paper's correctness strategy for active messages and the
// reason local/remote atomic throughput is similar (§7.1).
#pragma once

#include <cstdint>

#include "common/atomic.hpp"
#include "net/fabric.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "runtime/active_message.hpp"
#include "runtime/message.hpp"
#include "runtime/park_gate.hpp"
#include "runtime/symmetric_heap.hpp"

namespace gravel::rt {

class NetworkThread {
 public:
  NetworkThread(std::uint32_t self, net::Fabric& fabric, SymmetricHeap& heap,
                const AmRegistry& registry, obs::Tracer& tracer,
                obs::Profiler* profiler = nullptr)
      : self_(self),
        fabric_(fabric),
        heap_(heap),
        registry_(registry),
        tracer_(tracer),
        prof_(profiler),
        // Handler-initiated follow-on messages ship immediately as
        // one-message batches: chained walks are latency-bound, not
        // bandwidth-bound, and shipping before markResolved() keeps the
        // quiet protocol's in-flight count from ever touching zero
        // mid-chain. A member because AmContext holds the SendFn by
        // reference.
        sendFn_([this](std::uint32_t dest, std::uint32_t handler,
                       std::uint64_t a0, std::uint64_t a1) {
          fabric_.send(self_, dest,
                       {NetMessage::activeMessage(dest, handler, a0, a1)});
        }),
        ctx_(heap_, self_, sendFn_) {}

  NetworkThread(const NetworkThread&) = delete;
  NetworkThread& operator=(const NetworkThread&) = delete;

  /// Lets the pool resolve this node's traffic (crash/restart cycling).
  void start() { gate_.unpark(); }

  /// Parks the unit: once stop() returns, no resolve runs for this node
  /// until start(), so its resolution level is final (crashNode relies on
  /// this before excising the node).
  void stop() { gate_.park(); }

  std::uint64_t messagesResolved() const noexcept {
    return resolved_.load(std::memory_order_relaxed);
  }

  /// Whether the unit is live — false before start(), after stop(), and
  /// after crashNode() stopped it. restartNode() uses this to avoid
  /// double-starting a unit the failure detector never parked.
  bool running() const noexcept { return !gate_.parked(); }

  /// The park handshake the pool honours before every pumpOnce().
  ParkGate& gate() noexcept { return gate_; }

  /// One fabric poll plus at most one delivery batch, never blocking.
  /// Returns true when messages were resolved. Single consumer: one
  /// thread at a time per node (the pool's unit ownership).
  bool pumpOnce() {
    {
      // poll() IS the reliable layer's ack/retransmit scan (a no-op on the
      // perfect fabric) — attribute it separately from delivery work.
      obs::ScopedRegion pollRegion(prof_, obs::Region::kRelRetransmit);
      fabric_.poll(self_);
    }
    net::Delivery d;
    if (!fabric_.tryReceive(self_, d)) return false;
    obs::ScopedRegion recvRegion(prof_, obs::Region::kNetRecv);
    // One flight-recorder summary on each side of the delivery loop;
    // per-message deliver/resolve events only for sampled messages.
    const std::uint16_t self = std::uint16_t(self_);
    const std::uint8_t kind =
        d.messages.empty() ? 0 : std::uint8_t(d.messages.front().command());
    tracer_.recordBatch(obs::Stage::kDeliver, self, self, d.messages.size(),
                        kind);
    const bool sampled = tracer_.enabled();
    for (const NetMessage& m : d.messages) {
      const bool traced = sampled && m.traceId() != 0;
      if (traced)
        tracer_.recordStage(obs::Stage::kDeliver, m.traceId(), self, self,
                            m.addr, std::uint8_t(m.command()));
      resolve(ctx_, m);
      if (traced)
        tracer_.recordStage(obs::Stage::kResolve, m.traceId(), self, self,
                            m.addr, std::uint8_t(m.command()));
    }
    tracer_.recordBatch(obs::Stage::kResolve, self, self, d.messages.size(),
                        kind);
    fabric_.markResolved(self_, d);
    resolved_.fetch_add(d.messages.size(), std::memory_order_relaxed);
    return true;
  }

 private:
  void resolve(AmContext& ctx, const NetMessage& m) {
    switch (m.command()) {
      case Command::kPut:
        heap_.storeU64(m.addr, m.value);
        break;
      case Command::kAtomicInc:
        heap_.fetchAddU64(m.addr, 1);
        break;
      case Command::kActiveMessage:
        registry_.run(m.handler(), ctx, m.addr, m.value);
        break;
      case Command::kControl:
        // Reliability framing is stripped inside ReliableFabric; a control
        // message reaching the resolver means a layering bug.
        GRAVEL_CHECK_MSG(false, "control message escaped the fabric layer");
        break;
    }
  }

  std::uint32_t self_;
  net::Fabric& fabric_;
  SymmetricHeap& heap_;
  const AmRegistry& registry_;
  obs::Tracer& tracer_;
  obs::Profiler* prof_;
  /// Declared before ctx_: AmContext stores the SendFn by reference.
  AmContext::SendFn sendFn_;
  AmContext ctx_;
  ParkGate gate_{/*parked=*/true};
  atomic<std::uint64_t> resolved_{0};
};

}  // namespace gravel::rt
