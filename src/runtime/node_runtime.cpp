#include "runtime/node_runtime.hpp"

#include "simt/collective.hpp"

namespace gravel::rt {

void NodeRuntime::enqueueGroup(simt::WorkItem& wi, const NetMessage& m,
                               bool active, simt::FBar* fb) {
  using simt::CollectiveOp;
  auto& wg = wi.group();
  const std::uint32_t lane = wi.localId();

  // Leader = the active lane with the largest local id; its exclusive
  // prefix-sum value is therefore total-1, so it knows the group's message
  // count without an extra reduction (Figure 5b).
  const std::uint64_t leader = wg.collective(
      lane, CollectiveOp::kReduceMax, lane, active, fb);
  const std::uint64_t myOff = wg.collective(
      lane, CollectiveOp::kPrefixSumExclusive, active ? 1 : 0, active, fb);
  const bool isLeader = active && lane == leader;

  // Observability: sample this lane's message and stamp the trace ID into
  // the command word before the payload is written — from here the ID rides
  // the wire format through every downstream stage for free. The flight
  // recorder gets one summary per reserved slot from the leader below.
  NetMessage traced = m;
  if (active && tracer_.enabled()) {
    const std::uint32_t traceId = tracer_.maybeSample();
    if (traceId != 0) {
      traced.setTraceId(traceId);
      tracer_.recordStage(obs::Stage::kEnqueue, traceId, std::uint16_t(id_),
                          std::uint16_t(m.dest), m.addr,
                          std::uint8_t(m.command()));
    }
  }

  GravelQueue::SlotRef ref{};
  std::uint64_t packed = 0;
  std::uint32_t count = 0;
  if (isLeader) {
    count = static_cast<std::uint32_t>(myOff + 1);
    // The fetch-add on WriteIdx lives inside acquireWrite; yielding the lane
    // while the ring is full lets sibling groups and the aggregator run.
    ref = queue_.acquireWrite(count, &simt::Device::yieldLane);
    packed = packRef(ref);
    tracer_.recordBatch(obs::Stage::kEnqueue, std::uint16_t(id_), 0, count,
                        std::uint8_t(m.command()));
  }
  // Broadcast the slot handle (reduce-to-sum with non-leaders submitting 0,
  // exactly how Figure 5b broadcasts Qoff). When no lane is active there is
  // no leader, nothing was reserved, and the group falls through.
  packed = wg.collective(lane, CollectiveOp::kReduceSum, packed, true, fb);

  if (active) {
    const auto slot = unpackRef(packed, /*count=*/0);
    queue_.wordAt(slot, 0, static_cast<std::uint32_t>(myOff)) = traced.cmd;
    queue_.wordAt(slot, 1, static_cast<std::uint32_t>(myOff)) = traced.dest;
    queue_.wordAt(slot, 2, static_cast<std::uint32_t>(myOff)) = traced.addr;
    queue_.wordAt(slot, 3, static_cast<std::uint32_t>(myOff)) = traced.value;
  }
  // Every lane's column must be in place before the leader publishes.
  wg.collective(lane, CollectiveOp::kBarrier, 0, true, fb);
  if (isLeader) {
    ref.count = count;
    queue_.publish(ref);
  }
}

}  // namespace gravel::rt
