#include "runtime/node_runtime.hpp"

#include <bit>

namespace gravel::rt {

void NodeRuntime::enqueueGroup(simt::WorkItem& wi, const NetMessage& m,
                               bool active, simt::FBar* fb) {
  // Observability: sample this lane's message and stamp the trace ID into
  // the command word before it is staged — from here the ID rides the wire
  // format through every downstream stage for free. The flight recorder
  // gets one summary per reserved slot in reserve() below.
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
  wi.group().reserve(wi.localId(), std::bit_cast<simt::ReserveWords>(traced),
                     active, *this, fb);
}

void NodeRuntime::reserve(const simt::ReservedGroup& group) {
  // The fetch-add on WriteIdx lives inside acquireWrite; yielding while the
  // ring is full lets sibling groups and the aggregator run.
  const GravelQueue::SlotRef ref =
      queue_.acquireWrite(group.count, &simt::Device::yieldLane);
  // Row by row, as the group's lanes write a row's words coalesced.
  for (std::uint32_t row = 0; row < NetMessage::kRows; ++row)
    group.forEach([&](std::uint32_t column, const simt::ReserveWords& w) {
      queue_.wordAt(ref, row, column) = w[row];
    });
  // One flight-recorder summary per slot, labelled by the leader's (the
  // last column's) command.
  const NetMessage leader{.cmd = queue_.wordAt(ref, 0, group.count - 1)};
  tracer_.recordBatch(obs::Stage::kEnqueue, std::uint16_t(id_), 0,
                      group.count, std::uint8_t(leader.command()));
  queue_.publish(ref);
}

}  // namespace gravel::rt
