// The Tracer's two exporters, both over its per-thread ThreadTrace records:
//
//   - writeChromeTrace: the sampled buffers as Chrome trace-event JSON
//     (https://ui.perfetto.dev opens it directly): one track (tid) per
//     recording thread — aggregator, network, GPU scheduler, sampler —
//     carrying a short "X" slice per recorded message stage, flow events
//     ("s"/"t"/"f") chaining each sampled message's stages across tracks,
//     and "C" counter tracks for the depth gauges;
//   - writeFlightRecorderJson: the flight rings as gravel_flightrec.json.
//
// Both name a thread by its record's name, so a Perfetto track and the
// flight ring of the same thread always agree. Latency statistics over the
// sampled events come from LatencyAttribution (latency.hpp), not from here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace gravel::obs {

namespace detail {

/// Chrome trace timestamps are microseconds (doubles are accepted).
inline double toUs(std::uint64_t ns) { return double(ns) / 1000.0; }

struct FlowPoint {
  std::uint64_t ts_ns;
  int tid;
  Stage stage;
};

}  // namespace detail

/// Writes the whole trace as Chrome trace-event JSON. `process` names the
/// process track ("gravel" by default).
inline void writeChromeTrace(std::ostream& os, const Tracer& tracer,
                             const std::string& process = "gravel") {
  // One track per thread record; without sampling there are no events.
  const std::vector<const ThreadTrace*> tracks =
      tracer.enabled() ? tracer.threads() : std::vector<const ThreadTrace*>{};
  JsonWriter w(os);
  w.beginObject();
  w.kv("displayTimeUnit", "ns");
  w.key("otherData").beginObject();
  w.kv("sample_interval", std::uint64_t(tracer.config().sample_interval));
  w.kv("dropped_events", tracer.droppedEvents());
  w.endObject();
  w.key("traceEvents").beginArray();

  // Process + thread name metadata.
  w.beginObject()
      .kv("name", "process_name")
      .kv("ph", "M")
      .kv("pid", 1)
      .key("args")
      .beginObject()
      .kv("name", process)
      .endObject()
      .endObject();
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    w.beginObject()
        .kv("name", "thread_name")
        .kv("ph", "M")
        .kv("pid", 1)
        .kv("tid", std::uint64_t(t + 1))
        .key("args")
        .beginObject()
        .kv("name", tracks[t]->name())
        .endObject()
        .endObject();
  }

  // Pass 1: slices and counters, gathering flow points per trace ID.
  std::map<std::uint32_t, std::vector<detail::FlowPoint>> flows;
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    const TraceBuffer& b = tracks[t]->sampled;
    const std::size_t n = b.size();
    const int tid = int(t + 1);
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& e = b[i];
      if (e.stage == Stage::kGauge) {
        // Counter track, one per (gauge, node).
        w.beginObject()
            .kv("name", std::string(gaugeName(Gauge(e.id))) + ".node" +
                            std::to_string(e.node))
            .kv("ph", "C")
            .kv("pid", 1)
            .kv("ts", detail::toUs(e.ts_ns))
            .key("args")
            .beginObject()
            .kv("value", e.value)
            .endObject()
            .endObject();
        continue;
      }
      w.beginObject()
          .kv("name", stageName(e.stage))
          .kv("cat", "msg")
          .kv("ph", "X")
          .kv("pid", 1)
          .kv("tid", std::uint64_t(tid))
          .kv("ts", detail::toUs(e.ts_ns))
          .kv("dur", 1.0)
          .key("args")
          .beginObject()
          .kv("trace_id", std::uint64_t(e.id))
          .kv("node", std::uint64_t(e.node))
          .kv("dest", std::uint64_t(e.aux))
          .kv("addr", e.value)
          .endObject()
          .endObject();
      flows[e.id].push_back(detail::FlowPoint{e.ts_ns, tid, e.stage});
    }
  }

  // Pass 2: flow events following each sampled message across tracks.
  // Chrome semantics: "s" starts a flow at a slice, "t" steps through
  // intermediate slices, "f" (bp:"e") binds the arrow head to the enclosing
  // slice. A flow needs >= 2 points to draw anything.
  for (auto& [id, points] : flows) {
    if (points.size() < 2) continue;
    std::stable_sort(points.begin(), points.end(),
                     [](const detail::FlowPoint& a, const detail::FlowPoint& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    for (std::size_t i = 0; i < points.size(); ++i) {
      const char* ph = i == 0 ? "s" : (i + 1 == points.size() ? "f" : "t");
      w.beginObject()
          .kv("name", "message")
          .kv("cat", "flow")
          .kv("ph", ph)
          .kv("id", std::uint64_t(id))
          .kv("pid", 1)
          .kv("tid", std::uint64_t(points[i].tid))
          .kv("ts", detail::toUs(points[i].ts_ns));
      if (ph[0] == 'f') w.kv("bp", "e");
      w.endObject();
    }
  }

  w.endArray().endObject();
}

/// Per-message lifecycle reconstructed from the trace buffers: the first
/// timestamp seen for each stage of each trace ID. (IDs are 16-bit and wrap;
/// within one run at sane sampling intervals collisions are negligible, and
/// the reconstruction keeps the earliest event per stage.)
struct MessageLifecycle {
  std::uint32_t id = 0;
  std::uint64_t ts_ns[kMessageStages] = {};  ///< 0 = stage not observed
  bool complete() const noexcept {
    for (int s = 0; s < kMessageStages; ++s)
      if (ts_ns[s] == 0) return false;
    return true;
  }
};

inline std::vector<MessageLifecycle> reconstructLifecycles(
    const Tracer& tracer) {
  std::map<std::uint32_t, MessageLifecycle> byId;
  for (const TraceBuffer* b : tracer.buffers()) {
    const std::size_t n = b->size();
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& e = (*b)[i];
      if (e.stage == Stage::kGauge || e.id == 0) continue;
      MessageLifecycle& lc = byId[e.id];
      lc.id = e.id;
      std::uint64_t& slot = lc.ts_ns[int(e.stage)];
      if (slot == 0 || e.ts_ns < slot) slot = e.ts_ns;
    }
  }
  std::vector<MessageLifecycle> out;
  out.reserve(byId.size());
  for (auto& [id, lc] : byId) out.push_back(lc);
  return out;
}

/// Serializes the flight rings as gravel_flightrec.json:
///   {"reason": ..., "now_ns": ..., "threads": [{"name", "recorded",
///    "capacity", "overwritten", "events": [{...}, ...]}, ...]}
/// Events carry ts_ns/stage/id/node/dest/value/kind. A message-stage event
/// with id 0 is a flight-only summary of one GPU-queue slot (enqueue,
/// aggregate) or one batch (flush, wire-send, deliver, resolve): `value`
/// is the number of messages it covers, `kind` the first message's
/// command, and `dest` the batch's destination (0 for slot summaries,
/// which span destinations). A nonzero id is one sampled message, with its
/// heap address in `value`. kGauge events carry the gauge id and sample.
/// `extra`, when given, is invoked after the header keys to append
/// caller-owned top-level keys (the Cluster injects its
/// membership/degraded-mode block this way — this layer cannot see runtime
/// types).
inline void writeFlightRecorderJson(
    std::ostream& os, const Tracer& tracer, const std::string& reason,
    std::uint64_t now_ns,
    const std::function<void(JsonWriter&)>& extra = nullptr) {
  JsonWriter w(os);
  w.beginObject();
  w.kv("reason", reason);
  w.kv("now_ns", now_ns);
  if (extra) extra(w);
  w.key("threads").beginArray();
  for (const ThreadTrace* t : tracer.threads()) {
    const std::uint64_t recorded = t->ring.recorded();
    const std::uint64_t cap = t->ring.capacity();
    w.beginObject();
    w.kv("name", t->name());
    w.kv("recorded", recorded);
    w.kv("capacity", cap);
    w.kv("overwritten", recorded > cap ? recorded - cap : 0);
    w.key("events").beginArray();
    for (const TraceEvent& e : t->ring.snapshot()) {
      w.beginObject();
      w.kv("ts_ns", e.ts_ns);
      w.kv("stage", stageName(e.stage));
      w.kv("id", std::uint64_t{e.id});
      w.kv("node", std::uint64_t{e.node});
      w.kv("dest", std::uint64_t{e.aux});
      w.kv("value", e.value);
      w.kv("kind", messageKindName(e.kind));
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.endObject();
}

}  // namespace gravel::obs
