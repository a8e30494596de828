// Message-lifecycle tracing: sampled trace IDs stamped into messages at GPU
// enqueue and followed through aggregator -> per-node queue flush -> wire ->
// network-thread resolution, with per-stage timestamps recorded into
// single-writer per-thread buffers.
//
// Design constraints:
//   - near-zero overhead when disabled: every record site is guarded by one
//     branch on a plain bool; nothing else is touched;
//   - no locks anywhere: each recording thread owns one ThreadTrace record
//     (registered once through the lock-free ThreadRegistry, then written
//     single-writer with release-published counts); readers walk the
//     registry concurrently with writers;
//   - the trace ID travels *in* the message: NetMessage's cmd word has 16
//     free bits (16..31) on every data command, so no wire-format growth and
//     the ID survives aggregation, framing, retransmission and reordering.
//
// One ThreadTrace holds both per-thread sinks:
//   - the flight ring (flight_recorder.hpp), an always-on ring of the last
//     N events, independent of sampling. Unsampled traffic reaches it at
//     slot/batch granularity only: each record site makes one recordBatch()
//     call per GPU-queue slot or per batch (one clock read, id 0, value =
//     messages covered), and runs its per-message recordStage() loop only
//     when sampling is enabled, for stamped messages;
//   - when sampling is enabled, the append-only TraceBuffer that the
//     latency-attribution engine (latency.hpp) consumes incrementally and
//     the Perfetto/Chrome-trace exporter (trace_export.hpp) renders, with
//     depth-gauge samples as counter tracks.
// One record per thread means one TLS lookup per record call and one name
// per thread: nameThread() names the Perfetto track and the flight ring.
//
// gravel-lint: hot-path
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/atomic.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/stage.hpp"
#include "obs/thread_registry.hpp"

namespace gravel::obs {

/// Fixed-capacity single-writer event buffer that keeps the first
/// `capacity` events and counts the rest as dropped (zero capacity holds no
/// storage). The writer publishes with a release store of the count;
/// concurrent readers acquire the count and read only below it, so drains
/// are race-free without locks.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity)
      : capacity_(capacity),
        events_(capacity != 0 ? new TraceEvent[capacity] : nullptr) {}

  void record(const TraceEvent& e) noexcept {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events_[n] = e;
    count_.store(n + 1, std::memory_order_release);  // pairs-with: trace.buffer-count
  }

  std::size_t size() const noexcept {
    return count_.load(std::memory_order_acquire);  // pairs-with: trace.buffer-count
  }
  const TraceEvent& operator[](std::size_t i) const noexcept {
    return events_[i];
  }
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_;
  std::unique_ptr<TraceEvent[]> events_;
  atomic<std::size_t> count_{0};
  atomic<std::uint64_t> dropped_{0};
};

/// Tracing knobs, embedded in ClusterConfig as `config.obs`.
struct TraceConfig {
  /// Master switch for *sampled* tracing. Off means no sampling, no
  /// stamping, no buffer recording. The flight recorder below is
  /// independent of this switch.
  bool enabled = false;

  /// Sample 1 in N candidate messages (per node, deterministic round-robin
  /// over the enqueue count). 1 traces everything. The GRAVEL_TRACE_SAMPLE
  /// environment variable, when set to a positive integer, overrides this
  /// at Tracer construction (see README quickstart).
  std::uint32_t sample_interval = 64;

  /// Events per recording thread; overflow drops (counted, reported by the
  /// exporter) rather than reallocating on the hot path.
  std::size_t buffer_events = 1 << 16;

  /// Queue-depth / occupancy gauge sampling cadence; zero disables the
  /// gauge duty of the monitor thread.
  std::chrono::microseconds gauge_period{0};

  /// Always-on flight recorder: a bounded per-thread ring of the last
  /// `flightrec_events` events — one summary per GPU-queue slot or batch
  /// (id 0, value = message count) plus every sampled message event —
  /// dumped as gravel_flightrec.json on quiet-deadline expiry,
  /// LinkFailureError, or GRAVEL_FLIGHTREC_DUMP=1 exit. Costs one clock
  /// read and a few relaxed stores per record, i.e. per slot or batch, not
  /// per message; set false (or zero events) for overhead-free record
  /// sites.
  bool flightrec = true;
  std::size_t flightrec_events = 2048;
};

/// One recording thread's trace state: its flight ring and its sampled
/// buffer, which has storage only when sampling is enabled. Its name
/// (RegisteredThread) is both the Perfetto track name and the flight-dump
/// thread name.
struct ThreadTrace : RegisteredThread {
  ThreadTrace(std::size_t ringEvents, std::size_t bufferEvents)
      : ring(ringEvents), sampled(bufferEvents) {}

  FlightRing ring;
  TraceBuffer sampled;
};

/// The per-cluster trace sink. A thread's first record registers its
/// ThreadTrace lock-free; every later record is one TLS check plus the
/// ring and/or buffer store. Trace IDs are 16-bit, never 0, assigned
/// round-robin to every sample_interval-th candidate.
class Tracer {
 public:
  explicit Tracer(const TraceConfig& config)
      : config_(config),
        enabled_(config.enabled),
        flight_(config.flightrec && config.flightrec_events != 0),
        ringEvents_(flight_ ? config.flightrec_events : 0),
        bufferEvents_(enabled_ ? config.buffer_events : 0),
        epoch_(std::chrono::steady_clock::now()) {
    if (const char* env = std::getenv("GRAVEL_TRACE_SAMPLE")) {
      // Positive integers override the configured interval; anything else
      // (unset, empty, 0, garbage) leaves the config value in force.
      const unsigned long v = std::strtoul(env, nullptr, 10);
      if (v >= 1 && v <= 0xffffffffUL)
        config_.sample_interval = std::uint32_t(v);
    }
  }

  bool enabled() const noexcept { return enabled_; }

  /// True when the always-on flight ring records.
  bool flightEnabled() const noexcept { return flight_; }

  /// True when any record call can land anywhere: sampled tracing, the
  /// flight recorder, or both.
  bool active() const noexcept { return enabled_ || flight_; }

  const TraceConfig& config() const noexcept { return config_; }

  std::uint64_t nowNs() const noexcept {
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - epoch_)
                             .count());
  }

  /// Sampling decision for one candidate message: 0 = not sampled, else a
  /// fresh nonzero 16-bit trace ID to stamp into the message.
  std::uint32_t maybeSample() noexcept {
    if (!enabled_) return 0;
    const std::uint32_t interval = std::max(1u, config_.sample_interval);
    if (candidates_.fetch_add(1, std::memory_order_relaxed) % interval != 0)
      return 0;
    std::uint32_t id;
    do {
      id = nextId_.fetch_add(1, std::memory_order_relaxed) & 0xffffu;
    } while (id == 0);
    return id;
  }

  /// Records a message-stage event. id 0 is legal and means "not sampled":
  /// the event still reaches the flight ring but never a TraceBuffer.
  /// Record sites call this per message only when enabled(), and only for
  /// stamped messages; unsampled traffic goes through recordBatch().
  void recordStage(Stage stage, std::uint32_t id, std::uint16_t node,
                   std::uint16_t dest, std::uint64_t value = 0,
                   std::uint8_t kind = 0) noexcept {
    record(TraceEvent{0, value, id, node, dest, stage, kind}, id != 0);
  }

  /// Flight-only summary of one GPU-queue slot or one batch: one clock read
  /// and one ring slot with id 0 and value = `count`, the messages it
  /// covers. Never reaches the sampled buffers, so latency attribution and
  /// the Perfetto export are blind to it by construction.
  void recordBatch(Stage stage, std::uint16_t node, std::uint16_t dest,
                   std::uint64_t count, std::uint8_t kind) noexcept {
    if (!flight_) return;
    local().ring.record(TraceEvent{nowNs(), count, 0, node, dest, stage, kind});
  }

  /// Records a gauge sample (renders as a Perfetto counter track; also
  /// lands in the flight ring so post-mortems see recent depth history).
  void recordGauge(Gauge gauge, std::uint16_t node, std::uint64_t value) {
    record(TraceEvent{0, value, std::uint32_t(gauge), node, 0, Stage::kGauge},
           true);
  }

  /// Names the calling thread's record: its Perfetto track and its flight
  /// ring. First name wins.
  // gravel-analyze: cold — once-per-thread naming.
  void nameThread(const std::string& name) {
    if (active()) local().setName(name);
  }

  /// Every thread record registered so far, newest first. Safe concurrent
  /// with recording threads.
  // gravel-analyze: cold — dump-time walker.
  std::vector<const ThreadTrace*> threads() const {
    return threads_.records();
  }

  /// Every sampled buffer created so far (empty unless enabled()). Each
  /// buffer's size() is release-published by its writer.
  // gravel-analyze: cold — quiescent-point reader, not a record site.
  std::vector<const TraceBuffer*> buffers() const {
    std::vector<const TraceBuffer*> out;
    if (enabled_)
      for (const ThreadTrace* t : threads_.records())
        out.push_back(&t->sampled);
    return out;
  }

  /// Every event from every buffer, sorted by timestamp. Convenience for
  /// tests and latency analysis.
  // gravel-analyze: cold — quiescent/dump-time reader, not a record site.
  std::vector<TraceEvent> allEvents() const {
    std::vector<TraceEvent> out;
    for (const TraceBuffer* b : buffers()) {
      const std::size_t n = b->size();
      for (std::size_t i = 0; i < n; ++i) out.push_back((*b)[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.ts_ns < b.ts_ns;
              });
    return out;
  }

  // gravel-analyze: cold — quiescent/dump-time reader, not a record site.
  std::uint64_t droppedEvents() const {
    std::uint64_t d = 0;
    for (const TraceBuffer* b : buffers()) d += b->dropped();
    return d;
  }

  std::uint64_t sampledCandidates() const noexcept {
    return candidates_.load(std::memory_order_relaxed);
  }

 private:
  ThreadTrace& local() { return threads_.local(ringEvents_, bufferEvents_); }

  /// Stamps `e` and stores it in the flight ring when that records, and in
  /// the sampled buffer when sampling is on and `sampled` (a stamped
  /// message or a gauge). One TLS lookup for both.
  void record(TraceEvent e, bool sampled) noexcept {
    const bool toBuffer = enabled_ && sampled;
    if (!flight_ && !toBuffer) return;
    e.ts_ns = nowNs();
    ThreadTrace& t = local();
    if (flight_) t.ring.record(e);
    if (toBuffer) t.sampled.record(e);
  }

  TraceConfig config_;
  bool enabled_;
  bool flight_;
  std::size_t ringEvents_;
  std::size_t bufferEvents_;
  std::chrono::steady_clock::time_point epoch_;

  atomic<std::uint64_t> candidates_{0};
  atomic<std::uint32_t> nextId_{1};

  ThreadRegistry<ThreadTrace> threads_;
};

}  // namespace gravel::obs
