// Always-on flight recorder: a lock-free per-thread ring of the last N
// trace events, independent of sampling. Where the sampled TraceBuffers
// answer "what is the statistical shape of this run", the flight recorder
// answers "what were the last things each thread did" — the question a
// post-mortem (quiet-deadline expiry, LinkFailureError, watchdog stall)
// actually asks. Bounded memory by construction: capacity * 32 bytes per
// recording thread, oldest events overwritten in place.
//
// Ring protocol (DESIGN.md §10): each ring has exactly one writer (its
// owning thread). record() is a relaxed load of the head, a release fence,
// four relaxed 8-byte slot stores and a release store of head+1 — no RMW,
// no lock, no branch on occupancy. Dumpers acquire the head, copy the last
// min(head, capacity) slots with relaxed loads, then (after an acquire
// fence) re-read the head and drop every slot the writer could have
// overwritten during the copy, seqlock-style: a slot whose copy saw any
// word of a later record is caught by the re-read, so every returned event
// is intact. Thread registration is a CAS push onto an intrusive
// singly-linked list — the recorder never takes a mutex, so it is safe to
// mark this whole file hot-path.
//
// gravel-lint: hot-path
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/atomic.hpp"
#include "obs/json.hpp"
#include "obs/stage.hpp"

namespace gravel::obs {

/// Single-writer overwriting event ring. Capacity is rounded up to a power
/// of two so the head wraps with a mask, never a division.
class FlightRing {
 public:
  explicit FlightRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
  }

  /// Owner-thread only: overwrite the oldest slot, publish the new head.
  void record(const TraceEvent& e) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    std::uint64_t words[kWords];
    std::memcpy(words, &e, sizeof e);
    // Orders the publication of head == h before this slot's stores: a
    // reader whose copy sees any of them re-reads a head of at least h.
    // pairs-with: flightrec.slot
    std::atomic_thread_fence(std::memory_order_release);
    Slot& s = slots_[h & mask_];
    for (int i = 0; i < kWords; ++i)
      s.words[i].store(words[i], std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);  // pairs-with: flightrec.head
  }

  /// Events ever recorded (not clamped to capacity).
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);  // pairs-with: flightrec.head
  }

  std::size_t capacity() const noexcept { return std::size_t(mask_) + 1; }

  /// Copies the retained window, oldest first. Safe concurrent with the
  /// writer: slots below the acquired head are published, and any slot
  /// the writer may have lapped during the copy is dropped (see the file
  /// comment), so a snapshot taken while the writer runs returns fewer —
  /// never torn — events.
  // gravel-analyze: cold — quiescent/dump-time reader, not a record site.
  std::vector<TraceEvent> snapshot() const {
    const std::uint64_t cap = mask_ + 1;
    // pairs-with: flightrec.head
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t from = h > cap ? h - cap : 0;
    std::vector<TraceEvent> out(std::size_t(h - from));
    for (std::uint64_t i = from; i < h; ++i) {
      std::uint64_t words[kWords];
      const Slot& s = slots_[i & mask_];
      for (int w = 0; w < kWords; ++w)
        words[w] = s.words[w].load(std::memory_order_relaxed);
      std::memcpy(&out[std::size_t(i - from)], words, sizeof words);
    }
    // pairs-with: flightrec.slot
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t h2 = head_.load(std::memory_order_relaxed);
    // The writer of record h2 may be mid-store into index h2 - cap's slot,
    // and every record in [h, h2) has already overwritten its slot: keep
    // only indices above h2 - cap.
    const std::uint64_t keep = h2 >= cap ? h2 - cap + 1 : 0;
    if (keep > from) {
      const std::uint64_t lapped =
          std::min<std::uint64_t>(keep - from, out.size());
      out.erase(out.begin(), out.begin() + std::ptrdiff_t(lapped));
    }
    return out;
  }

 private:
  static constexpr int kWords = sizeof(TraceEvent) / sizeof(std::uint64_t);
  /// One event as four relaxed atomic words: a lapping reader may copy a
  /// mix of two records, which the head re-read then discards.
  struct Slot {
    atomic<std::uint64_t> words[kWords];
  };

  std::uint64_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  atomic<std::uint64_t> head_{0};
};

/// The per-cluster flight-record sink: one FlightRing per recording thread,
/// registered lock-free on first record. Zero capacity disables recording
/// entirely (record sites guard on enabled()).
class FlightRecorder {
 public:
  /// One thread's ring plus its track name. `default_name` is immutable
  /// after the node is CAS-published; a later nameThread() writes
  /// `custom_name` once and release-publishes `named` (first name wins), so
  /// dumpers never read a string mid-mutation.
  struct ThreadRing {
    explicit ThreadRing(std::size_t cap) : ring(cap) {}
    FlightRing ring;
    std::string default_name;
    std::string custom_name;
    atomic<bool> named{false};
    ThreadRing* next = nullptr;  ///< immutable after publication

    const std::string& name() const noexcept {
      // pairs-with: flightrec.named
      return named.load(std::memory_order_acquire) ? custom_name
                                                   : default_name;
    }
  };

  explicit FlightRecorder(std::size_t eventsPerThread)
      : capacity_(eventsPerThread), gen_(nextGeneration()) {}

  ~FlightRecorder() {
    ThreadRing* t = headPtr();
    while (t != nullptr) {
      ThreadRing* next = t->next;
      delete t;
      t = next;
    }
  }

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const noexcept { return capacity_ != 0; }

  /// ~2 relaxed/release atomic ops after the calling thread's first record
  /// (which registers its ring via one CAS push).
  void record(const TraceEvent& e) { threadRing().ring.record(e); }

  /// Names the calling thread's ring. First name wins; renames are ignored
  /// so a dumper can never observe a string being rewritten.
  // gravel-analyze: cold — once-per-thread registration.
  void nameThread(const std::string& name) {
    if (!enabled()) return;
    ThreadRing& t = threadRing();
    if (t.named.load(std::memory_order_relaxed)) return;
    t.custom_name = name;
    t.named.store(true, std::memory_order_release);  // pairs-with: flightrec.named
  }

  /// All rings registered so far, registration order not guaranteed. Safe
  /// concurrent with writers (FlightRing::snapshot drops lapped slots).
  // gravel-analyze: cold — dump-time walker.
  std::vector<const ThreadRing*> threads() const {
    std::vector<const ThreadRing*> out;
    for (const ThreadRing* t = headPtr(); t != nullptr; t = t->next)
      out.push_back(t);
    return out;
  }

 private:
  static std::uint64_t nextGeneration() noexcept {
    static atomic<std::uint64_t> gen{1};
    return gen.fetch_add(1, std::memory_order_relaxed);
  }

  // gravel-analyze: cold — once-per-thread slow path; record() amortizes
  // the one allocation + CAS over every later event.
  ThreadRing& threadRing() {
    // Generation (not pointer) keyed, like Tracer::threadBuffer: a new
    // recorder at a recycled address must not inherit a stale ring.
    thread_local std::uint64_t tlsGen = 0;
    thread_local ThreadRing* tlsRing = nullptr;
    if (tlsGen != gen_) {
      ThreadRing* t = new ThreadRing(capacity_);
      t->default_name =
          "thread-" +
          std::to_string(count_.fetch_add(1, std::memory_order_relaxed) + 1);
      std::uintptr_t expected = head_.load(std::memory_order_relaxed);
      do {
        t->next = reinterpret_cast<ThreadRing*>(expected);
      } while (!head_.compare_exchange_weak(
          expected, reinterpret_cast<std::uintptr_t>(t),
          // pairs-with: flightrec.registry
          std::memory_order_release, std::memory_order_relaxed));
      tlsRing = t;
      tlsGen = gen_;
    }
    return *tlsRing;
  }

  ThreadRing* headPtr() const noexcept {
    // pairs-with: flightrec.registry
    return reinterpret_cast<ThreadRing*>(head_.load(std::memory_order_acquire));
  }

  std::size_t capacity_;
  std::uint64_t gen_;
  // The intrusive list head, stored as uintptr_t: gravel::atomic's verify
  // shim arbitrates integral words only, and the flight recorder must stay
  // checkable under GRAVEL_VERIFY=1 like every other lock-free structure.
  atomic<std::uintptr_t> head_{0};
  atomic<std::uint64_t> count_{0};
};

/// Serializes the recorder as gravel_flightrec.json:
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
// gravel-analyze: cold
inline void writeFlightRecorderJson(
    std::ostream& os, const FlightRecorder& rec, const std::string& reason,
    std::uint64_t now_ns,
    const std::function<void(JsonWriter&)>& extra = nullptr) {
  JsonWriter w(os);
  w.beginObject();
  w.kv("reason", reason);
  w.kv("now_ns", now_ns);
  if (extra) extra(w);
  w.key("threads").beginArray();
  for (const FlightRecorder::ThreadRing* t : rec.threads()) {
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
