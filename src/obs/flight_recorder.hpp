// Always-on flight recorder ring: a lock-free single-writer ring of the
// last N trace events of one thread, independent of sampling. Where the
// sampled TraceBuffers answer "what is the statistical shape of this run",
// the flight rings answer "what were the last things each thread did" —
// the question a post-mortem (quiet-deadline expiry, LinkFailureError,
// watchdog stall) actually asks. Bounded memory by construction: capacity
// * 32 bytes per recording thread, oldest events overwritten in place.
//
// Ring protocol (DESIGN.md §10): each ring has exactly one writer (its
// owning thread). record() is a relaxed load of the head, a release fence,
// four relaxed 8-byte slot stores and a release store of head+1 — no RMW,
// no lock, no branch on occupancy. Dumpers acquire the head, copy the last
// min(head, capacity) slots with relaxed loads, then (after an acquire
// fence) re-read the head and drop every slot the writer could have
// overwritten during the copy, seqlock-style: a slot whose copy saw any
// word of a later record is caught by the re-read, so every returned event
// is intact. Each thread's ring lives in its Tracer ThreadTrace record
// (trace.hpp), registered through obs/thread_registry.hpp; the dump
// writer, writeFlightRecorderJson, is in trace_export.hpp.
//
// gravel-lint: hot-path
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/atomic.hpp"
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

}  // namespace gravel::obs
