// Park/unpark handshake for a pumped runtime unit (DESIGN.md §14). The
// runtime pool thread that owns a unit brackets every pump of it with
// enter()/leave(); a controller (crashNode, a test wedging an aggregator)
// calls park(), and once park() returns no pump of the unit is running and
// none starts until unpark(). The unit keeps its state; its owner simply
// skips it.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/atomic.hpp"
#include "common/backoff.hpp"

namespace gravel::rt {

class ParkGate {
 public:
  explicit ParkGate(bool parked) : parked_(parked) {}

  ParkGate(const ParkGate&) = delete;
  ParkGate& operator=(const ParkGate&) = delete;

  /// Owner side: true means the unit may be pumped now, and the caller
  /// must leave() afterwards. Dekker-style with park(): both sides write
  /// their own flag before reading the other's, all seq_cst, so either
  /// the owner sees `parked_` or park() sees the owner inside.
  bool enter() noexcept {
    inside_.fetch_add(1, std::memory_order_seq_cst);
    if (!parked_.load(std::memory_order_seq_cst)) return true;
    leave();
    return false;
  }

  void leave() noexcept { inside_.fetch_sub(1, std::memory_order_seq_cst); }

  /// Controller side: blocks until no owner is inside. Everything the
  /// last pump did happens-before park() returns.
  void park() noexcept {
    parked_.store(true, std::memory_order_seq_cst);
    Backoff backoff(std::chrono::microseconds(100));
    while (inside_.load(std::memory_order_seq_cst) != 0) backoff.wait();
  }

  void unpark() noexcept { parked_.store(false, std::memory_order_seq_cst); }

  bool parked() const noexcept {
    return parked_.load(std::memory_order_seq_cst);
  }

 private:
  atomic<bool> parked_;
  atomic<std::uint32_t> inside_{0};
};

}  // namespace gravel::rt
