// User-level fibers: each simulated GPU work-item runs on one fiber, so
// work-group collectives can suspend a lane mid-kernel and resume it when all
// participating lanes have arrived (see workgroup.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "common/error.hpp"

namespace gravel::simt {

/// One fiber = one suspendable call stack. Not thread-safe: a fiber is owned
/// and scheduled by exactly one OS thread (the per-device scheduler thread).
///
/// The scheduler enters a fiber with resume(). From there control can pass
/// directly between sibling fibers with switchTo() (one stack switch per
/// transition, no trip through the scheduler); it returns to the scheduler
/// only when a fiber calls yield() or its body finishes, and resume() then
/// reports which fiber that was.
class Fiber {
 public:
  /// `stackBytes` is per-fiber; SIMT kernels are shallow, 64 KiB default.
  /// `id` is the caller's handle for the fiber (the device uses the lane).
  explicit Fiber(std::size_t stackBytes = 64 * 1024, std::uint32_t id = 0);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// (Re)arms the fiber with a new body. Must not be running.
  void reset(std::function<void()> body);

  /// Drops a suspended fiber's continuation so it can be reset(). Whatever
  /// is on its stack is leaked, not unwound; the device uses this to reuse
  /// the lanes of a work-group that an exception aborted.
  void abandon();

  /// Enters the fiber from the scheduler and runs until control comes back:
  /// a fiber yields or finishes, possibly a sibling this one switched to.
  /// Returns that fiber and rethrows any exception its body threw.
  Fiber& resume();

  /// Returns from *inside* the fiber body to the caller of resume().
  void yield();

  /// Switches from inside this fiber straight to `next` (starting it if it
  /// has not started); returns when some fiber switches back to this one.
  void switchTo(Fiber& next);

  bool finished() const noexcept { return finished_; }
  std::uint32_t id() const noexcept { return id_; }

  /// Fiber currently running on this thread, or nullptr when on the
  /// scheduler stack. Lets library spin-waits (queue acquire) yield the
  /// fiber instead of the OS thread.
  static Fiber* current() noexcept;

 private:
  friend void fiberTrampoline(Fiber* f) noexcept;
  void primeStack();
  void* enter(void** saveSp);

  std::unique_ptr<std::byte[]> stack_;
  std::size_t stackBytes_;
  void* fiberSp_ = nullptr;  // saved SP when suspended
  std::function<void()> body_;
  std::exception_ptr pending_;
  std::uint32_t id_;
  bool started_ = false;
  bool finished_ = true;  // no body yet
};

/// RAII pool of reusable fibers (stacks are the expensive part). Fiber `i`
/// has id `i`.
class FiberPool {
 public:
  FiberPool(std::size_t count, std::size_t stackBytes) {
    fibers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      fibers_.push_back(
          std::make_unique<Fiber>(stackBytes, static_cast<std::uint32_t>(i)));
  }

  std::size_t size() const noexcept { return fibers_.size(); }
  Fiber& at(std::size_t i) { return *fibers_[i]; }

 private:
  std::vector<std::unique_ptr<Fiber>> fibers_;
};

}  // namespace gravel::simt
