// The simulated GPU device: dispatches a grid of work-items as work-groups
// over a fiber scheduler with SIMT convergence semantics.
#pragma once

#include <functional>

#include "simt/fiber.hpp"
#include "simt/types.hpp"
#include "simt/workgroup.hpp"
#include "simt/workitem.hpp"

namespace gravel::simt {

/// A simulated GPU. Work-groups of a launch are executed one at a time on
/// the calling thread (the compute-unit count only matters to the cost
/// model); lanes within a work-group interleave on fibers so that
/// work-group-level operations block and resume like real convergence
/// points. A lane that parks at a collective hands the thread straight to
/// the next runnable lane of the scheduler's pass (WorkGroupState); the
/// scheduler regains control only when the pass runs out of runnable lanes,
/// a lane finishes, or a lane yields on an external condition.
/// Thread-compatibility: one Device per "node" thread.
class Device {
 public:
  using Kernel = std::function<void(WorkItem&)>;

  explicit Device(const DeviceConfig& config = {});

  const DeviceConfig& config() const noexcept { return config_; }
  DeviceStats& stats() noexcept { return stats_; }
  const DeviceStats& stats() const noexcept { return stats_; }

  /// Runs `kernel` for every work-item of the grid. Blocks until the whole
  /// grid finished. Exceptions thrown by kernel bodies (including
  /// DeadlockError from convergence misuse) propagate to the caller.
  void launch(const LaunchConfig& launch, const Kernel& kernel);

  /// Yields the current lane if called from inside a kernel (so sibling
  /// lanes and, transitively, host threads make progress), or the OS thread
  /// otherwise. Pass as the YieldFn of any spin-waiting structure shared
  /// with kernels.
  static void yieldLane();

 private:
  void runWorkGroup(std::uint64_t wgIndex, std::uint32_t laneCount);

  DeviceConfig config_;
  DeviceStats stats_;
  // wg_ keeps a reference to fibers_ and uses it only once both are built.
  WorkGroupState wg_;
  FiberPool fibers_;
  // The running work-group's dispatch, read by every lane's fiber body so
  // that re-arming a lane captures only (this, lane) and never allocates.
  const Kernel* kernel_ = nullptr;
  std::uint64_t wgBase_ = 0;
  std::uint64_t gridSize_ = 0;
};

}  // namespace gravel::simt
