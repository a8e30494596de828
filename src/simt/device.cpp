#include "simt/device.hpp"

#include <string>
#include <thread>

#include "common/error.hpp"

namespace gravel::simt {

Device::Device(const DeviceConfig& config)
    : config_(config),
      stats_(),
      wg_(config_, stats_, fibers_),
      fibers_(config_.max_wg_size, config_.fiber_stack_bytes) {
  GRAVEL_CHECK_MSG(config_.wavefront_width > 0, "wavefront width must be > 0");
  GRAVEL_CHECK_MSG(config_.max_wg_size % config_.wavefront_width == 0,
                   "work-group size must be a whole number of wavefronts");
}

void Device::launch(const LaunchConfig& launch, const Kernel& kernel) {
  GRAVEL_CHECK_MSG(launch.wg_size > 0 &&
                       launch.wg_size <= config_.max_wg_size,
                   "launch wg_size out of device range");
  ++stats_.kernels_launched;
  kernel_ = &kernel;
  gridSize_ = launch.grid_size;
  for (wgBase_ = 0; wgBase_ < gridSize_; wgBase_ += launch.wg_size) {
    const auto lanes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(launch.wg_size, gridSize_ - wgBase_));
    try {
      runWorkGroup(wgBase_ / launch.wg_size, lanes);
    } catch (...) {
      // The group's other lanes stay suspended mid-kernel; drop them so the
      // next launch can re-arm every fiber.
      for (std::uint32_t lane = 0; lane < lanes; ++lane)
        fibers_.at(lane).abandon();
      throw;
    }
  }
}

void Device::runWorkGroup(std::uint64_t wgIndex, std::uint32_t laneCount) {
  wg_.begin(wgIndex, laneCount);
  ++stats_.workgroups_executed;
  stats_.lanes_executed += laneCount;

  for (std::uint32_t lane = 0; lane < laneCount; ++lane) {
    fibers_.at(lane).reset([this, lane] {
      WorkItem wi(*this, wg_, lane, wgBase_, gridSize_,
                  config_.wavefront_width);
      (*kernel_)(wi);
    });
  }

  std::uint32_t finished = 0;
  while (finished < laneCount) {
    bool resumedAny = false;
    bool finishedAny = false;
    // Lane order approximates wavefront-ordered issue; lanes that park at a
    // collective are skipped until a sibling completes the rendezvous. The
    // lane entered here may hand off to later lanes of this pass itself
    // (WorkGroupState::parkUntil); the pass continues after whichever lane
    // comes back.
    for (std::uint32_t lane = wg_.nextRunnable(0); lane < laneCount;
         lane = wg_.nextRunnable(lane + 1)) {
      resumedAny = true;
      ++stats_.fiber_switches;
      Fiber& back = fibers_.at(lane).resume();
      lane = back.id();
      if (back.finished()) {
        ++finished;
        finishedAny = true;
        wg_.onLaneFinish(lane);
      }
    }
    if (finished >= laneCount) break;
    if (!resumedAny) {
      // Every unfinished lane is parked at a rendezvous that can no longer
      // complete. (Lanes spinning on external conditions stay kRunnable, so
      // they are not counted here.)
      throw DeadlockError(
          "work-group " + std::to_string(wgIndex) +
          ": all unfinished lanes are parked at collectives that cannot "
          "complete");
    }
    if (!finishedAny) {
      // Lanes are spin-waiting on an external condition (e.g. a full
      // producer/consumer queue); let host threads (aggregator, network
      // thread) run so the condition can change.
      std::this_thread::yield();
    }
  }
}

void Device::yieldLane() {
  if (Fiber* f = Fiber::current()) {
    f->yield();
  } else {
    std::this_thread::yield();
  }
}

}  // namespace gravel::simt
