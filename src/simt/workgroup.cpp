#include "simt/workgroup.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "simt/fiber.hpp"

namespace gravel::simt {

WorkGroupState::WorkGroupState(const DeviceConfig& config, DeviceStats& stats,
                               FiberPool& fibers)
    : config_(config),
      stats_(stats),
      fibers_(fibers),
      wgSite_(config.max_wg_size),
      status_(config.max_wg_size, LaneStatus::kFinished),
      scratch_(config.scratchpad_bytes),
      staged_(config.max_wg_size) {}

void WorkGroupState::begin(std::uint64_t wgIndex, std::uint32_t laneCount) {
  GRAVEL_CHECK_MSG(laneCount > 0 && laneCount <= config_.max_wg_size,
                   "work-group size out of range");
  wgIndex_ = wgIndex;
  laneCount_ = laneCount;
  liveCount_ = laneCount;
  scratchOffset_ = 0;
  wgSite_.abort();
  fbars_.clear();
  std::fill(status_.begin(), status_.begin() + laneCount,
            LaneStatus::kRunnable);
}

const std::vector<std::uint32_t>& WorkGroupState::liveLanes() const {
  // Hot path (one call per completed collective): reuse a member buffer.
  laneScratch_.clear();
  for (std::uint32_t l = 0; l < laneCount_; ++l)
    if (status_[l] != LaneStatus::kFinished) laneScratch_.push_back(l);
  return laneScratch_;
}

void WorkGroupState::reserve(std::uint32_t lane, const ReserveWords& msg,
                             bool active, GroupReserve& sink, FBar* fb) {
  staged_[lane] = msg;
  collective(lane, CollectiveOp::kReserve, 0, active, fb, &sink);
}

std::uint64_t WorkGroupState::collective(std::uint32_t lane, CollectiveOp op,
                                         std::uint64_t value, bool active,
                                         FBar* fb, GroupReserve* sink) {
  CollectiveSite& site = fb ? fb->site() : wgSite_;
  if (fb) {
    GRAVEL_CHECK_MSG(fb->isMember(lane),
                     "fbar collective from a non-member lane");
  }
  // The stats count what a GPU runs: a reserve is four collectives, and
  // only its first two (reduce-max, prefix-sum) carry the lane's predicate.
  const std::uint32_t gpuOps = op == CollectiveOp::kReserve ? 4 : 1;
  stats_.collective_arrivals += gpuOps;
  stats_.active_arrivals += active ? gpuOps : gpuOps / 2;

  const std::uint64_t myGen = site.generation();
  // For the work-group domain every *live* lane participates; the engine is
  // strict (OpenCL-style): a lane that already exited makes further WG-level
  // operations a deadlock, detected in onLaneFinish().
  const std::uint32_t expected = fb ? fb->memberCount() : liveCount_;
  if (!site.arrive(lane, op, value, active, expected, sink))
    parkUntil(lane, site, myGen);
  else if (fb)
    completeSite(site, fb->memberLanes());
  else
    completeSite(site, liveLanes());  // no copy of the live-lane buffer
  return site.resultFor(lane);
}

void WorkGroupState::completeSite(CollectiveSite& site,
                                  const std::vector<std::uint32_t>& domain) {
  const CollectiveOp op = site.op();
  GroupReserve* sink = site.reserve();
  // Complete before the reserve: should it yield on a full queue, a lane
  // that joins the fbar meanwhile starts a new instance instead of
  // over-filling this one. The domain stays parked until the wake below.
  site.complete(domain);
  if (op == CollectiveOp::kScratchAlloc) {
    const std::uint64_t bytes = site.resultFor(domain.front());  // max size
    GRAVEL_CHECK_MSG(scratchOffset_ + bytes <= scratch_.size(),
                     "scratchpad overflow");
    site.overrideResults(domain, scratchOffset_);
    scratchOffset_ += bytes;
    stats_.scratchpad_high_water = std::max<std::uint64_t>(
        stats_.scratchpad_high_water, scratchOffset_);
  }
  if (op == CollectiveOp::kReserve) {
    std::uint32_t count = 0;
    for (auto l : domain) count += site.wasActive(l);
    if (count > 0) sink->reserve(ReservedGroup{site, domain, staged_, count});
  }
  stats_.collective_ops += op == CollectiveOp::kReserve ? 4 : 1;  // as above
  for (auto l : domain)
    if (status_[l] == LaneStatus::kParked) status_[l] = LaneStatus::kRunnable;
}

void WorkGroupState::parkUntil(std::uint32_t lane, const CollectiveSite& site,
                               std::uint64_t generation) {
  Fiber* self = Fiber::current();
  GRAVEL_CHECK_MSG(self != nullptr, "collective called off-fiber");
  while (site.generation() == generation) {
    status_[lane] = LaneStatus::kParked;
    // Hand the thread straight to the lane the scheduler's pass would
    // resume next: one stack switch instead of two (lane -> scheduler ->
    // lane) and the same resume order. Only an exhausted pass returns to
    // the scheduler.
    const std::uint32_t next = nextRunnable(lane + 1);
    if (next < laneCount_) {
      ++stats_.fiber_switches;
      self->switchTo(fibers_.at(next));
    } else {
      self->yield();
    }
  }
  status_[lane] = LaneStatus::kRunnable;
}

std::byte* WorkGroupState::scratchAlloc(std::uint32_t lane,
                                        std::uint64_t bytes) {
  // Round to 16 so consecutive allocations stay aligned for any element type.
  const std::uint64_t rounded = (bytes + 15) & ~std::uint64_t{15};
  const std::uint64_t offset =
      collective(lane, CollectiveOp::kScratchAlloc, rounded, true);
  return scratch_.data() + offset;
}

FBar& WorkGroupState::fbar(std::uint32_t id) {
  auto& slot = fbars_[id];
  if (!slot) slot = std::make_unique<FBar>(config_.max_wg_size);
  return *slot;
}

void WorkGroupState::fbarJoin(std::uint32_t lane, FBar& fb) {
  GRAVEL_CHECK_MSG(!fb.isMember(lane), "lane already joined this fbar");
  fb.member_[lane] = 1;
  ++fb.memberCount_;
  // Joining is a scheduling point: on real hardware lanes of a wavefront
  // join in lockstep, so siblings that are about to join must get the chance
  // before this lane races ahead into an fbar collective with a too-small
  // membership. One yield walks the round-robin scheduler across the group.
  if (Fiber* self = Fiber::current()) self->yield();
}

void WorkGroupState::fbarLeave(std::uint32_t lane, FBar& fb) {
  GRAVEL_CHECK_MSG(fb.isMember(lane), "lane is not a member of this fbar");
  fb.member_[lane] = 0;
  --fb.memberCount_;
  // Leaving can complete an in-flight collective for the remaining members
  // (Figure 10c: lanes leave when their edge list is exhausted while
  // siblings still synchronize each iteration).
  if (fb.site().inProgress() && fb.memberCount_ > 0 &&
      fb.site().arrivedCount() == fb.memberCount_)
    completeSite(fb.site(), fb.memberLanes());
  GRAVEL_CHECK_MSG(fb.memberCount_ > 0 || !fb.site().inProgress(),
                   "last lane left an fbar with a collective in flight");
}

void WorkGroupState::onLaneFinish(std::uint32_t lane) {
  status_[lane] = LaneStatus::kFinished;
  --liveCount_;
  if (wgSite_.inProgress()) {
    if (!config_.wg_reconvergence) {
      throw DeadlockError(
          "work-item exited its kernel while siblings wait at a "
          "work-group-level operation (diverged WG-level op misuse, "
          "paper §5); enable DeviceConfig::wg_reconvergence for the "
          "thread-block-compaction semantics of §5.3");
    }
    // §5.3 work-group-granularity control flow: the exited lane no longer
    // participates, which may complete the in-flight operation for the
    // remaining live lanes.
    if (liveCount_ > 0 && wgSite_.arrivedCount() == liveCount_)
      completeSite(wgSite_, liveLanes());
  }
  for (auto& [id, fb] : fbars_) {
    if (fb->isMember(lane)) {
      throw DeadlockError("work-item exited while still joined to fbar " +
                          std::to_string(id));
    }
  }
}

}  // namespace gravel::simt
