// Test stand-in for the runtime pool's aggregator units: `threads` threads
// pump one standalone Aggregator through the calls the pool makes —
// pump() in small slot batches with a per-thread staging, checkTimeouts()
// whenever the queue is idle — until stop().
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/aggregator.hpp"

namespace gravel::rt {

class PumpThreads {
 public:
  PumpThreads(Aggregator& agg, std::uint32_t threads) {
    for (std::uint32_t t = 0; t < threads; ++t)
      threads_.emplace_back([this, &agg] {
        SlotRouter::Staging staging = agg.makeStaging();
        while (!stop_.load(std::memory_order_acquire)) {
          if (agg.pump(staging, /*maxSlots=*/8) == 0) {
            agg.checkTimeouts();
            std::this_thread::yield();
          }
        }
      });
  }
  ~PumpThreads() { stop(); }

  void stop() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace gravel::rt
