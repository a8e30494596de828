// Continuous telemetry: windowed time-series over the pull-side metrics
// registry (ISSUE 7 tentpole).
//
// Everything the registry holds is an *absolute* value published at
// collection points; a run watched live needs *rates* — what changed in the
// last 250 ms, not since process start. The TimeSeries collector takes
// MetricsSnapshot::delta() windows on the monitor thread's cadence into a
// bounded in-memory ring, tagging each window with wall/mono timestamps and
// the state transitions that happened inside it (membership epoch changes,
// circuit-breaker transitions) plus the watchdog diagnoses open at window
// end. The status server serves the ring to gravel-top; the Cluster dumps
// it as schema-versioned gravel_timeseries.json at exit (GRAVEL_TIMESERIES=1
// or config.timeseries.enabled).
//
// Layering: gravel_obs depends on gravel_common only, so this file cannot
// see Membership/ReliableFabric. The runtime flattens what the collector
// needs into plain sample structs (HealthSample/BreakerSample), exactly as
// the watchdog does; change *detection* then lives here, as a pure function
// of consecutive sample vectors.
//
// Concurrency: collect() has exactly one caller (the monitor thread). The
// ring is guarded by a mutex — at a 250 ms cadence the collector and the
// status server's reads are nowhere near a hot path.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"

namespace gravel::obs {

/// gravel_timeseries.json schema version (bumped like the BENCH schema:
/// consumers accept older versions, the writer always emits the latest).
inline constexpr int kTimeSeriesSchemaVersion = 1;

/// Collector knobs, embedded in ClusterConfig as `config.timeseries`.
struct TimeSeriesConfig {
  /// Master switch for the collector duty of the monitor thread. The
  /// GRAVEL_TIMESERIES / GRAVEL_STATUS_PORT environment variables turn this
  /// on at Cluster construction (see README "Watching a live run").
  bool enabled = false;

  /// Collection cadence: one window per period.
  std::chrono::milliseconds period{250};

  /// Windows retained in memory. At the default cadence 960 windows are
  /// four minutes of history; older windows are dropped (counted, reported
  /// in the JSON dump) rather than growing without bound.
  std::size_t capacity = 960;

  /// Drop zero-delta counter/stat/histogram rows from each window. Keeps
  /// idle windows tiny; gauges always survive (their current level *is*
  /// the signal). Disable for exhaustive dumps.
  bool prune_zero_deltas = true;
};

/// One node's membership view, flattened by the runtime (mirrors
/// rt::NodeHealth numerically: 0 alive, 1 suspect, 2 dead, 3 recovered).
struct HealthSample {
  std::uint32_t node = 0;
  std::uint8_t health = 0;
  std::uint32_t epoch = 0;
};

inline const char* healthSampleName(std::uint8_t h) noexcept {
  switch (h) {
    case 0: return "alive";
    case 1: return "suspect";
    case 2: return "dead";
    case 3: return "recovered";
  }
  return "?";
}

/// One link's circuit-breaker view (state codes as linkBreakerName()).
struct BreakerSample {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint8_t state = 0;
  std::uint32_t era = 0;
};

/// A membership transition observed between two collection ticks.
struct EpochChange {
  std::uint32_t node = 0;
  std::uint8_t from_health = 0;
  std::uint8_t to_health = 0;
  std::uint32_t epoch = 0;  ///< epoch at window end
};

/// A breaker transition observed between two collection ticks.
struct BreakerChange {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint8_t from_state = 0;
  std::uint8_t to_state = 0;
  std::uint32_t era = 0;  ///< era at window end
};

/// One collection window: what changed between two monitor ticks.
struct TimeSeriesWindow {
  std::uint64_t seq = 0;          ///< monotonically increasing window index
  std::uint64_t wall_ms = 0;      ///< system_clock at window end (UTC ms)
  std::uint64_t mono_ns_start = 0; ///< tracer-epoch ns, window open
  std::uint64_t mono_ns_end = 0;   ///< tracer-epoch ns, window close
  MetricsSnapshot delta;           ///< windowed registry delta
  std::vector<EpochChange> epoch_changes;
  std::vector<BreakerChange> breaker_changes;
  std::vector<Diagnosis> watchdog;  ///< diagnoses open at window end

  double seconds() const noexcept {
    return mono_ns_end > mono_ns_start
               ? double(mono_ns_end - mono_ns_start) / 1e9
               : 0.0;
  }
  /// Windowed counter delta as a rate; 0 when the metric is absent or the
  /// window has zero width.
  double ratePerSec(const std::string& name,
                    const std::string& labels = "") const {
    const double s = seconds();
    return s > 0 ? delta.number(name, labels) / s : 0.0;
  }
};

/// Bounded windowed-delta collector. Single writer (the monitor thread);
/// any thread may read windows()/writeJson().
class TimeSeries {
 public:
  explicit TimeSeries(const TimeSeriesConfig& config) : config_(config) {}

  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  const TimeSeriesConfig& config() const noexcept { return config_; }

  /// Takes one window: the delta of `snap` against the previous collection,
  /// annotated with membership/breaker transitions since the previous tick
  /// and the currently-open watchdog diagnoses. The first call establishes
  /// the baseline *and* emits a window (delta against an empty snapshot =
  /// absolute values), so a short run still produces at least one window.
  void collect(const MetricsSnapshot& snap, std::uint64_t wall_ms,
               std::uint64_t mono_ns, const std::vector<HealthSample>& health,
               const std::vector<BreakerSample>& breakers,
               std::vector<Diagnosis> diagnoses) {
    TimeSeriesWindow w;
    w.wall_ms = wall_ms;
    w.mono_ns_start = baselineNs_;
    w.mono_ns_end = mono_ns;
    w.delta = snap.delta(baseline_);
    if (config_.prune_zero_deltas) prune(w.delta);
    diffHealth(health, w.epoch_changes);
    diffBreakers(breakers, w.breaker_changes);
    w.watchdog = std::move(diagnoses);
    baseline_ = snap;
    baselineNs_ = mono_ns;

    gravel::lock_guard lk(mutex_);
    w.seq = nextSeq_++;
    ring_.push_back(std::move(w));
    while (ring_.size() > config_.capacity) {
      ring_.pop_front();
      ++dropped_;
    }
  }

  /// Copy of the retained windows, oldest first.
  std::vector<TimeSeriesWindow> windows() const {
    gravel::lock_guard lk(mutex_);
    return {ring_.begin(), ring_.end()};
  }

  /// The most recent `n` windows, oldest first.
  std::vector<TimeSeriesWindow> lastWindows(std::size_t n) const {
    gravel::lock_guard lk(mutex_);
    const std::size_t take = ring_.size() < n ? ring_.size() : n;
    return {ring_.end() - std::ptrdiff_t(take), ring_.end()};
  }

  /// Per-window rate of `name` over the retained windows that have a
  /// positive length, oldest first, without copying the window snapshots.
  std::vector<double> ratesPerSec(const std::string& name) const {
    gravel::lock_guard lk(mutex_);
    std::vector<double> rates;
    rates.reserve(ring_.size());
    for (const TimeSeriesWindow& w : ring_)
      if (w.seconds() > 0) rates.push_back(w.ratePerSec(name));
    return rates;
  }

  std::uint64_t droppedWindows() const {
    gravel::lock_guard lk(mutex_);
    return dropped_;
  }

  std::size_t size() const {
    gravel::lock_guard lk(mutex_);
    return ring_.size();
  }

  /// gravel_timeseries.json: schema-versioned, windows oldest first.
  void writeJson(std::ostream& os) const {
    const std::vector<TimeSeriesWindow> all = windows();
    std::uint64_t dropped;
    {
      gravel::lock_guard lk(mutex_);
      dropped = dropped_;
    }
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema_version", std::int64_t{kTimeSeriesSchemaVersion});
    w.kv("kind", "gravel-timeseries");
    w.kv("period_ms", std::int64_t(config_.period.count()));
    w.kv("capacity", std::uint64_t(config_.capacity));
    w.kv("dropped_windows", dropped);
    w.key("windows").beginArray();
    for (const TimeSeriesWindow& win : all) writeWindow(w, win);
    w.endArray();
    w.endObject();
  }

 private:
  static void writeWindow(JsonWriter& w, const TimeSeriesWindow& win) {
    w.beginObject();
    w.kv("seq", win.seq);
    w.kv("wall_ms", win.wall_ms);
    w.kv("mono_ns_start", win.mono_ns_start);
    w.kv("mono_ns_end", win.mono_ns_end);
    w.key("epoch_changes").beginArray();
    for (const EpochChange& e : win.epoch_changes) {
      w.beginObject();
      w.kv("node", std::uint64_t{e.node});
      w.kv("from", healthSampleName(e.from_health));
      w.kv("to", healthSampleName(e.to_health));
      w.kv("epoch", std::uint64_t{e.epoch});
      w.endObject();
    }
    w.endArray();
    w.key("breaker_changes").beginArray();
    for (const BreakerChange& b : win.breaker_changes) {
      w.beginObject();
      w.kv("src", std::uint64_t{b.src});
      w.kv("dst", std::uint64_t{b.dst});
      w.kv("from", linkBreakerName(b.from_state));
      w.kv("to", linkBreakerName(b.to_state));
      w.kv("era", std::uint64_t{b.era});
      w.endObject();
    }
    w.endArray();
    w.key("watchdog").beginArray();
    for (const Diagnosis& d : win.watchdog) {
      w.beginObject();
      w.kv("kind", stallKindName(d.kind));
      w.kv("node", std::uint64_t{d.node});
      w.kv("dest", std::uint64_t{d.dest});
      w.kv("depth", d.depth);
      w.kv("open", d.open);
      w.endObject();
    }
    w.endArray();
    w.key("metrics");
    win.delta.writeMetricsArray(w);
    w.endObject();
  }

  /// Windowed counters/stats/histograms with a zero delta carry no signal;
  /// drop them so an idle window serializes to a handful of gauges.
  static void prune(MetricsSnapshot& s) {
    for (auto it = s.metrics.begin(); it != s.metrics.end();) {
      const MetricValue& m = it->second;
      const bool dead = m.kind != MetricKind::kGauge && m.count == 0 &&
                        m.value == 0.0;
      it = dead ? s.metrics.erase(it) : ++it;
    }
  }

  void diffHealth(const std::vector<HealthSample>& now,
                  std::vector<EpochChange>& out) {
    for (const HealthSample& h : now) {
      auto it = lastHealth_.find(h.node);
      if (it == lastHealth_.end()) {
        // First sight: only an abnormal state is worth announcing — a
        // collector started mid-incident must still show it.
        if (h.health != 0 || h.epoch != 0)
          out.push_back({h.node, 0, h.health, h.epoch});
      } else if (it->second.health != h.health ||
                 it->second.epoch != h.epoch) {
        out.push_back({h.node, it->second.health, h.health, h.epoch});
      }
      lastHealth_[h.node] = h;
    }
  }

  void diffBreakers(const std::vector<BreakerSample>& now,
                    std::vector<BreakerChange>& out) {
    for (const BreakerSample& b : now) {
      const std::uint64_t key = (std::uint64_t(b.src) << 32) | b.dst;
      auto it = lastBreaker_.find(key);
      if (it == lastBreaker_.end()) {
        if (b.state != 0 || b.era != 0)
          out.push_back({b.src, b.dst, 0, b.state, b.era});
      } else if (it->second.state != b.state || it->second.era != b.era) {
        out.push_back({b.src, b.dst, it->second.state, b.state, b.era});
      }
      lastBreaker_[key] = b;
    }
  }

  TimeSeriesConfig config_;

  // Writer-private (monitor-thread) delta/diff state.
  MetricsSnapshot baseline_;
  std::uint64_t baselineNs_ = 0;
  std::map<std::uint32_t, HealthSample> lastHealth_;
  std::map<std::uint64_t, BreakerSample> lastBreaker_;

  mutable gravel::mutex mutex_{"TimeSeries::mutex_"};
  std::deque<TimeSeriesWindow> ring_ GRAVEL_GUARDED_BY(mutex_);
  std::uint64_t nextSeq_ GRAVEL_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ GRAVEL_GUARDED_BY(mutex_) = 0;
};

}  // namespace gravel::obs
