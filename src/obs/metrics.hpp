// MetricsRegistry: named, labeled metrics over the existing instrumentation
// primitives (Counter / RunningStat / Pow2Histogram) with snapshot/delta
// semantics and JSON + CSV export.
//
// The registry is a *pull-side* structure: hot paths keep bumping their own
// cache-local counters exactly as before, and a collector (Cluster::
// collectMetrics(), the depth sampler, a bench) publishes absolute values
// into named slots at quiescent points or on a sampling cadence. That keeps
// the overhead budget trivially met — the message path never touches a map —
// while every number a run produces becomes addressable by (name, labels).
//
// Kinds:
//   counter    monotonic absolute value; delta() subtracts a baseline
//   gauge      instantaneous level; delta() keeps the current value
//   stat       RunningStat moments (count/sum/min/max/mean)
//   histogram  Pow2Histogram buckets; delta() subtracts per bucket
//
// The kind decides how a value windows: Cluster::runStats() and the time-
// series collector both read delta()s, so a level published as a counter
// would be reported as a difference of levels. Levels are gauges.
//
// Collection cost must scale with traffic, not topology: publishers that
// walk per-destination or per-link state (the aggregator's lazy-buffer
// gauges `agg.lazy_buffers`/`agg.resident_bytes`, the fabric's link
// counters via Fabric::forEachLink) enumerate only resident entries, so
// collectMetrics() at 4096 simulated nodes stays proportional to what the
// run actually touched (DESIGN.md §14), not nodes^2 name/label pairs.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/atomic.hpp"
#include "common/stats.hpp"
#include "obs/json.hpp"

namespace gravel::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kStat, kHistogram };

inline const char* metricKindName(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kStat: return "stat";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// One named metric's value at snapshot time.
struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  ///< counter value / stat & histogram sample count
  double value = 0;         ///< gauge level / stat sum
  double min = 0, max = 0;  ///< stat extrema (valid when count > 0)
  std::vector<std::uint64_t> buckets;  ///< histogram only

  double mean() const noexcept { return count ? value / double(count) : 0.0; }
};

/// Key = metric name + free-form labels ("node=0", "link=0->1", ...).
using MetricKey = std::pair<std::string, std::string>;
/// A non-owning key: lookups by view never build the owning strings.
using MetricKeyView = std::pair<std::string_view, std::string_view>;

/// Orders owning keys and views alike (name, then labels), so a map keyed
/// by MetricKey can be searched with a MetricKeyView.
struct MetricKeyLess {
  using is_transparent = void;
  static MetricKeyView view(const MetricKey& k) noexcept {
    return {k.first, k.second};
  }
  static MetricKeyView view(const MetricKeyView& k) noexcept { return k; }
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const noexcept {
    return view(a) < view(b);
  }
};

using MetricMap = std::map<MetricKey, MetricValue, MetricKeyLess>;

/// A point-in-time copy of every registered metric; supports delta() against
/// an earlier snapshot and JSON/CSV serialization.
class MetricsSnapshot {
 public:
  MetricMap metrics;

  bool contains(std::string_view name, std::string_view labels = {}) const {
    return find(name, labels) != nullptr;
  }
  const MetricValue* find(std::string_view name,
                          std::string_view labels = {}) const {
    auto it = metrics.find(MetricKeyView{name, labels});
    return it == metrics.end() ? nullptr : &it->second;
  }
  /// Counter value / gauge level / stat mean, or 0 when absent.
  double number(std::string_view name, std::string_view labels = {}) const {
    const MetricValue* m = find(name, labels);
    return m ? numberOf(*m) : 0.0;
  }

  /// number() summed over every label row of `name` (per-node rows roll up
  /// to a cluster total), or 0 when absent. Reads only the name's own key
  /// range, so the cost is the name's row count, not the snapshot size.
  double sum(std::string_view name) const {
    return fold(name, [](double a, double b) { return a + b; });
  }
  /// Same, combining rows with max (per-node high-water marks).
  double max(std::string_view name) const {
    return fold(name, [](double a, double b) { return std::max(a, b); });
  }

  /// This snapshot relative to `base`: counters and histogram buckets
  /// subtract; stats subtract count/sum (window mean) and keep current
  /// extrema; gauges keep their current level. Metrics absent from `base`
  /// pass through unchanged.
  MetricsSnapshot delta(const MetricsSnapshot& base) const {
    MetricsSnapshot out = *this;
    for (auto& [key, m] : out.metrics) {
      auto it = base.metrics.find(key);
      if (it == base.metrics.end()) continue;
      const MetricValue& b = it->second;
      switch (m.kind) {
        case MetricKind::kCounter:
          m.count -= std::min(m.count, b.count);
          break;
        case MetricKind::kGauge:
          break;
        case MetricKind::kStat:
          m.count -= std::min(m.count, b.count);
          m.value -= b.value;
          break;
        case MetricKind::kHistogram:
          m.count -= std::min(m.count, b.count);
          for (std::size_t i = 0;
               i < m.buckets.size() && i < b.buckets.size(); ++i)
            m.buckets[i] -= std::min(m.buckets[i], b.buckets[i]);
          break;
      }
    }
    return out;
  }

  void toJson(std::ostream& os) const {
    JsonWriter w(os);
    w.beginObject().key("metrics");
    writeMetricsArray(w);
    w.endObject();
  }

  /// The metrics rows as a bare JSON array, for embedding into larger
  /// documents (gravel_metrics.json, time-series windows, /status).
  void writeMetricsArray(JsonWriter& w) const {
    w.beginArray();
    for (const auto& [key, m] : metrics) {
      w.beginObject()
          .kv("name", key.first)
          .kv("labels", key.second)
          .kv("kind", metricKindName(m.kind));
      switch (m.kind) {
        case MetricKind::kCounter:
          w.kv("value", m.count);
          break;
        case MetricKind::kGauge:
          w.kv("value", m.value);
          break;
        case MetricKind::kStat:
          w.kv("count", m.count).kv("sum", m.value).kv("mean", m.mean());
          if (m.count) w.kv("min", m.min).kv("max", m.max);
          break;
        case MetricKind::kHistogram: {
          w.kv("count", m.count).key("buckets").beginArray();
          // Trailing zero buckets are elided; bucket i covers [2^(i-1), 2^i).
          std::size_t last = m.buckets.size();
          while (last > 0 && m.buckets[last - 1] == 0) --last;
          for (std::size_t i = 0; i < last; ++i) w.value(m.buckets[i]);
          w.endArray();
          break;
        }
      }
      w.endObject();
    }
    w.endArray();
  }

  /// name,labels,kind,count,value,min,max — one row per metric.
  void toCsv(std::ostream& os) const {
    os << "name,labels,kind,count,value,min,max\n";
    for (const auto& [key, m] : metrics) {
      os << key.first << ',' << key.second << ',' << metricKindName(m.kind)
         << ',' << m.count << ',';
      switch (m.kind) {
        case MetricKind::kCounter: os << m.count; break;
        case MetricKind::kGauge: os << m.value; break;
        case MetricKind::kStat: os << m.mean(); break;
        case MetricKind::kHistogram: os << m.count; break;
      }
      os << ',' << (m.count ? m.min : 0.0) << ',' << (m.count ? m.max : 0.0)
         << '\n';
    }
  }

 private:
  static double numberOf(const MetricValue& m) {
    switch (m.kind) {
      case MetricKind::kCounter: return double(m.count);
      case MetricKind::kGauge: return m.value;
      case MetricKind::kStat: return m.mean();
      case MetricKind::kHistogram: return double(m.count);
    }
    return 0.0;
  }

  template <typename Op>
  double fold(std::string_view name, Op op) const {
    double acc = 0.0;
    for (auto it = metrics.lower_bound(MetricKeyView{name, {}});
         it != metrics.end() && it->first.first == name; ++it)
      acc = op(acc, numberOf(it->second));
    return acc;
  }
};

/// Thread-safe registry of named metrics. set*/observe* publish values;
/// snapshot() copies everything out.
class MetricsRegistry {
 public:
  /// Publishes the absolute value of a monotonic counter.
  void setCounter(std::string_view name, std::string_view labels,
                  std::uint64_t value) {
    gravel::lock_guard lk(mutex_);
    MetricValue& m = slot(name, labels, MetricKind::kCounter);
    m.count = value;
  }

  /// Publishes an instantaneous level.
  void setGauge(std::string_view name, std::string_view labels,
                double value) {
    gravel::lock_guard lk(mutex_);
    MetricValue& m = slot(name, labels, MetricKind::kGauge);
    m.value = value;
  }

  /// Adds one sample to a RunningStat-backed metric.
  void observe(std::string_view name, std::string_view labels,
               double sample) {
    gravel::lock_guard lk(mutex_);
    MetricValue& m = slot(name, labels, MetricKind::kStat);
    if (m.count == 0) {
      m.min = m.max = sample;
    } else {
      m.min = std::min(m.min, sample);
      m.max = std::max(m.max, sample);
    }
    ++m.count;
    m.value += sample;
  }

  /// Publishes a whole RunningStat (absolute; snapshot/delta windows it).
  void setStat(std::string_view name, std::string_view labels,
               const RunningStat& s) {
    gravel::lock_guard lk(mutex_);
    MetricValue& m = slot(name, labels, MetricKind::kStat);
    m.count = s.count();
    m.value = s.sum();
    m.min = s.min();
    m.max = s.max();
  }

  /// Adds one sample to a Pow2Histogram-backed metric (also tracks extrema).
  void observeHistogram(std::string_view name, std::string_view labels,
                        std::uint64_t sample) {
    gravel::lock_guard lk(mutex_);
    MetricValue& m = slot(name, labels, MetricKind::kHistogram);
    if (m.buckets.empty()) m.buckets.assign(Pow2Histogram::kBuckets, 0);
    int bucket = sample == 0 ? 0 : 64 - std::countl_zero(sample);
    if (bucket >= Pow2Histogram::kBuckets) bucket = Pow2Histogram::kBuckets - 1;
    ++m.buckets[std::size_t(bucket)];
    if (m.count == 0) {
      m.min = m.max = double(sample);
    } else {
      m.min = std::min(m.min, double(sample));
      m.max = std::max(m.max, double(sample));
    }
    ++m.count;
  }

  /// Publishes a whole Pow2Histogram.
  void setHistogram(std::string_view name, std::string_view labels,
                    const Pow2Histogram& h) {
    gravel::lock_guard lk(mutex_);
    MetricValue& m = slot(name, labels, MetricKind::kHistogram);
    m.buckets.assign(Pow2Histogram::kBuckets, 0);
    for (int i = 0; i < Pow2Histogram::kBuckets; ++i)
      m.buckets[std::size_t(i)] = h.bucket(i);
    m.count = h.total();
  }

  MetricsSnapshot snapshot() const {
    gravel::lock_guard lk(mutex_);
    MetricsSnapshot s;
    s.metrics = metrics_;
    return s;
  }

  std::size_t size() const {
    gravel::lock_guard lk(mutex_);
    return metrics_.size();
  }

  void clear() {
    gravel::lock_guard lk(mutex_);
    metrics_.clear();
  }

 private:
  // Caller holds mutex_ (compiler-enforced). Re-registration with a
  // different kind resets the slot rather than mixing semantics. Publishing
  // into an existing row is a lookup by view; only the first registration
  // of a (name, labels) pair builds the owning key.
  MetricValue& slot(std::string_view name, std::string_view labels,
                    MetricKind kind) GRAVEL_REQUIRES(mutex_) {
    const MetricKeyView key{name, labels};
    auto it = metrics_.lower_bound(key);
    if (it == metrics_.end() || MetricKeyLess{}(key, it->first))
      it = metrics_.emplace_hint(
          it, MetricKey{std::string(name), std::string(labels)},
          MetricValue{});
    MetricValue& m = it->second;
    if (m.kind != kind && (m.count || m.value || !m.buckets.empty()))
      m = MetricValue{};
    m.kind = kind;
    return m;
  }

  mutable gravel::mutex mutex_{"MetricsRegistry::mutex_"};
  MetricMap metrics_ GRAVEL_GUARDED_BY(mutex_);
};

}  // namespace gravel::obs
