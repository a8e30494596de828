// Shared harness for the figure/table benches: the Table-4 workload registry
// at reproduction scale, run functionally on a fresh cluster and packaged
// with the per-node demand matrix the timing simulation consumes.
//
// Scales are the paper's inputs shrunk to a single-core host (DESIGN.md §2);
// set GRAVEL_BENCH_SCALE=<float> to grow or shrink every workload together.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/color.hpp"
#include "apps/gups.hpp"
#include "apps/kmeans.hpp"
#include "apps/mer.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "common/table.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "perf/pipeline.hpp"

namespace gravel::bench {

inline double benchScale() {
  if (const char* s = std::getenv("GRAVEL_BENCH_SCALE")) return std::atof(s);
  return 1.0;
}

/// One functional run, ready for timing simulation.
struct WorkloadRun {
  std::string name;
  apps::AppReport report;
  std::vector<perf::NodeDemand> demand;
  double am_fraction = 0;
  std::uint64_t rounds = 1;
};

inline const std::vector<std::string>& allWorkloadNames() {
  static const std::vector<std::string> names{
      "GUPS",    "PR-1",    "PR-2",   "SSSP-1", "SSSP-2",
      "color-1", "color-2", "kmeans", "mer"};
  return names;
}

/// Workloads the sweeping benches iterate. GRAVEL_BENCH_WORKLOADS (a
/// comma-separated subset, e.g. "GUPS,kmeans") restricts the sweep — the
/// smoke harness uses it to keep CI runs short. Unknown names are rejected
/// so a typo cannot silently produce an empty bench.
inline const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = [] {
    const char* env = std::getenv("GRAVEL_BENCH_WORKLOADS");
    if (env == nullptr || *env == '\0') return allWorkloadNames();
    std::vector<std::string> out;
    std::string token;
    for (const char* p = env;; ++p) {
      if (*p == ',' || *p == '\0') {
        if (!token.empty()) {
          const auto& all = allWorkloadNames();
          if (std::find(all.begin(), all.end(), token) == all.end())
            throw InvalidArgument("GRAVEL_BENCH_WORKLOADS: unknown workload " +
                                  token);
          out.push_back(token);
          token.clear();
        }
        if (*p == '\0') break;
      } else {
        token.push_back(*p);
      }
    }
    if (out.empty())
      throw InvalidArgument("GRAVEL_BENCH_WORKLOADS selected no workloads");
    return out;
  }();
  return names;
}

/// Node counts for the fig12 large-N scale sweep (DESIGN.md §14).
/// GRAVEL_FIG12_SCALE_NODES is a comma-separated list ("1024,4096"); empty
/// or "0" disables the sweep. The default exercises the first four-digit
/// point so a plain bench run still produces scale evidence.
inline std::vector<std::uint32_t> fig12ScaleNodes() {
  std::vector<std::uint32_t> out;
  const char* env = std::getenv("GRAVEL_FIG12_SCALE_NODES");
  const std::string spec = env ? env : "1024";
  std::string token;
  for (const char* p = spec.c_str();; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) {
        const long v = std::atol(token.c_str());
        if (v > 0) out.push_back(std::uint32_t(v));
        token.clear();
      }
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  return out;
}

/// Config-tweak hook for the scale sweep: thousands of simulated nodes on
/// one host need tiny per-node heaps/queues and a two-thread runtime pool
/// rather than one thread per runtime unit (DESIGN.md §14). Mirrors
/// tests/test_scale.cpp so the bench measures the configuration the tests
/// prove correct.
inline rt::ClusterConfig scaleBenchCluster(std::uint32_t nodes) {
  rt::ClusterConfig c;
  c.nodes = nodes;
  c.heap_bytes = 16u << 10;
  c.gpu_queue_bytes = 8u << 10;
  c.pernode_queue_bytes = 512;
  c.runtime_threads = 2;
  c.device.wavefront_width = 8;
  c.device.max_wg_size = 32;
  return c;
}

inline rt::ClusterConfig benchCluster(std::uint32_t nodes,
                                      bool traced = false) {
  rt::ClusterConfig c;
  c.nodes = nodes;
  c.heap_bytes = 64u << 20;
  if (traced) {
    // Sampled tracing feeds the latency-attribution engine so the bench can
    // report per-stage p50/p99 (run_benches.py schema v2). 1-in-16 keeps
    // the record sites inside the counters' noise floor.
    c.obs.enabled = true;
    c.obs.sample_interval = 16;
    // Windowed time-series collection backs the serving-oriented ts_*
    // columns (schema v3): sustained vs. peak per-window message rate. A
    // 50 ms cadence resolves the short bench runs; collection rides the
    // monitor thread, off every hot path.
    c.timeseries.enabled = true;
    c.timeseries.period = std::chrono::milliseconds(50);
    // Continuous profiler (schema v4): per-thread busy/idle attribution and
    // named-mutex wait totals back the cpu_ns_per_msg / lock_wait_per_busy
    // columns. Region timers are scoped and single-writer — same noise
    // floor as the sampled tracing above.
    c.profiler.enabled = true;
  }
  return c;  // Table 3 defaults otherwise (256-lane WGs, 1 MB queue, ...)
}

/// Runs `name` on a fresh `nodes`-node cluster at reproduction scale.
/// Total problem size is fixed across node counts (strong scaling, as in
/// Figure 12). `traced` enables sampled tracing so the run's stats carry
/// per-stage latency quantiles.
inline WorkloadRun runWorkload(const std::string& name, std::uint32_t nodes,
                               bool traced = false) {
  const double s = benchScale();
  rt::Cluster cluster(benchCluster(nodes, traced));
  WorkloadRun run;
  run.name = name;

  if (name == "GUPS") {
    apps::GupsConfig cfg;
    cfg.table_size = 1 << 18;
    cfg.updates_per_node = std::uint64_t(s * (2 << 20)) / nodes;
    run.report = apps::runGups(cluster, cfg);
  } else if (name == "PR-1" || name == "PR-2") {
    graph::Csr g = name == "PR-1"
                       ? graph::bubblesLike(graph::Vertex(s * 400000), 11)
                       : graph::cageLike(graph::Vertex(s * 60000), 19, 12);
    graph::DistGraph dg(std::move(g), nodes);
    apps::PageRankConfig cfg;
    cfg.iterations = name == "PR-1" ? 5 : 3;
    run.report = apps::runPageRank(cluster, dg, cfg).report;
  } else if (name == "SSSP-1" || name == "SSSP-2") {
    graph::Csr g = name == "SSSP-1"
                       ? graph::bubblesLike(graph::Vertex(s * 8000), 13)
                       : graph::cageLike(graph::Vertex(s * 30000), 19, 14);
    graph::DistGraph dg(std::move(g), nodes);
    run.report = apps::runSssp(cluster, dg, {}).report;
  } else if (name == "color-1" || name == "color-2") {
    graph::Csr g = name == "color-1"
                       ? graph::bubblesLike(graph::Vertex(s * 400000), 15)
                       : graph::cageLike(graph::Vertex(s * 60000), 19, 16);
    graph::DistGraph dg(std::move(g), nodes);
    run.report = apps::runColor(cluster, dg, {}).report;
  } else if (name == "kmeans") {
    apps::KmeansConfig cfg;
    cfg.clusters = 8;
    cfg.dims = 4;
    cfg.points_per_node = std::uint64_t(s * (128 << 10)) / nodes;
    cfg.iterations = 3;
    run.report = apps::runKmeans(cluster, cfg).report;
  } else if (name == "mer") {
    apps::MerConfig cfg;
    cfg.genome_length = 1 << 18;
    cfg.reads_per_node = std::uint64_t(s * 12000) / nodes;
    cfg.read_length = 100;
    cfg.k = 21;
    // Constant cluster-wide capacity: the genome's distinct k-mers must fit
    // one node's table when nodes == 1.
    cfg.table_slots_per_node = (1 << 20) / nodes;
    run.report = apps::runMer(cluster, cfg).report;
  } else {
    throw InvalidArgument("unknown workload: " + name);
  }

  run.demand = perf::demandFromCluster(cluster);
  run.am_fraction = perf::amFraction(run.report.stats);
  run.rounds = std::max<std::uint64_t>(1, run.report.iterations);
  return run;
}

/// Times a completed run under a networking style.
inline double timeRun(const WorkloadRun& run, perf::Style style,
                      double pernodeQueueBytes = 64.0 * 1024,
                      const perf::MachineParams& params = {}) {
  perf::SimConfig cfg;
  cfg.style = style;
  cfg.params = params;
  cfg.wg_size = 256;
  cfg.pernode_queue_bytes = pernodeQueueBytes;
  cfg.am_fraction = run.am_fraction;
  return perf::simulateApp(cfg, run.demand, run.rounds);
}

inline double geomean(const std::vector<double>& xs) {
  double logSum = 0;
  for (double x : xs) logSum += std::log(x);
  return xs.empty() ? 0.0 : std::exp(logSum / double(xs.size()));
}

/// Machine-readable bench output alongside the printed tables: when
/// GRAVEL_BENCH_JSON is set, each bench writes BENCH_<name>.json (into
/// GRAVEL_BENCH_JSON_DIR, or the working directory) on destruction:
///
///   {"bench": "...", "meta": {...}, "rows": [{"col": val, ...}, ...]}
///
/// Values are numbers or strings; every row carries its own keys, so
/// sweeps with ragged columns serialize naturally. With the env var unset
/// every call is a no-op, keeping the default bench output byte-identical.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}
  ~BenchJson() { write(); }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  static bool enabled() {
    const char* v = std::getenv("GRAVEL_BENCH_JSON");
    return v != nullptr && *v != '\0' && std::string(v) != "0";
  }

  void meta(const std::string& key, const std::string& value) {
    if (enabled()) meta_.push_back({key, 0, value, /*isNumber=*/false});
  }
  void meta(const std::string& key, double value) {
    if (enabled()) meta_.push_back({key, value, {}, /*isNumber=*/true});
  }

  void beginRow() {
    if (enabled()) rows_.emplace_back();
  }
  void cell(const std::string& key, double value) {
    if (enabled()) rows_.back().push_back({key, value, {}, true});
  }
  void cell(const std::string& key, const std::string& value) {
    if (enabled()) rows_.back().push_back({key, 0, value, false});
  }

  /// Writes the file now (also runs at destruction; second call is a no-op).
  void write() {
    if (!enabled() || written_) return;
    written_ = true;
    std::string dir = ".";
    if (const char* d = std::getenv("GRAVEL_BENCH_JSON_DIR")) dir = d;
    const std::string path = dir + "/BENCH_" + bench_ + ".json";
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "BenchJson: cannot open %s\n", path.c_str());
      return;
    }
    obs::JsonWriter w(os);
    w.beginObject().kv("bench", bench_);
    w.key("meta").beginObject();
    for (const Entry& e : meta_) writeEntry(w, e);
    w.endObject();
    w.key("rows").beginArray();
    for (const auto& row : rows_) {
      w.beginObject();
      for (const Entry& e : row) writeEntry(w, e);
      w.endObject();
    }
    w.endArray().endObject();
    std::fprintf(stderr, "bench json: %s\n", path.c_str());
  }

 private:
  struct Entry {
    std::string key;
    double number;
    std::string text;
    bool isNumber;
  };

  static void writeEntry(obs::JsonWriter& w, const Entry& e) {
    if (e.isNumber)
      w.kv(e.key, e.number);
    else
      w.kv(e.key, e.text);
  }

  std::string bench_;
  std::vector<Entry> meta_;
  std::vector<std::vector<Entry>> rows_;
  bool written_ = false;
};

inline void printHeader(const std::string& title, const std::string& paper) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(paper artifact: %s)\n", paper.c_str());
  std::printf("==================================================================\n");
}

}  // namespace gravel::bench
