// Wall-clock benchmark of the Gravel pipeline on the real rt::Cluster.
//
//   gravel_perfbench --workload <gups|am-hot|am-chain|gups-lossy>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--corrupt-expected]
//
// --trace 0 runs the workload closed-loop with all tracing off and prints
// the end-to-end metrics. --trace 1 runs it twice (untraced, then with the
// sampled tracer and profiler on), runs the isolated layer drivers, and
// prints the per-layer metrics. Every run checks its results; the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}.
// --corrupt-expected skews one expected value so the checks must fail.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "drivers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Process user+sys CPU time of all threads.
double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Nearest-rank quantile; 0 for an empty sample.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i =
      std::min(v.size() - 1, std::size_t(q * double(v.size())));
  return double(v[i]);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// One persistent "GPU" thread per node: launches run on the same threads
/// for a whole phase, as a device's scheduler thread would.
class GpuCrew {
 public:
  using Body = std::function<void(std::uint32_t node)>;

  GpuCrew(std::uint32_t nodes, obs::Tracer& tracer) : errors_(nodes) {
    for (std::uint32_t i = 0; i < nodes; ++i)
      threads_.emplace_back([this, i, &tracer] {
        tracer.nameThread("gpu." + std::to_string(i));
        loop(i);
      });
  }
  ~GpuCrew() {
    {
      std::lock_guard lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  GpuCrew(const GpuCrew&) = delete;
  GpuCrew& operator=(const GpuCrew&) = delete;

  /// Runs body(i) on every node's thread; returns when all have finished.
  void run(const Body& body) {
    {
      std::lock_guard lk(m_);
      body_ = &body;
      pending_ = std::uint32_t(threads_.size());
      ++gen_;
    }
    cv_.notify_all();
    std::unique_lock lk(m_);
    done_.wait(lk, [this] { return pending_ == 0; });
    for (auto& e : errors_)
      if (e) std::rethrow_exception(std::exchange(e, nullptr));
  }

 private:
  void loop(std::uint32_t i) {
    std::uint64_t seen = 0;
    std::unique_lock lk(m_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || gen_ != seen; });
      if (stop_) return;
      seen = gen_;
      const Body* body = body_;
      lk.unlock();
      try {
        (*body)(i);
      } catch (...) {
        errors_[i] = std::current_exception();
      }
      lk.lock();
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::mutex m_;
  std::condition_variable cv_, done_;
  const Body* body_ = nullptr;
  std::uint64_t gen_ = 0;
  std::uint32_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

/// A started cluster for one workload: symmetric allocation, the handler
/// and the runtime threads are up.
struct Rig {
  Rig(const Inputs& in, bool traced)
      : sinks(std::make_unique<Sinks>(traced)),
        cluster(std::make_unique<rt::Cluster>(makeConfig(in.kind, traced))) {
    if (in.kind != Kind::kAmChain)
      GRAVEL_CHECK(cluster
                       ->alloc<std::uint64_t>(in.kind == Kind::kAmHot
                                                  ? kAmTableWords
                                                  : kGupsWords)
                       .offset == kTable.offset);
    if (isAm(in.kind))
      GRAVEL_CHECK(cluster->registerHandler(makeHandler(in.kind, *sinks)) ==
                   kHandler);
    cluster->start();
  }
  std::unique_ptr<Sinks> sinks;  // handlers hold it: declared first
  std::unique_ptr<rt::Cluster> cluster;
};

/// One closed-loop measurement on a rig. Rates are medians over launches
/// (a launch runs from its start to the return of its quiet()), so a brief
/// stall of the shared host moves one sample, not the result.
struct Phase {
  double wall_s = 0, gpu_busy_s = 0;
  std::uint64_t launches = 0, msgs = 0;
  std::vector<std::uint64_t> uses = std::vector<std::uint64_t>(kInputSets);
  std::vector<double> kernel_ms, quiet_ms, launch_rate, launch_cpu_ns;
  rt::ClusterRunStats stats;
  Check check;
  std::vector<std::uint32_t> lat_ns, span_ns;
  std::uint64_t lat_dropped = 0;

  double msgsPerS() const { return quantile(launch_rate, 0.5); }
  double cpuNsPerMsg() const { return quantile(launch_cpu_ns, 0.5); }
};

Phase runPhase(Rig& rig, const Inputs& in, double seconds, bool corrupt) {
  Phase p;
  rt::Cluster& cluster = *rig.cluster;
  GpuCrew crew(kNodes, cluster.tracer());
  double span_s[kNodes] = {};
  std::uint32_t set = 0;
  const GpuCrew::Body body = [&](std::uint32_t n) {
    rt::NodeRuntime& node = cluster.node(n);
    const auto t0 = std::chrono::steady_clock::now();
    node.device().launch({in.gridPerNode, kWgSize}, [&](simt::WorkItem& wi) {
      runItem(in, node, wi, set);
    });
    span_s[n] = secondsSince(t0);
  };
  const double perLaunch = double(messagesPerLaunch(in));
  const auto start = std::chrono::steady_clock::now();
  do {
    const auto l0 = std::chrono::steady_clock::now();
    const double cpu0 = cpuSeconds();
    set = std::uint32_t(p.launches % kInputSets);
    ++p.uses[set];
    crew.run(body);
    for (double s : span_s) {
      p.kernel_ms.push_back(s * 1e3);
      p.gpu_busy_s += s;
    }
    const auto q0 = std::chrono::steady_clock::now();
    cluster.quiet();
    p.quiet_ms.push_back(secondsSince(q0) * 1e3);
    p.launch_rate.push_back(perLaunch / secondsSince(l0));
    p.launch_cpu_ns.push_back((cpuSeconds() - cpu0) * 1e9 / perLaunch);
    ++p.launches;
  } while (secondsSince(start) < seconds);
  p.wall_s = secondsSince(start);
  p.stats = cluster.runStats();
  p.msgs = p.stats.net_resolved;
  p.check = validate(cluster, in, *rig.sinks, p.uses, corrupt);
  for (const NodeSink& n : rig.sinks->node) {
    p.lat_ns.insert(p.lat_ns.end(), n.latNs.begin(),
                    n.latNs.begin() + std::ptrdiff_t(n.latCount.load()));
    p.span_ns.insert(p.span_ns.end(), n.spanNs.begin(),
                     n.spanNs.begin() + std::ptrdiff_t(n.spanCount.load()));
    p.lat_dropped += n.latDropped.load();
  }
  return p;
}

struct Metric {
  std::string name, unit;
  double value;
};

void printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

void printMetrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

/// Prints the failure and returns false when a check failed.
bool report(const char* what, const Check& c) {
  std::printf("check %-10s attempted %llu ops, failed %llu, "
              "failed_ops_ratio %.6g\n",
              what, (unsigned long long)c.attempted,
              (unsigned long long)c.failed,
              ratio(double(c.failed), double(c.attempted)));
  for (const std::string& s : c.problems)
    std::printf("  CHECK FAILED: %s\n", s.c_str());
  return c.failed == 0 && c.problems.empty();
}

void printLatency(const Phase& p) {
  std::printf("  msg latency (1 in %llu AMs sampled): p50 %.3f us (n=%zu), "
              "p99 %.3f us (n=%zu, %zu beyond), dropped %llu\n",
              (unsigned long long)kLatEvery, quantile(p.lat_ns, 0.5) / 1e3,
              p.lat_ns.size(), quantile(p.lat_ns, 0.99) / 1e3,
              p.lat_ns.size(), p.lat_ns.size() / 100,
              (unsigned long long)p.lat_dropped);
}

/// Runtime threads: the cooperative pool, or dedicated aggregator and
/// network threads.
bool isRuntimeThread(const std::string& name) {
  for (const char* prefix : {"pool.", "agg.", "net."})
    if (name.rfind(prefix, 0) == 0) return true;
  return false;
}

/// Set-ups per end-to-end run; setup_s is their median. A set-up is timed
/// in process CPU seconds: on a shared host, time stolen by other tenants
/// would otherwise swing it more than any change under test.
constexpr int kSetups = 7;

/// End-to-end run: kSetups set-ups, then one untraced closed loop on the
/// last one.
int runEndToEnd(const Spec& spec, std::uint64_t seed, double seconds,
                bool corrupt) {
  std::vector<double> setups;
  std::unique_ptr<Inputs> in;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    in.reset();
    const double cpu0 = cpuSeconds();
    in = std::make_unique<Inputs>(makeInputs(spec.kind, seed));
    rig = std::make_unique<Rig>(*in, false);
    setups.push_back(cpuSeconds() - cpu0);
  }
  // Values of a traced run must never reach the end-to-end metrics.
  GRAVEL_CHECK(!rig->cluster->tracer().enabled() &&
               !rig->cluster->profiler().enabled() && !lockprof::enabled());
  const Phase p = runPhase(*rig, *in, seconds, corrupt);
  const double rss = peakRssMb();
  std::printf("workload %s: %llu launches, %llu messages in %.3f s "
              "(untraced, %s runtime), %.6g msgs/s\n",
              spec.name, (unsigned long long)p.launches,
              (unsigned long long)p.msgs, p.wall_s,
              isPool(spec.kind) ? "pool" : "dedicated-thread", p.msgsPerS());
  const std::vector<Metric> ms = {
      {"cpu_ns_per_msg", "ns", p.cpuNsPerMsg()},
      {"setup_s", "s", quantile(setups, 0.5)},
      {"peak_rss_mb", "MB", rss},
  };
  printMetrics(ms);
  if (isAm(spec.kind)) printLatency(p);
  if (!report(spec.name, p.check)) {
    printJson(false, p.check.attempted, std::max<std::uint64_t>(
                                            p.check.failed, 1), {});
    return 1;
  }
  printJson(true, p.check.attempted, 0, ms);
  return 0;
}

enum Layer { kSimt = 1, kQueue, kAgg, kFabric, kRel, kResolve };
const char* kLayerNames[] = {"", "simt", "queue", "aggregator", "fabric",
                             "reliable", "resolve"};

/// Per-layer run: untraced then traced closed loop, then isolated drivers.
int runPerLayer(const Spec& spec, std::uint64_t seed, double seconds,
                bool corrupt) {
  const Inputs in = makeInputs(spec.kind, seed);
  Phase u, t;
  {
    Rig rig(in, false);
    u = runPhase(rig, in, seconds / 2, corrupt);
  }
  struct RegionTotals {
    double self_ns = 0;
    double count = 0;
  } region[std::size_t(obs::Region::kCount)];
  double roleBusy = 0, roleIdle = 0, hotBusy = 0, hotIdle = 0;
  double shardWait = 0, inboxWait = 0, atomics = 0, routed = 0, polls = 0;
  double wireBytes = 0;
  net::FaultStats faults;
  {
    Rig rig(in, true);
    t = runPhase(rig, in, seconds / 2, corrupt);
    rt::Cluster& c = *rig.cluster;
    for (const obs::Profiler::ThreadSample& ts : c.profiler().sample()) {
      for (const obs::Profiler::PathSample& ps : ts.paths) {
        RegionTotals& r = region[std::size_t(ps.stack[ps.depth - 1])];
        r.self_ns += double(ps.self_ns);
        r.count += double(ps.count);
      }
      if (!isRuntimeThread(ts.name)) continue;
      roleBusy += double(ts.busy_ns);
      roleIdle += double(ts.idle_ns);
      if (ts.name == "pool.0" || ts.name == "net.0") {
        hotBusy += double(ts.busy_ns);
        hotIdle += double(ts.idle_ns);
      }
    }
    lockprof::forEachSite([&](const lockprof::SiteSample& s) {
      if (std::strcmp(s.name, "SlotRouter::Shard::mutex") == 0)
        shardWait += double(s.wait_ns_total);
      if (std::strcmp(s.name, "PerfectFabric::Inbox::mutex") == 0)
        inboxWait += double(s.wait_ns_total);
    });
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      rt::NodeRuntime& node = c.node(n);
      atomics += double(node.queue().atomicRmwCount());
      routed += double(node.aggregator().messagesRouted());
      polls += node.aggregator().pollFraction() / kNodes;
    }
    wireBytes = double(c.wireFabric().total().bytes);
    faults = c.wireFabric().faultStats();
  }
  lockprof::setEnabled(false);  // the drivers below run unprofiled

  const rt::ClusterRunStats& st = t.stats;
  const double msgs = double(t.msgs);
  const double batches = double(st.net_batches);
  const std::uint64_t batch = std::max<std::uint64_t>(
      1, std::uint64_t(ratio(msgs, batches) + 0.5));
  const bool lossy = spec.kind == Kind::kGupsLossy;

  std::vector<Rate> rates(kResolve + 1);
  rates[kSimt] = simtProduce(in);
  rates[kQueue] = queueDrive(in);
  rates[kAgg] = aggregatorPump(in);
  rates[kFabric] = fabricDrive(in, batch);
  if (lossy) rates[kRel] = reliableDrive(in, batch);
  rates[kResolve] = resolvePump(in, batch);

  // Ceiling: each isolated rate is one instance of a per-node layer, so the
  // cluster-wide ceiling is that rate over the share of all messages its
  // busiest instance carries. Only layers every message crosses count.
  const double recvShare = receiveShare(in);
  std::vector<int> path = {kSimt, kQueue, kAgg, kFabric, kResolve};
  if (spec.kind == Kind::kAmChain) path = {kFabric, kResolve};
  if (lossy) path = {kSimt, kQueue, kAgg, kRel, kResolve};
  std::printf("workload %s: untraced %.6g msgs/s (%llu launches), traced "
              "%.6g msgs/s (%llu launches)\n",
              spec.name, u.msgsPerS(), (unsigned long long)u.launches,
              t.msgsPerS(), (unsigned long long)t.launches);
  std::printf("ceiling report (msgs/s; batch = %llu msgs):\n",
              (unsigned long long)batch);
  int ceiling = 0;
  double ceilingRate = 0;
  bool driversOk = true;
  for (int l = kSimt; l <= kResolve; ++l) {
    const Rate& r = rates[l];
    driversOk = driversOk && r.ok;
    if (r.items == 0) continue;
    const bool perBatch = l == kFabric || l == kRel;
    const double asMsgs = perBatch ? r.per_s * double(batch) : r.per_s;
    const double share = l >= kFabric ? recvShare : 1.0 / kNodes;
    const bool onPath = std::find(path.begin(), path.end(), l) != path.end();
    std::printf("  %-10s isolated %12.6g /s%s -> cluster %12.6g (share %.3f)"
                "%s%s\n",
                kLayerNames[l], r.per_s, perBatch ? " batches" : " msgs",
                asMsgs / share, share, onPath ? "" : "  [off path]",
                r.ok ? "" : "  DRIVER CHECK FAILED");
    if (onPath && (ceiling == 0 || asMsgs / share < ceilingRate)) {
      ceiling = l;
      ceilingRate = asMsgs / share;
    }
  }
  std::printf("  ceiling_layer = %s, composed %.6g / ceiling %.6g = %.3f\n",
              kLayerNames[ceiling], u.msgsPerS(), ceilingRate,
              ratio(u.msgsPerS(), ceilingRate));
  std::printf("  obs.traced_slowdown = %.3f (untraced / traced msgs/s)\n",
              ratio(u.msgsPerS(), t.msgsPerS()));
  const double gpuDuty = ratio(t.gpu_busy_s, t.wall_s * kNodes);
  const double hotDuty = ratio(hotBusy, hotBusy + hotIdle);
  std::printf("  thread duty: gpu %.2f, runtime %.2f, node-0 resolver %.2f\n",
              gpuDuty, ratio(roleBusy, roleBusy + roleIdle), hotDuty);
  if (isAm(spec.kind)) printLatency(u);

  auto reg = [&](obs::Region r) { return region[std::size_t(r)]; };
  const double drops = double(faults.drops + faults.partition_drops);
  const double kbatch = batches / 1e3;
  const bool am = isAm(spec.kind);
  const std::vector<Metric> ms = {
      {"simt.kernel_ms_p50", "ms", quantile(t.kernel_ms, 0.5)},
      {"simt.produce_msgs_per_s", "1/s", rates[kSimt].per_s},
      {"simt.collectives_per_msg", "count",
       ratio(double(st.collective_ops), msgs)},
      {"simt.active_fraction", "ratio",
       ratio(double(st.active_arrivals), double(st.collective_arrivals))},
      {"simt.gpu_duty", "ratio", gpuDuty},
      {"queue.msgs_per_s", "1/s", rates[kQueue].per_s},
      {"queue.atomics_per_msg", "count", ratio(atomics, msgs)},
      {"agg.msgs_per_s", "1/s", rates[kAgg].per_s},
      {"agg.msgs_per_batch", "count", ratio(msgs, batches)},
      {"agg.locks_per_slot", "count",
       ratio(double(st.agg_lock_acquisitions), double(st.agg_slots))},
      {"agg.poll_fraction", "ratio", polls},
      {"agg.slot_ns_per_msg", "ns",
       ratio(reg(obs::Region::kAggSlot).self_ns, routed)},
      {"agg.route_ns_per_msg", "ns",
       ratio(reg(obs::Region::kAggRoute).self_ns, routed)},
      {"agg.flush_ns_per_batch", "ns",
       ratio(reg(obs::Region::kAggFlush).self_ns,
             reg(obs::Region::kAggFlush).count)},
      {"agg.timer_scan_ns_per_msg", "ns",
       ratio(reg(obs::Region::kAggTimerScan).self_ns, routed)},
      {"agg.shard_lock_wait_ns", "ns", ratio(shardWait, msgs)},
      {"resolve.msgs_per_s", "1/s", rates[kResolve].per_s},
      {"resolve.recv_ns_per_msg", "ns",
       ratio(reg(obs::Region::kNetRecv).self_ns, msgs)},
      {"resolve.hot_duty", "ratio", hotDuty},
      {"resolve.handler_ns_p50", "ns", quantile(t.span_ns, 0.5)},
      {"cluster.quiet_ms_p50", "ms", quantile(t.quiet_ms, 0.5)},
      {"cluster.pool_idle_share", "ratio",
       ratio(roleIdle, roleBusy + roleIdle)},
      {"fabric.batches_per_s", "1/s", rates[kFabric].per_s},
      {"fabric.wire_bytes_per_msg", "B", ratio(wireBytes, msgs)},
      {"fabric.inbox_lock_wait_ns", "ns", ratio(inboxWait, msgs)},
      {"lat.enqueue_to_aggregate_p50_us", "us", st.lat_stage_p50_ns[0] / 1e3},
      {"lat.aggregate_to_flush_p50_us", "us", st.lat_stage_p50_ns[1] / 1e3},
      {"lat.flush_to_wire_p50_us", "us", st.lat_stage_p50_ns[2] / 1e3},
      {"lat.wire_to_deliver_p50_us", "us", st.lat_stage_p50_ns[3] / 1e3},
      {"lat.deliver_to_resolve_p50_us", "us", st.lat_stage_p50_ns[4] / 1e3},
      {"rel.batches_per_s", "1/s", rates[kRel].per_s},
      {"rel.retransmits_per_kbatch", "count",
       ratio(double(st.retransmits), kbatch)},
      {"rel.spurious_retransmits_per_kbatch", "count",
       ratio(std::max(0.0, double(st.retransmits) - drops), kbatch)},
      {"rel.acks_per_batch", "count", ratio(double(st.acks_sent), batches)},
      {"rel.dup_drops", "count", double(st.dup_drops)},
      {"rel.useful_ratio", "ratio",
       ratio(batches, batches + double(st.retransmits))},
      {"rel.poll_ns_per_batch", "ns",
       ratio(reg(obs::Region::kRelRetransmit).self_ns, batches)},
      {"obs.traced_slowdown", "ratio", ratio(u.msgsPerS(), t.msgsPerS())},
      {"pipeline.msgs_per_s", "1/s", u.msgsPerS()},
      {"am.latency_p50_us", "us", am ? quantile(u.lat_ns, 0.5) / 1e3 : 0},
      {"am.latency_p99_us", "us", am ? quantile(u.lat_ns, 0.99) / 1e3 : 0},
      {"am.latency_samples", "count", double(u.lat_ns.size())},
      {"ceiling_layer", "id", double(ceiling)},
      {"composed_over_ceiling", "ratio", ratio(u.msgsPerS(), ceilingRate)},
  };
  printMetrics(ms);
  const bool ok = report("untraced", u.check) & report("traced", t.check);
  if (!driversOk) std::printf("  CHECK FAILED: an isolated driver lost work\n");
  const std::uint64_t attempted = u.check.attempted + t.check.attempted;
  const std::uint64_t failed = u.check.failed + t.check.failed;
  if (!ok || !driversOk) {
    printJson(false, attempted, std::max<std::uint64_t>(failed, 1), {});
    return 1;
  }
  printJson(true, attempted, 0, ms);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: gravel_perfbench --workload <gups|am-hot|am-chain|"
               "gups-lossy> --seed N --seconds S --trace 0|1 "
               "[--corrupt-expected]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = -1;
  bool corrupt = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--corrupt-expected") {
      corrupt = true;
      continue;
    }
    if (v == nullptr) return usage();
    ++i;
    if (a == "--workload") {
      for (const Spec& s : kSpecs)
        if (std::strcmp(s.name, v) == 0) spec = &s;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else {
      return usage();
    }
  }
  if (spec == nullptr || !(seconds > 0) || (trace != 0 && trace != 1))
    return usage();
  try {
    return trace == 0 ? runEndToEnd(*spec, seed, seconds, corrupt)
                      : runPerLayer(*spec, seed, seconds, corrupt);
  } catch (const std::exception& e) {
    std::printf("benchmark aborted: %s\n", e.what());
    return 1;
  }
}
