#include "harness.h"

#include <time.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "core/engine.h"
#include "decorators.h"
#include "shard/coordinator.h"

namespace ppsched::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time consumed by the calling thread. Host-time metrics use it rather
/// than wall time: on a shared machine, time the thread spends descheduled
/// belongs to other tenants, not to the simulator.
double threadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// An engine ready to run, built as runExperiment builds it.
struct Built {
  std::unique_ptr<MetricsCollector> metrics;  // must outlive the engine
  std::unique_ptr<Engine> engine;
  ShardedCoordinator* coordinator = nullptr;
  StopCondition stop;
};

Built build(const ExperimentSpec& spec, Tracer* tracer) {
  if (spec.prewarmCaches || spec.sourceFactory) {
    throw std::invalid_argument("benchmark harness: prewarmCaches/sourceFactory unsupported");
  }
  SimConfig cfg = spec.sim;
  cfg.workload.jobsPerHour = spec.jobsPerHour;
  cfg.finalize();

  std::unique_ptr<JobSource> source;
  if (!spec.tracePath.empty()) {
    source = openTraceSource(spec.tracePath, cfg, spec.policyParams.qos.interactiveGroups);
  } else {
    source = std::make_unique<WorkloadGenerator>(cfg.workload, spec.seed);
  }
  if (tracer != nullptr) source = std::make_unique<TimedSource>(std::move(source), *tracer);

  Built b;
  std::unique_ptr<ISchedulerPolicy> policy;
  if (cfg.shards.enabled()) {
    auto coordinator = std::make_unique<ShardedCoordinator>(
        cfg.shards, [name = spec.policyName, params = spec.policyParams,
                     tracer]() -> std::unique_ptr<ISchedulerPolicy> {
          auto inner = makePolicy(name, params);
          if (tracer == nullptr) return inner;
          return std::make_unique<TimedPolicy>(std::move(inner), *tracer, SpanKind::ShardInner);
        });
    b.coordinator = coordinator.get();
    policy = std::move(coordinator);
  } else {
    policy = makePolicy(spec.policyName, spec.policyParams);
  }
  if (tracer != nullptr) policy = std::make_unique<TimedPolicy>(std::move(policy), *tracer);

  b.metrics = std::make_unique<MetricsCollector>(cfg.cost, WarmupConfig{spec.warmupJobs, 0.0});
  b.metrics->setQosWeights(spec.policyParams.qos.bulkWeight,
                           spec.policyParams.qos.interactiveWeight);
  b.engine = std::make_unique<Engine>(cfg, std::move(source), std::move(policy), *b.metrics);

  b.stop.completedJobs = spec.warmupJobs + spec.measuredJobs;
  b.stop.maxJobsInSystem = spec.maxJobsInSystem;
  const double expectedHours =
      static_cast<double>(b.stop.completedJobs) / std::max(0.01, spec.jobsPerHour);
  b.stop.simTimeLimit = 10.0 * expectedHours * units::hour + 30 * units::day;
  return b;
}

/// FNV-1a over the bit patterns of the values fed to it.
class Hasher {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add(bits);
  }
  void add(bool x) { add(static_cast<std::uint64_t>(x)); }
  void add(int x) { add(static_cast<std::uint64_t>(x)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

double median(const std::vector<double>& v) {
  SampleSet s;
  for (double x : v) s.add(x);
  return s.quantile(0.5);
}

double hitFrac(ISchedulerHost::PlanMemoStats a, ISchedulerHost::PlanMemoStats b) {
  const std::uint64_t lookups = a.lookups + b.lookups;
  return lookups == 0 ? 0.0
                      : static_cast<double>(a.hits + b.hits) / static_cast<double>(lookups);
}

std::vector<Record> layerRecordsOf(const Sample& s, double untracedRunS) {
  const Tracer& t = *s.tracer;
  auto total = [&t](SpanKind k) { return t.stats(k).totalS; };
  auto count = [&t](SpanKind k) { return static_cast<double>(t.stats(k).count); };
  const std::vector<SpanKind> sched{SpanKind::SchedArrival, SpanKind::SchedRunFinished,
                                    SpanKind::SchedTimer, SpanKind::SchedNodeEvent};
  double schedCalls = 0.0;
  double schedSelf = 0.0;
  for (const SpanKind k : sched) {
    schedCalls += count(k);
    schedSelf += t.stats(k).selfS;
  }
  const double engineSelf = s.engineRunWallS - s.engineSpansS;
  const double nextCalls = count(SpanKind::WorkloadNext);
  const RunResult& r = s.result;
  const NetworkReport& n = r.network;
  const ShardReport& sh = r.shards;
  auto perCall = [](double totalS, double calls, double unit) {
    return calls > 0.0 ? totalS * unit / calls : 0.0;
  };
  return {
      {"sched.calls", schedCalls, "count"},
      {"sched.self_s", schedSelf, "s"},
      {"sched.arrival_s", total(SpanKind::SchedArrival), "s"},
      {"sched.run_finished_s", total(SpanKind::SchedRunFinished), "s"},
      {"sched.timer_s", total(SpanKind::SchedTimer), "s"},
      {"sched.node_event_s", total(SpanKind::SchedNodeEvent), "s"},
      {"sched.call_p50_us", histogramQuantile(t, sched, 0.50) * 1e6, "us"},
      {"sched.call_p99_us", histogramQuantile(t, sched, 0.99) * 1e6, "us"},
      {"host.plan_access.calls", count(SpanKind::HostPlanAccess), "count"},
      {"host.plan_access_s", total(SpanKind::HostPlanAccess), "s"},
      {"host.plan_memo_hit_frac", hitFrac(s.engineMemo, s.viewMemo), "fraction"},
      {"host.rank_placements_s", total(SpanKind::HostRankPlacements), "s"},
      {"host.estimate_s", total(SpanKind::HostEstimate), "s"},
      {"host.start_run.calls", count(SpanKind::HostStartRun), "count"},
      {"host.start_run_s", total(SpanKind::HostStartRun), "s"},
      {"host.preempt_s", total(SpanKind::HostPreempt), "s"},
      {"host.prefetch_s", total(SpanKind::HostPrefetch), "s"},
      {"host.idle_nodes_s", total(SpanKind::HostIdleNodes), "s"},
      {"engine.self_s", engineSelf, "s"},
      {"engine.sim_events", static_cast<double>(s.simEvents), "count"},
      {"engine.self_ns_per_sim_event", perCall(engineSelf, static_cast<double>(s.simEvents), 1e9),
       "ns"},
      {"engine.flow_events", static_cast<double>(s.flowEvents), "count"},
      {"workload.next.calls", nextCalls, "count"},
      {"workload.next_s", total(SpanKind::WorkloadNext), "s"},
      {"workload.next_us_per_job", perCall(total(SpanKind::WorkloadNext), nextCalls, 1e6), "us"},
      {"metrics.finalize_s", total(SpanKind::MetricsFinalize), "s"},
      {"shard.coordinator_self_s", sh.enabled ? schedSelf : 0.0, "s"},
      {"shard.inner_s", total(SpanKind::ShardInner), "s"},
      {"shard.steals", static_cast<double>(sh.steals), "count"},
      {"shard.stale_steals", static_cast<double>(sh.staleSteals), "count"},
      {"shard.digest_age_mean_s", sh.meanDigestAgeSec, "s"},
      {"shard.view_plan_memo_hit_frac", hitFrac(s.viewMemo, {}), "fraction"},
      {"net.flows", static_cast<double>(n.flowsOpened), "count"},
      {"net.peak_concurrent_flows", static_cast<double>(n.maxConcurrentFlows), "count"},
      {"net.remote_gb", n.remoteBytes / 1e9, "GB"},
      {"net.tertiary_gb", n.tertiaryBytes / 1e9, "GB"},
      {"net.replication_gb", n.replicationBytes / 1e9, "GB"},
      {"net.max_link_util", n.maxLinkUtilization, "fraction"},
      {"cache.hit_frac", r.cacheHitFraction, "fraction"},
      {"cache.remote_frac", r.remoteReadFraction, "fraction"},
      {"cache.tertiary_events", static_cast<double>(r.tertiaryEvents), "count"},
      {"cache.replicated_events", static_cast<double>(r.replicatedEvents), "count"},
      {"cache.prefetched_events", static_cast<double>(r.prefetchedEvents), "count"},
      {"trace.overhead_frac", untracedRunS > 0.0 ? s.runS / untracedRunS - 1.0 : 0.0,
       "fraction"},
  };
}

}  // namespace

Sample runSample(const ExperimentSpec& spec, bool traced) {
  Sample out;
  if (traced) out.tracer = std::make_unique<Tracer>();
  Tracer* tracer = out.tracer.get();
  CountingSink sink;  // declared before the engine, which points at it

  Built b = build(spec, tracer);
  if (traced) b.engine->setEventSink(&sink);
  const double cpu0 = threadCpuS();
  const auto t1 = Clock::now();
  const double spansBefore = traced ? tracer->topLevelS() : 0.0;
  b.engine->run(b.stop);
  const auto t2 = Clock::now();
  const double spansInRun = traced ? tracer->topLevelS() - spansBefore : 0.0;
  {
    std::optional<Span> span;
    if (traced) span.emplace(*tracer, SpanKind::MetricsFinalize);
    out.result = b.metrics->finalize(b.engine->now(), spec.withHistogram);
  }
  out.result.network = b.engine->networkReport();
  if (b.coordinator != nullptr) out.result.shards = b.coordinator->report();
  out.runS = threadCpuS() - cpu0;
  out.engineRunWallS = seconds(t1, t2);
  out.fingerprint = fingerprint(out.result);
  out.engineMemo = b.engine->planMemoStats();
  if (b.coordinator != nullptr) out.viewMemo = b.coordinator->viewPlanMemoStats();
  if (traced) {
    out.engineSpansS = spansInRun;
    out.simEvents = sink.events;
    out.flowEvents = sink.flowEvents;
  }
  return out;
}

double setupSample(const ExperimentSpec& spec) {
  const double cpu0 = threadCpuS();
  Built b = build(spec, nullptr);
  return threadCpuS() - cpu0;
}

std::uint64_t fingerprint(const RunResult& r) {
  Hasher h;
  for (const std::size_t x : {r.arrivedJobs, r.completedJobs, r.measuredJobs}) h.add(x);
  for (const double x : {r.avgSpeedup, r.avgProcessing, r.avgWait, r.avgWaitExDelay,
                         r.medianWait, r.p95Wait, r.maxWait, r.cacheHitFraction,
                         r.remoteReadFraction, r.avgJobsInSystem, r.inSystemSlopePerHour,
                         r.throughputJobsPerHour, r.simulatedTime, r.userFairness,
                         r.weightedUserFairness}) {
    h.add(x);
  }
  for (const std::uint64_t x : {r.replicatedEvents, r.replicationOps, r.prefetchedEvents,
                                r.prefetchOps, r.tertiaryEvents, r.processedEvents,
                                r.nodeFailures, r.lostRuns, r.lostEvents}) {
    h.add(x);
  }
  h.add(r.abortedOverloaded);
  h.add(r.overloaded);
  for (const UserStats& u : r.userStats) {
    h.add(static_cast<std::uint64_t>(u.user));
    h.add(u.jobs);
    h.add(u.meanWait);
    h.add(u.p95Wait);
    h.add(u.servedEvents);
    h.add(u.eventShare);
  }
  for (const ClassStats& c : r.classStats) {
    h.add(static_cast<int>(c.cls));
    h.add(c.jobs);
    h.add(c.meanWait);
    h.add(c.p95Wait);
    h.add(c.p99Wait);
    h.add(c.servedEvents);
    h.add(c.eventShare);
  }
  const NetworkReport& n = r.network;
  h.add(n.enabled);
  for (const LinkReport& l : n.links) h.add(l.utilization);
  for (const double x : {n.maxLinkUtilization, n.remoteBytes, n.tertiaryBytes,
                         n.replicationBytes, n.prefetchBytes}) {
    h.add(x);
  }
  for (const std::uint64_t x : {n.flowsOpened, n.remoteFlows, n.tertiaryFlows,
                                n.replicationFlows, n.prefetchFlows, n.maxConcurrentFlows}) {
    h.add(x);
  }
  const ShardReport& s = r.shards;
  h.add(s.enabled);
  h.add(s.count);
  for (const std::size_t x : {s.steals, s.stealAttempts, s.staleSteals, s.digestRefreshes,
                              s.digestAgeSamples}) {
    h.add(x);
  }
  h.add(s.meanDigestAgeSec);
  for (const std::uint64_t x : s.digestAgeHistogram) h.add(x);
  for (const ShardStats& st : s.shards) {
    for (const std::size_t x : {st.jobsRouted, st.jobsStolenIn, st.jobsStolenOut,
                                st.jobsRehomed, st.peakQueueDepth}) {
      h.add(x);
    }
    h.add(st.meanQueueDepth);
  }
  return h.value();
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 20, '\n');
  }
  return 0.0;
}

std::vector<Record> endToEndRecords(const Measurement& m) {
  if (m.untraced.empty()) return {};
  std::vector<Record> out;
  auto hostTime = [&out](const std::string& metric, const std::vector<double>& values,
                         const std::string& unit) {
    SampleSet s;
    for (double x : values) s.add(x);
    out.push_back({metric, s.quantile(0.5), unit});
    out.push_back({metric + ".q1", s.quantile(0.25), unit});
    out.push_back({metric + ".q3", s.quantile(0.75), unit});
  };
  std::vector<double> jobsPerS;
  for (const Sample& s : m.untraced) {
    jobsPerS.push_back(static_cast<double>(s.result.completedJobs) / s.runS);
  }
  hostTime("sim_jobs_per_s", jobsPerS, "1/s");
  hostTime("setup_s", m.setupS, "s");
  out.push_back({"peak_rss_mb", m.peakRssMb, "MB"});
  // Simulated outcomes repeat exactly across runs (the fingerprint gate).
  const RunResult& r = m.untraced.front().result;
  out.push_back({"speedup_mean", r.avgSpeedup, "x"});
  out.push_back({"wait_mean_h", units::toHours(r.avgWait), "h"});
  out.push_back({"wait_p50_h", units::toHours(r.medianWait), "h"});
  out.push_back({"wait_p95_h", units::toHours(r.p95Wait), "h"});
  const double requested = static_cast<double>(m.jobsRequested);
  out.push_back({"jobs_failed_frac",
                 requested > 0.0 ? (requested - static_cast<double>(m.jobsCompleted)) / requested
                                 : 0.0,
                 "fraction"});
  out.push_back({"input_gen_s", m.inputGenS, "s"});
  return out;
}

std::vector<Record> layerRecords(const Measurement& m) {
  if (m.traced.empty()) return {};
  std::vector<double> untracedRunS;
  for (const Sample& s : m.untraced) untracedRunS.push_back(s.runS);
  const double baseline = untracedRunS.empty() ? 0.0 : median(untracedRunS);
  std::vector<std::vector<Record>> perRun;
  for (const Sample& s : m.traced) perRun.push_back(layerRecordsOf(s, baseline));
  std::vector<Record> out = perRun.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const std::vector<Record>& run : perRun) values.push_back(run[i].value);
    out[i].value = median(values);
  }
  return out;
}

}  // namespace ppsched::e2e
