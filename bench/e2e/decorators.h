// Timing decorators for the traced run: they wrap the library's public
// interfaces and record a span around each intercepted call, so the layer
// profile is measured without touching src/.
//
//   TimedPolicy  ISchedulerPolicy callbacks (the engine -> policy boundary).
//                The outer decorator also binds its policy to a TimedHost;
//                a shard's inner policy gets one that times callbacks only.
//   TimedHost    the policy -> host calls that do work (planAccess,
//                rankPlacements, estimatedSecPerEvent, startRun, preempt,
//                prefetch, idleNodes). Every other call is forwarded
//                untimed; planEpoch in particular must reach the engine so
//                the engine's planAccess memo still works.
//   TimedSource  JobSource::next.
//   CountingSink counts the engine's SimEvents (and the flow events).
//
// None of them changes what the wrapped object does, so a decorated run is
// bit-identical to an undecorated one (the smoke test checks this).
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/event_log.h"
#include "core/policy.h"
#include "tracer.h"
#include "workload/generator.h"

namespace ppsched::e2e {

class TimedHost final : public ISchedulerHost {
 public:
  TimedHost(ISchedulerHost& real, Tracer& tracer) : real_(real), tracer_(tracer) {}

  // --- forwarded untimed ----------------------------------------------------
  [[nodiscard]] SimTime now() const override { return real_.now(); }
  [[nodiscard]] const SimConfig& config() const override { return real_.config(); }
  [[nodiscard]] int numNodes() const override { return real_.numNodes(); }
  [[nodiscard]] Cluster& cluster() override { return real_.cluster(); }
  [[nodiscard]] bool isUp(NodeId node) const override { return real_.isUp(node); }
  [[nodiscard]] bool isIdle(NodeId node) const override { return real_.isIdle(node); }
  [[nodiscard]] RunningView running(NodeId node) const override { return real_.running(node); }
  [[nodiscard]] const Job& job(JobId id) const override { return real_.job(id); }
  [[nodiscard]] const IntervalSet& remainingOf(JobId id) const override {
    return real_.remainingOf(id);
  }
  [[nodiscard]] bool jobDone(JobId id) const override { return real_.jobDone(id); }
  [[nodiscard]] std::size_t jobsInSystem() const override { return real_.jobsInSystem(); }
  TimerId scheduleTimer(SimTime at) override { return real_.scheduleTimer(at); }
  void cancelTimer(TimerId id) override { real_.cancelTimer(id); }
  ActionId at(SimTime when, std::function<void()> action) override {
    return real_.at(when, std::move(action));
  }
  void deferLost(Subjob sj) override { real_.deferLost(std::move(sj)); }
  void noteSchedulingDelay(JobId id, Duration delay) override {
    real_.noteSchedulingDelay(id, delay);
  }
  [[nodiscard]] bool sameSwitch(NodeId a, NodeId b) const override {
    return real_.sameSwitch(a, b);
  }
  [[nodiscard]] double estimatedTransferBytesPerSec(NodeId dst, NodeId src) const override {
    return real_.estimatedTransferBytesPerSec(dst, src);
  }
  [[nodiscard]] std::uint64_t planEpoch() const override { return real_.planEpoch(); }

  // --- timed ------------------------------------------------------------------
  [[nodiscard]] std::vector<NodeId> idleNodes() const override {
    Span s(tracer_, SpanKind::HostIdleNodes);
    return real_.idleNodes();
  }
  void startRun(NodeId node, Subjob sj, AccessPlan plan = {}) override {
    Span s(tracer_, SpanKind::HostStartRun);
    real_.startRun(node, std::move(sj), plan);
  }
  using ISchedulerHost::startRun;
  void prefetch(NodeId dst, EventRange range, AccessPlan plan = {}) override {
    Span s(tracer_, SpanKind::HostPrefetch);
    real_.prefetch(dst, range, plan);
  }
  Subjob preempt(NodeId node) override {
    Span s(tracer_, SpanKind::HostPreempt);
    return real_.preempt(node);
  }
  [[nodiscard]] double estimatedSecPerEvent(NodeId node, NodeId remoteFrom,
                                            DataSource src) const override {
    Span s(tracer_, SpanKind::HostEstimate);
    return real_.estimatedSecPerEvent(node, remoteFrom, src);
  }
  [[nodiscard]] std::vector<PlacementCandidate> rankPlacements(NodeId dst,
                                                               EventRange range) override {
    Span s(tracer_, SpanKind::HostRankPlacements);
    return real_.rankPlacements(dst, range);
  }
  [[nodiscard]] std::vector<AccessPlan> planAccess(NodeId dst, EventRange range,
                                                   AccessGoal goal = {}) override {
    Span s(tracer_, SpanKind::HostPlanAccess);
    return real_.planAccess(dst, range, goal);
  }

 private:
  ISchedulerHost& real_;
  Tracer& tracer_;
};

class TimedPolicy final : public ISchedulerPolicy {
 public:
  /// Outer decorator: each callback kind gets its own span kind, and the
  /// wrapped policy talks to the host through a TimedHost.
  TimedPolicy(std::unique_ptr<ISchedulerPolicy> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  /// Callback-only decorator: every callback is one `kind` span and the
  /// wrapped policy is bound to the host it is given.
  TimedPolicy(std::unique_ptr<ISchedulerPolicy> inner, Tracer& tracer, SpanKind kind)
      : inner_(std::move(inner)), tracer_(tracer), allAs_(kind) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool usesCaching() const override { return inner_->usesCaching(); }

  void bind(ISchedulerHost& host) override {
    ISchedulerPolicy::bind(host);
    if (allAs_) {
      inner_->bind(host);
    } else {
      timedHost_ = std::make_unique<TimedHost>(host, tracer_);
      inner_->bind(*timedHost_);
    }
  }
  void onJobArrival(const Job& job) override {
    Span s(tracer_, kind(SpanKind::SchedArrival));
    inner_->onJobArrival(job);
  }
  void onRunFinished(NodeId node, const RunReport& report) override {
    Span s(tracer_, kind(SpanKind::SchedRunFinished));
    inner_->onRunFinished(node, report);
  }
  void onTimer(TimerId timer) override {
    Span s(tracer_, kind(SpanKind::SchedTimer));
    inner_->onTimer(timer);
  }
  void onNodeDown(NodeId node, const RunReport* lost) override {
    Span s(tracer_, kind(SpanKind::SchedNodeEvent));
    inner_->onNodeDown(node, lost);
  }
  void onNodeUp(NodeId node) override {
    Span s(tracer_, kind(SpanKind::SchedNodeEvent));
    inner_->onNodeUp(node);
  }

 private:
  [[nodiscard]] SpanKind kind(SpanKind callback) const { return allAs_.value_or(callback); }

  // Declared first so it outlives inner_, which holds a reference to it.
  std::unique_ptr<TimedHost> timedHost_;
  std::unique_ptr<ISchedulerPolicy> inner_;
  Tracer& tracer_;
  std::optional<SpanKind> allAs_;
};

class TimedSource final : public JobSource {
 public:
  TimedSource(std::unique_ptr<JobSource> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::optional<Job> next() override {
    Span s(tracer_, SpanKind::WorkloadNext);
    return inner_->next();
  }

 private:
  std::unique_ptr<JobSource> inner_;
  Tracer& tracer_;
};

class CountingSink final : public IEventSink {
 public:
  void record(const SimEvent& event) override {
    ++events;
    if (event.kind == SimEventKind::FlowOpen || event.kind == SimEventKind::FlowClose) {
      ++flowEvents;
    }
  }

  std::uint64_t events = 0;
  std::uint64_t flowEvents = 0;
};

}  // namespace ppsched::e2e
