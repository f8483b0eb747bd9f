// In-memory span tracer for the end-to-end benchmark's traced run.
//
// Spans are recorded from outside the library, around the calls the
// benchmark's decorators intercept (decorators.h). They form a stack: a span
// opened while another is open is its child, and a span's self time is its
// duration minus the time its children cover. Nothing is written while the
// simulation runs; each span kind aggregates count, total, self time and a
// log-bucket duration histogram, read out once the run is over.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/stats.h"

namespace ppsched::e2e {

/// One layer boundary the benchmark times.
enum class SpanKind : std::uint8_t {
  SchedArrival,      ///< ISchedulerPolicy::onJobArrival
  SchedRunFinished,  ///< ISchedulerPolicy::onRunFinished
  SchedTimer,        ///< ISchedulerPolicy::onTimer
  SchedNodeEvent,    ///< ISchedulerPolicy::onNodeDown / onNodeUp
  HostPlanAccess,    ///< ISchedulerHost::planAccess, called by the policy
  HostRankPlacements,
  HostEstimate,      ///< ISchedulerHost::estimatedSecPerEvent
  HostStartRun,
  HostPreempt,
  HostPrefetch,
  HostIdleNodes,
  WorkloadNext,      ///< JobSource::next
  MetricsFinalize,   ///< MetricsCollector::finalize
  ShardInner,        ///< any callback of a shard's inner policy
  Count,
};

inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::Count);

/// Aggregate of every span of one kind.
struct SpanStats {
  std::uint64_t count = 0;
  double totalS = 0.0;
  double selfS = 0.0;
  /// Durations from 10 ns to 10 s, 30 buckets per decade (~8% wide).
  LogHistogram histogram{1e-8, 10.0, 270};
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  void begin(SpanKind kind) { stack_.push_back({kind, Clock::now(), 0.0}); }

  void end() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const double d = std::chrono::duration<double>(Clock::now() - f.start).count();
    SpanStats& s = stats_[static_cast<std::size_t>(f.kind)];
    ++s.count;
    s.totalS += d;
    s.selfS += d - f.childS;
    s.histogram.add(d);
    if (stack_.empty()) {
      topLevelS_ += d;
    } else {
      stack_.back().childS += d;
    }
  }

  [[nodiscard]] const SpanStats& stats(SpanKind kind) const {
    return stats_[static_cast<std::size_t>(kind)];
  }
  /// Summed duration of every span that had no open parent.
  [[nodiscard]] double topLevelS() const { return topLevelS_; }

 private:
  struct Frame {
    SpanKind kind;
    Clock::time_point start;
    double childS;
  };
  std::vector<Frame> stack_;
  std::array<SpanStats, kSpanKinds> stats_{};
  double topLevelS_ = 0.0;
};

/// RAII span: open on construction, closed on scope exit (exceptions too).
class Span {
 public:
  Span(Tracer& tracer, SpanKind kind) : tracer_(tracer) { tracer_.begin(kind); }
  ~Span() { tracer_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

/// Quantile `q` of the durations in `kinds`' histograms (which share one
/// bucket layout), interpolated linearly inside the bucket holding the rank.
/// 0 when no span of those kinds was recorded.
[[nodiscard]] inline double histogramQuantile(const Tracer& tracer,
                                              const std::vector<SpanKind>& kinds, double q) {
  const LogHistogram& layout = tracer.stats(kinds.front()).histogram;
  std::vector<std::uint64_t> counts(layout.bucketCount(), 0);
  std::uint64_t total = 0;
  for (const SpanKind k : kinds) {
    const LogHistogram& h = tracer.stats(k).histogram;
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += h.countInBucket(i);
    total += h.total();
  }
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(below + counts[i]) >= rank) {
      const double frac = (rank - static_cast<double>(below)) / static_cast<double>(counts[i]);
      return layout.bucketLow(i) + frac * (layout.bucketHigh(i) - layout.bucketLow(i));
    }
    below += counts[i];
  }
  return layout.bucketHigh(counts.size() - 1);
}

}  // namespace ppsched::e2e
