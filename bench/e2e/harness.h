// Runs one workload the way runExperiment does, optionally decorated for
// tracing, and turns the runs into the benchmark's metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/host.h"
#include "tracer.h"

namespace ppsched::e2e {

/// One simulation run of a workload. Host seconds are the thread's CPU
/// time, except where marked wall-clock (those pair with the spans).
struct Sample {
  RunResult result;
  std::uint64_t fingerprint = 0;
  /// Host seconds from the entry of Engine::run to the finished RunResult
  /// (run, MetricsCollector::finalize, network and shard reports).
  double runS = 0.0;
  /// Wall-clock seconds inside Engine::run alone.
  double engineRunWallS = 0.0;
  ISchedulerHost::PlanMemoStats engineMemo;
  ISchedulerHost::PlanMemoStats viewMemo;  ///< summed over shard views

  // Traced runs only.
  std::unique_ptr<Tracer> tracer;
  double engineSpansS = 0.0;  ///< top-level span wall time inside Engine::run
  std::uint64_t simEvents = 0;
  std::uint64_t flowEvents = 0;
};

/// Build the engine for `spec` exactly as runExperiment does, run it and
/// collect the result. `traced` wraps the policy, host, source and
/// finalize in timing spans and attaches a counting event sink.
/// Throws std::invalid_argument for spec features runExperiment handles
/// but the benchmark's workloads never use (prewarmCaches, sourceFactory).
[[nodiscard]] Sample runSample(const ExperimentSpec& spec, bool traced);

/// Set-up alone: build the engine for `spec`, then destroy it unrun.
/// Returns the host seconds from the spec to an engine ready to run: config
/// finalize, source open, policy, metrics collector, Engine constructor.
[[nodiscard]] double setupSample(const ExperimentSpec& spec);

/// Hash of every aggregate in `r` (speedup, waits, processedEvents, cache,
/// network and shard counters, per-user and per-class statistics): equal
/// fingerprints mean bit-identical results.
[[nodiscard]] std::uint64_t fingerprint(const RunResult& r);

/// Peak resident set size (VmHWM) of this process in MB; 0 without /proc.
[[nodiscard]] double peakRssMb();

struct Record {
  std::string metric;
  double value = 0.0;
  std::string unit;
};

/// Everything one benchmark process measured on one workload.
struct Measurement {
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
  std::vector<double> setupS;  ///< set-up alone, repeated
  double peakRssMb = 0.0;      ///< read after the untraced runs
  double inputGenS = 0.0;
  std::size_t jobsRequested = 0;  ///< over all runs, failed ones included
  std::size_t jobsCompleted = 0;
};

/// End-to-end metrics from the untraced runs: host-time medians with their
/// quartiles (`<metric>.q1`, `<metric>.q3`), peak RSS, the simulated
/// outcomes and the failed-job fraction. Empty without untraced runs.
[[nodiscard]] std::vector<Record> endToEndRecords(const Measurement& m);

/// Per-layer metrics: for each metric, the median over the traced runs.
/// Empty without traced runs; trace.overhead_frac also needs untraced ones.
[[nodiscard]] std::vector<Record> layerRecords(const Measurement& m);

}  // namespace ppsched::e2e
