// ppsched_e2e: the end-to-end benchmark of the simulator.
//
//   ppsched_e2e --workload NAME [--seed S] [--runs N] [--seconds T]
//               [--trace 0|1] [--scale F] [--workdir DIR]
//   ppsched_e2e --write-json LINES --out DIR
//   ppsched_e2e --list
//
// A measuring invocation runs one workload in this process, single-
// threaded. It first checks that the benchmark-built engine reproduces
// runExperiment bit for bit and times set-up alone, then makes at least N
// untraced runs (default 5) until T seconds have passed, which give the
// end-to-end metrics. With --trace 1 the untraced runs get half the time
// and traced runs (at least one) fill the rest; they give the per-layer
// metrics. Every metric is printed to stdout as
// `workload metric value unit`; the last line is one JSON object with the
// metrics BENCHMARK.json declares (end-to-end ones, or per-layer ones with
// --trace 1). The exit code is 1 when a correctness check failed.
//
// --write-json reads such metric lines (from several workloads) and writes
// DIR/BENCH_e2e.json and DIR/BENCH_e2e_layers.json (ppsched-bench-v1,
// series = workload).
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness.h"
#include "workloads.h"

namespace {

using namespace ppsched;
using namespace ppsched::e2e;

// The metrics BENCHMARK.json declares; the last output line carries exactly
// these. The others are printed and written to JSON all the same.
const std::vector<std::string> kContractEndToEnd{"sim_jobs_per_s", "setup_s", "peak_rss_mb",
                                                 "speedup_mean"};
const std::vector<std::string> kContractLayers{
    "sched.calls",
    "sched.self_s",
    "sched.arrival_s",
    "sched.run_finished_s",
    "sched.call_p50_us",
    "sched.call_p99_us",
    "host.plan_access.calls",
    "host.plan_memo_hit_frac",
    "host.start_run.calls",
    "host.start_run_s",
    "engine.self_s",
    "engine.sim_events",
    "engine.self_ns_per_sim_event",
    "engine.flow_events",
    "workload.next.calls",
    "workload.next_s",
    "workload.next_us_per_job",
    "metrics.finalize_s",
    "shard.steals",
    "shard.stale_steals",
    "net.flows",
    "net.peak_concurrent_flows",
    "net.remote_gb",
    "net.tertiary_gb",
    "net.replication_gb",
    "net.max_link_util",
    "cache.hit_frac",
    "cache.remote_frac",
    "cache.tertiary_events",
    "cache.replicated_events",
    "cache.prefetched_events",
    "trace.overhead_frac",
};

int usage() {
  std::fprintf(stderr,
               "usage: ppsched_e2e --workload NAME [--seed S] [--runs N] [--seconds T]\n"
               "                   [--trace 0|1] [--scale F] [--workdir DIR]\n"
               "       ppsched_e2e --write-json LINES --out DIR\n"
               "       ppsched_e2e --list\n");
  return 2;
}

/// Layer metrics are named `<layer>.<name>`; end-to-end ones have no dot
/// apart from a `.q1`/`.q3` quartile suffix.
bool isLayerMetric(std::string metric) {
  for (const char* suffix : {".q1", ".q3"}) {
    if (metric.size() > 3 && metric.compare(metric.size() - 3, 3, suffix) == 0) {
      metric.resize(metric.size() - 3);
    }
  }
  return metric.find('.') != std::string::npos;
}

int writeJson(const std::string& linesPath, const std::string& dir) {
  std::ifstream in(linesPath);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", linesPath.c_str());
    return 2;
  }
  std::vector<bench::PerfRecord> endToEnd;
  std::vector<bench::PerfRecord> layers;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    bench::PerfRecord r;
    if (!(fields >> r.series >> r.metric >> r.value >> r.unit)) continue;
    (isLayerMetric(r.metric) ? layers : endToEnd).push_back(r);
  }
  for (const auto& [name, records] : {std::pair{"e2e", &endToEnd}, {"e2e_layers", &layers}}) {
    const std::string path = bench::writeBenchJson(dir, name, *records);
    if (path.empty()) {
      std::fprintf(stderr, "cannot write %s/BENCH_%s.json\n", dir.c_str(), name);
      return 2;
    }
    std::fprintf(stderr, "wrote %s (%zu records)\n", path.c_str(), records->size());
  }
  return 0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::size_t runs = 5;
  double seconds = 0.0;
  bool trace = false;
  double scale = 1.0;
  std::string workdir = ".";
};

/// The JSON object of the last output line.
void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Record>& records, const std::vector<std::string>& names) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const std::string& name : names) {
    for (const Record& r : records) {
      if (r.metric != name) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(), r.value,
                  r.unit.c_str());
      sep = ", ";
    }
  }
  std::printf("}}\n");
}

int measure(const Options& opt) {
  using Clock = std::chrono::steady_clock;
  Workload w(opt.workload, opt.seed, opt.scale, opt.workdir);
  const ExperimentSpec& spec = w.spec();
  bool correct = true;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "%s: %s\n", w.name().c_str(), what.c_str());
    correct = false;
  };

  // The benchmark builds the engine itself; it must reproduce the library's
  // own experiment path bit for bit.
  const std::uint64_t reference = fingerprint(runExperiment(spec));

  Measurement m;
  m.inputGenS = w.inputGenS();
  for (int i = 0; i < 101; ++i) m.setupS.push_back(setupSample(spec));

  const auto start = Clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto runOne = [&](bool traced, std::vector<Sample>& into) {
    m.jobsRequested += w.jobsPerRun();
    try {
      Sample s = runSample(spec, traced);
      const char* kind = traced ? "traced run" : "untraced run";
      if (s.fingerprint != reference) {
        fail(std::string(kind) + " differs from runExperiment");
      }
      if (s.result.measuredJobs != spec.measuredJobs || s.result.completedJobs != w.jobsPerRun()) {
        fail(std::string(kind) + " completed " + std::to_string(s.result.completedJobs) +
             " jobs (" + std::to_string(s.result.measuredJobs) + " measured), requested " +
             std::to_string(w.jobsPerRun()) + " (" + std::to_string(spec.measuredJobs) + ")");
      }
      if (s.result.overloaded) fail(std::string(kind) + " overloaded");
      m.jobsCompleted += s.result.completedJobs;
      into.push_back(std::move(s));
    } catch (const std::exception& e) {
      fail(std::string("run threw: ") + e.what());
    }
  };

  const double untracedBudget = opt.trace ? opt.seconds / 2 : opt.seconds;
  while (m.untraced.size() < opt.runs || elapsed() < untracedBudget) {
    runOne(false, m.untraced);
    if (!correct) break;
  }
  m.peakRssMb = peakRssMb();
  if (opt.trace && correct) {
    while (m.traced.empty() || elapsed() < opt.seconds) {
      runOne(true, m.traced);
      if (!correct) break;
    }
  }

  const std::vector<Record> endToEnd = endToEndRecords(m);
  const std::vector<Record> layers = layerRecords(m);
  for (const std::vector<Record>* records : {&endToEnd, &layers}) {
    for (const Record& r : *records) {
      std::printf("%s %s %.17g %s\n", w.name().c_str(), r.metric.c_str(), r.value,
                  r.unit.c_str());
    }
  }
  std::fprintf(stderr, "%s: seed %llu, %zu untraced + %zu traced runs of %zu jobs, %.1f s\n",
               w.name().c_str(), static_cast<unsigned long long>(opt.seed), m.untraced.size(),
               m.traced.size(), w.jobsPerRun(), elapsed());
  printResult(correct, m.jobsRequested, m.jobsRequested - m.jobsCompleted,
              opt.trace ? layers : endToEnd, opt.trace ? kContractLayers : kContractEndToEnd);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string linesPath;
  std::string outDir;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--list") {
        for (const std::string& name : workloadNames()) std::printf("%s\n", name.c_str());
        return 0;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--runs") {
        opt.runs = std::stoul(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        opt.trace = value == "1";
      } else if (arg == "--scale") {
        opt.scale = std::stod(value);
      } else if (arg == "--workdir") {
        opt.workdir = value;
      } else if (arg == "--write-json") {
        linesPath = value;
      } else if (arg == "--out") {
        outDir = value;
      } else {
        return usage();
      }
    }
    if (!linesPath.empty()) return outDir.empty() ? usage() : writeJson(linesPath, outDir);
    if (opt.workload.empty() || opt.runs == 0) return usage();
    return measure(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppsched_e2e: %s\n", e.what());
    return 2;
  }
}
