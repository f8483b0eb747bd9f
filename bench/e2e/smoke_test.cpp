// bench_e2e_smoke: every workload at 1/50 size.
//
//   - The benchmark-built engine, undecorated and decorated, reproduces
//     runExperiment bit for bit, and no span's self time is negative.
//   - The ppsched_e2e binary (argv[1]) runs each workload once, untraced
//     and traced; its JSON output holds every metric the benchmark
//     defines, and its last line carries exactly the metrics BENCHMARK.json
//     declares.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace ppsched;
using namespace ppsched::e2e;

constexpr double kScale = 0.02;
int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The `"name": "..."` values inside BENCHMARK.json's `section` array.
std::set<std::string> declaredNames(const std::string& json, const std::string& section) {
  std::set<std::string> names;
  const std::size_t begin = json.find("\"" + section + "\"");
  if (begin == std::string::npos) return names;
  const std::size_t end = json.find(']', begin);
  const std::string key = "\"name\": \"";
  for (std::size_t at = json.find(key, begin); at < end; at = json.find(key, at + 1)) {
    const std::size_t from = at + key.size();
    names.insert(json.substr(from, json.find('"', from) - from));
  }
  return names;
}

/// Metric names of a result line `{"correct": ..., "metrics": {"m": {...}, ...}}`.
std::set<std::string> resultNames(const std::string& line) {
  std::set<std::string> names;
  const std::size_t metrics = line.find("\"metrics\"");
  for (std::size_t at = line.find("\": {\"value\"", metrics); at != std::string::npos;
       at = line.find("\": {\"value\"", at + 1)) {
    const std::size_t open = line.rfind('"', at - 1);
    names.insert(line.substr(open + 1, at - open - 1));
  }
  return names;
}

std::string lastLine(const std::string& text) {
  const std::size_t end = text.find_last_not_of('\n');
  if (end == std::string::npos) return "";
  const std::size_t begin = text.rfind('\n', end);
  return text.substr(begin == std::string::npos ? 0 : begin + 1, end + 1 - (begin + 1));
}

void checkInProcess(const Workload& w) {
  const std::uint64_t reference = fingerprint(runExperiment(w.spec()));
  const Sample plain = runSample(w.spec(), false);
  const Sample traced = runSample(w.spec(), true);
  check(plain.fingerprint == reference, w.name() + ": undecorated run differs from runExperiment");
  check(traced.fingerprint == reference, w.name() + ": decorated run differs from runExperiment");
  check(plain.result.completedJobs == w.jobsPerRun(), w.name() + ": wrong completed-job count");
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const SpanStats& s = traced.tracer->stats(static_cast<SpanKind>(k));
    check(s.selfS >= 0.0 && s.selfS <= s.totalS,
          w.name() + ": span kind " + std::to_string(k) + " has a negative self time");
  }
  check(traced.engineRunWallS >= traced.engineSpansS, w.name() + ": negative engine self time");
  check(traced.simEvents > 0, w.name() + ": the event sink saw nothing");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_e2e_smoke PATH_TO_ppsched_e2e\n");
    return 2;
  }
  const std::string binary = argv[1];
  const std::string benchmarkJson = slurp(PPSCHED_BENCHMARK_JSON);
  const std::set<std::string> declaredEndToEnd = declaredNames(benchmarkJson, "end_to_end");
  const std::set<std::string> declaredLayers = declaredNames(benchmarkJson, "per_layer");
  check(!declaredEndToEnd.empty() && !declaredLayers.empty(), "BENCHMARK.json has no metrics");

  const std::string lines = "bench_e2e_smoke_lines.txt";
  std::remove(lines.c_str());
  for (const std::string& name : workloadNames()) {
    checkInProcess(Workload(name, kDefaultSeed, kScale, "."));

    for (const int trace : {0, 1}) {
      const std::string out = "bench_e2e_smoke_out.txt";
      char scale[32];
      std::snprintf(scale, sizeof scale, "%g", kScale);
      const std::string cmd = binary + " --workload " + name + " --scale " + scale +
                              " --runs 1 --trace " + std::to_string(trace) + " > " + out;
      check(std::system(cmd.c_str()) == 0, name + ": " + cmd + " failed");
      const std::string text = slurp(out);
      const std::string result = lastLine(text);
      check(result.find("\"correct\": true") != std::string::npos,
            name + ": result not correct: " + result);
      check(resultNames(result) == (trace ? declaredLayers : declaredEndToEnd),
            name + ": result metrics differ from BENCHMARK.json");
      if (trace == 1) std::ofstream(lines, std::ios::app) << text.substr(0, text.size() - result.size() - 1);
      std::remove(out.c_str());
    }
  }

  check(std::system((binary + " --write-json " + lines + " --out .").c_str()) == 0,
        "--write-json failed");
  const std::string endToEnd = slurp("BENCH_e2e.json");
  const std::string layers = slurp("BENCH_e2e_layers.json");
  const std::vector<std::string> endToEndMetrics{
      "sim_jobs_per_s", "sim_jobs_per_s.q1", "sim_jobs_per_s.q3", "setup_s", "setup_s.q1",
      "setup_s.q3", "peak_rss_mb", "speedup_mean", "wait_mean_h", "wait_p50_h", "wait_p95_h",
      "jobs_failed_frac"};
  const std::vector<std::string> layerMetrics{
      "sched.calls", "sched.self_s", "sched.arrival_s", "sched.run_finished_s", "sched.timer_s",
      "sched.node_event_s", "sched.call_p50_us", "sched.call_p99_us", "host.plan_access.calls",
      "host.plan_access_s", "host.plan_memo_hit_frac", "host.rank_placements_s",
      "host.estimate_s", "host.start_run.calls", "host.start_run_s", "host.preempt_s",
      "host.prefetch_s", "host.idle_nodes_s", "engine.self_s", "engine.sim_events",
      "engine.self_ns_per_sim_event", "engine.flow_events", "workload.next.calls",
      "workload.next_s", "workload.next_us_per_job", "metrics.finalize_s",
      "shard.coordinator_self_s", "shard.inner_s", "shard.steals", "shard.stale_steals",
      "shard.digest_age_mean_s", "shard.view_plan_memo_hit_frac", "net.flows",
      "net.peak_concurrent_flows", "net.remote_gb", "net.tertiary_gb", "net.replication_gb",
      "net.max_link_util", "cache.hit_frac", "cache.remote_frac", "cache.tertiary_events",
      "cache.replicated_events", "cache.prefetched_events", "trace.overhead_frac"};
  for (const std::string& name : workloadNames()) {
    for (const auto& [json, metrics] : {std::pair{&endToEnd, &endToEndMetrics},
                                        std::pair{&layers, &layerMetrics}}) {
      for (const std::string& metric : *metrics) {
        const std::string record = "{\"series\": \"" + name +
                                   "\", \"metric\": \"" + metric + "\"";
        check(json->find(record) != std::string::npos,
              name + ": " + metric + " missing from the JSON output");
      }
    }
  }
  for (const char* path : {lines.c_str(), "BENCH_e2e.json", "BENCH_e2e_layers.json"}) {
    std::remove(path);
  }

  if (failures == 0) std::printf("bench_e2e_smoke: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
