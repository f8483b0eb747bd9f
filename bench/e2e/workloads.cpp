#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "net/network.h"
#include "shard/shard_config.h"
#include "workload/in2p3.h"

namespace ppsched::e2e {

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"paper_ooo", "in2p3_eevdf", "net200_repl",
                                              "shard200_drift"};
  return names;
}

namespace {

std::size_t scaled(std::size_t jobs, double scale) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(jobs * scale)));
}

/// ext_real_trace's sample parameters (Zipf users, Pareto sizes, six
/// experiment groups, diurnal arrivals) at 4 jobs/hour on 10 nodes.
SkewedWorkloadParams in2p3Params() {
  SkewedWorkloadParams p;
  p.totalEvents = 3'333'333;
  p.jobsPerHour = 4.0;
  p.users = 40;
  p.zipfS = 1.4;
  p.minJobEvents = 2'000;
  p.paretoAlpha = 1.3;
  p.groups = 6;
  p.groupSpanFraction = 0.125;
  p.diurnalAmplitude = 0.6;
  return p;
}

}  // namespace

Workload::Workload(const std::string& name, std::uint64_t seed, double scale,
                   const std::string& workdir)
    : name_(name) {
  if (!(scale > 0.0)) throw std::invalid_argument("scale must be > 0");
  ExperimentSpec& s = spec_;
  s.seed = seed;
  if (name == "paper_ooo") {
    s.sim = SimConfig::paperDefaults();
    s.policyName = "out_of_order";
    s.jobsPerHour = 1.2;
    s.warmupJobs = scaled(300, scale);
    s.measuredJobs = scaled(7'500, scale);
    s.maxJobsInSystem = 400;
  } else if (name == "in2p3_eevdf") {
    s.sim = SimConfig::paperDefaults();
    s.policyName = "eevdf";
    s.policyParams.qos.interactiveGroups = {"g0", "g1"};
    s.warmupJobs = scaled(300, scale);
    s.measuredJobs = scaled(100'000, scale);
    s.maxJobsInSystem = 1000;
    // The trace holds enough jobs beyond the run's completions that the
    // source never runs dry while jobs are still in the system.
    const std::size_t traceJobs = jobsPerRun() + s.maxJobsInSystem + 1;
    inputPath_ = workdir + "/in2p3_" + std::to_string(seed) + "_" +
                 std::to_string(static_cast<long long>(::getpid())) + ".csv";
    const auto t0 = std::chrono::steady_clock::now();
    {
      SkewedWorkloadGenerator gen(in2p3Params(), seed);
      std::ofstream out(inputPath_);
      if (!out) throw std::runtime_error("cannot write " + inputPath_);
      writeIn2p3Csv(out, gen, traceJobs, s.sim.cost.uncachedSecPerEvent(), &gen);
      if (!out.flush()) throw std::runtime_error("cannot write " + inputPath_);
    }
    inputGenS_ = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    s.tracePath = inputPath_;
  } else if (name == "net200_repl") {
    s.sim.numNodes = 200;  // SimConfig defaults: pipelined cost model
    // 4 GB caches (800 GB in all, against 2 TB of data) reach steady state
    // within the warm-up; with 100 GB caches they fill for the whole run
    // and the speedup varies by 10% from seed to seed.
    s.sim.cacheBytesPerNode = 4'000'000'000ULL;
    s.sim.network = parseNetworkSpec("nic=125,uplink=20,ingress=200,group=8");
    // Caps a job's fan-out at ~40 subjobs, as a per-subjob dispatch cost
    // would; at the default floor of 10 events a run costs 30x more host time.
    s.sim.minSubjobEvents = 1000;
    s.policyName = "replication";
    s.jobsPerHour = 20;
    s.warmupJobs = scaled(500, scale);
    s.measuredJobs = scaled(1'500, scale);
    s.maxJobsInSystem = 400;
  } else if (name == "shard200_drift") {
    // ext_shard_staleness's 200-node arm with hot-spot drift.
    const int nodes = 200;
    s.sim.numNodes = nodes;
    s.sim.totalDataBytes = static_cast<std::uint64_t>(nodes) * 4'000'000'000ULL;
    s.sim.cacheBytesPerNode = 8'000'000'000ULL;
    s.sim.network = parseNetworkSpec("nic=125,uplink=20,ingress=200,group=5");
    s.sim.cost.tertiaryBytesPerSec = 5e6;
    s.sim.minSubjobEvents = 1000;
    s.sim.shards = parseShardSpec("4,digest=600,admit=1,buckets=2048");
    s.sim.workload.hotDriftPeriod = 6 * units::hour;
    s.policyName = "out_of_order";
    // Below ext_shard_staleness's 30 jobs/h, which overloads some seeds.
    s.jobsPerHour = 20;
    s.warmupJobs = scaled(80, scale);
    s.measuredJobs = scaled(1'500, scale);
    s.maxJobsInSystem = 400;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
}

Workload::~Workload() {
  if (!inputPath_.empty()) std::remove(inputPath_.c_str());
}

}  // namespace ppsched::e2e
