// The end-to-end benchmark's named workloads.
//
// Every workload is open-loop in simulated time: arrivals (Poisson, or the
// trace's own) do not depend on the system's state, and each run executes
// a fixed number of jobs to completion. All generated inputs derive from
// the seed; the simulator itself only sees the resulting ExperimentSpec.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace ppsched::e2e {

/// Default workload seed (README.md: 424242 is held out for claims).
inline constexpr std::uint64_t kDefaultSeed = 20261016;

/// The workloads, in the order the driver runs them. Why each one exists
/// is recorded in BENCHMARK.json and README.md.
[[nodiscard]] const std::vector<std::string>& workloadNames();

/// One workload's inputs. Generated input files live in the given work
/// directory and are deleted with the object.
class Workload {
 public:
  /// `scale` multiplies the warm-up and measured job counts (1 = full size).
  /// Throws std::invalid_argument for an unknown name or a non-positive scale.
  Workload(const std::string& name, std::uint64_t seed, double scale,
           const std::string& workdir);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const ExperimentSpec& spec() const { return spec_; }
  /// Jobs one run completes: warm-up plus measured.
  [[nodiscard]] std::size_t jobsPerRun() const { return spec_.warmupJobs + spec_.measuredJobs; }
  /// Host seconds spent writing generated input files (0 when none).
  [[nodiscard]] double inputGenS() const { return inputGenS_; }

 private:
  std::string name_;
  ExperimentSpec spec_;
  std::string inputPath_;
  double inputGenS_ = 0.0;
};

}  // namespace ppsched::e2e
