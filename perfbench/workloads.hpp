// The benchmark's four workloads.  Each one generates its inputs at
// construction (instance generation and serialization) and then runs
// closed-loop rounds: a round executes every job of the workload once, one
// job at a time (campaign_mix: one campaign on min(4, nproc) lanes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Deterministic per-round layer counts and decomposition timings, keyed by
/// per-layer metric name.
using Counters = std::map<std::string, double>;

struct Options {
  std::uint64_t seed = 0;           ///< draws the job order of every round
  std::uint64_t instance_seed = 0;  ///< mixed into every generator seed; 0 = the paper suites
  std::filesystem::path work_dir;   ///< inputs and outputs of the jobs
};

/// Outcome of one round.
struct RoundStats {
  std::size_t jobs = 0;
  std::size_t failed = 0;           ///< threw, failed validation or replay, or drifted
  std::size_t on_time_jobs = 0;     ///< schedules meeting every deadline
  std::size_t deadline_misses = 0;  ///< tasks past their deadline, all jobs
  double energy_nj = 0.0;           ///< Eq. 3 energy summed over the jobs' schedules
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs every job once.  `log` (null when untraced) receives one span per
  /// public call; `counters` (may be null) receives the round's layer counts.
  /// The first round is the reference: later rounds whose outputs differ
  /// from it count their jobs as failed.
  virtual RoundStats round(SpanLog* log, Counters* counters) = 0;

  /// Extra public calls that split a layer's time where no single call
  /// isolates it (slack budget vs level loop, repair on the attempt-0
  /// schedule, unrecorded scheduling, campaign writers, instance
  /// generation).  Run outside the timed rounds, traced runs only.
  virtual void decompose(Counters& out) = 0;
};

/// Generates and serializes the inputs of workload `name`: miss_repair,
/// scale_10k, provenance_replay or campaign_mix.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Options& options);

}  // namespace perfbench
