// End-to-end scheduling benchmark: runs one workload through the library's
// public API in closed-loop rounds, checks every output, and prints each
// metric by name and unit, with one JSON object as the last line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--instance-seed <n>] [--setup-reps <n>] [--work-dir <dir>]
//             [--spans-out <file>]
//
// --trace 0 reports the end-to-end metrics of untraced rounds.  --trace 1
// cycles through untraced rounds, rounds traced by the benchmark's own
// spans (see spans.hpp) and decomposition passes, and reports the per-layer
// metrics.  README.md in this directory lists the workloads and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.hpp"
#include "src/obs/resources.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  Options options;
  double seconds = 10.0;
  bool trace = false;
  int setup_reps = 0;  ///< 0 = until enough set-up time
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  args.options.work_dir = "perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.options.seed = std::stoull(value);
    else if (flag == "--instance-seed") args.options.instance_seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--setup-reps") args.setup_reps = std::max(1, std::stoi(value));
    else if (flag == "--work-dir") args.options.work_dir = value;
    else if (flag == "--spans-out") args.spans_out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return args;
}

/// Linear-interpolated percentile `q` in [0, 1]; 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// One printed metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metric names and units, in the order README.md lists them.
std::vector<Metric> layer_metrics(const std::vector<std::map<std::string, double>>& self,
                                  const std::vector<Counters>& counters, const Counters& parts,
                                  const std::vector<double>& traced_ms,
                                  const std::vector<double>& overhead_ms,
                                  const std::vector<double>& residual) {
  const auto self_ms = [&](const char* name) {
    std::vector<double> v;
    for (const auto& round : self) {
      const auto it = round.find(name);
      v.push_back(it != round.end() ? it->second : 0.0);
    }
    return median(v);
  };
  const auto count = [&](const char* name) {
    std::vector<double> v;
    for (const Counters& round : counters) {
      const auto it = round.find(name);
      v.push_back(it != round.end() ? it->second : 0.0);
    }
    return median(v);
  };
  const auto part = [&](const std::string& name) {
    const auto it = parts.find(name);
    return it != parts.end() ? it->second : 0.0;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto mb_per_s = [&](double bytes, double ms) { return ratio(bytes / 1e6, ms / 1e3); };

  const double read_ms = self_ms("ctg.read");
  const double schedule_ms = self_ms("core.schedule");
  const double base_ms = part("core.eas_base_ms");
  const double repair_ms = part("core.repair_ms");
  const double record_ms = self_ms("audit.record");
  const double audit_read_ms = self_ms("audit.read");
  const double issued = count("core.probe.issued");
  const double hits = count("core.probe.cache_hits");
  const double tried = part("core.repair.tried");
  const double accepted = part("core.repair.accepted");
  const double rebuilt = part("core.repair.commits_rebuilt");
  const double reused = part("core.repair.commits_reused");

  std::vector<Metric> m = {
      {"ctg.read_ms", read_ms, "ms"},
      {"ctg.read_mb_per_s", mb_per_s(count("ctg.read_bytes"), read_ms), "MB/s"},
      {"noc.read_ms", self_ms("noc.read"), "ms"},
      {"core.slack_budget_ms", part("core.slack_budget_ms"), "ms"},
      {"core.level_ms", base_ms > 0.0 ? base_ms - part("core.slack_budget_ms") : 0.0, "ms"},
      {"core.probe.issued", issued, "count"},
      {"core.probe.cache_hits", hits, "count"},
      {"core.probe.hit_rate", ratio(hits, issued + hits), "frac"},
      {"core.repair_ms", repair_ms, "ms"},
      {"core.repair.tried", tried, "count"},
      {"core.repair.accepted", accepted, "count"},
      {"core.repair.accept_rate", ratio(accepted, tried), "frac"},
      {"core.repair.rebuilds", part("core.repair.rebuilds"), "count"},
      {"core.repair.suffix_reuse_rate", ratio(reused, rebuilt + reused), "frac"},
      {"core.eas_other_ms", schedule_ms > 0.0 ? schedule_ms - base_ms - repair_ms : 0.0, "ms"},
      {"core.budget_retries", count("core.budget_retries"), "count"},
      {"core.validate_ms", self_ms("core.validate"), "ms"},
      {"core.schedule_write_ms", self_ms("core.schedule_write"), "ms"},
      {"analysis.analyze_ms", self_ms("analysis.analyze"), "ms"},
      {"analysis.write_ms", self_ms("analysis.write"), "ms"},
      {"audit.record_ms", record_ms > 0.0 ? record_ms - part("core.schedule_plain_ms") : 0.0,
       "ms"},
      {"audit.write_ms", self_ms("audit.write"), "ms"},
      {"audit.read_ms", audit_read_ms, "ms"},
      {"audit.read_mb_per_s", mb_per_s(count("audit.stream_bytes"), audit_read_ms), "MB/s"},
      {"audit.replay_ms", self_ms("audit.replay"), "ms"},
  };
  for (const char* scheduler : {"eas", "eas-base", "edf", "dls", "greedy", "map"}) {
    const std::string name = std::string("campaign.unit_ms.") + scheduler;
    m.push_back({name, count(name.c_str()), "ms"});
  }
  const std::vector<Metric> tail = {
      {"campaign.unit_ms_max", count("campaign.unit_ms_max"), "ms"},
      {"campaign.lane_busy_frac", count("campaign.lane_busy_frac"), "frac"},
      {"campaign.write_ms", part("campaign.write_ms"), "ms"},
      {"gen.generate_ms", part("gen.generate_ms"), "ms"},
      {"trace.round_ms_p50", median(traced_ms), "ms"},
      {"trace.overhead_ms", median(overhead_ms), "ms"},
      {"trace.residual_frac", median(residual), "frac"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& args) {
  // Set-up: instance generation, serialization and one warm-up round,
  // repeated until 3 reps and 2.5 s of set-up (at most 9 reps) unless
  // --setup-reps fixes the count.  The last workload is kept, and its
  // warm-up round is the reference every measured round must reproduce.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  RoundStats reference;
  const std::int64_t setup_start = now_ns();
  const auto more_setup = [&](int rep) {
    if (args.setup_reps > 0) return rep < args.setup_reps;
    return rep < 3 || (now_ns() - setup_start < 2'500'000'000 && rep < 9);
  };
  for (int rep = 0; more_setup(rep); ++rep) {
    const std::int64_t t0 = now_ns();
    workload.reset();
    workload = make_workload(args.workload, args.options);
    reference = workload->round(nullptr, nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (reference.failed > 0) {
      for (const std::string& e : reference.errors) std::fprintf(stderr, "setup: %s\n", e.c_str());
      throw std::runtime_error("the warm-up round failed");
    }
  }

  // Closed-loop rounds for the time budget.  A traced run cycles through an
  // untraced round, a traced round and a decomposition pass, so all three
  // sample the same stretch of machine time: the tracing overhead is priced
  // pairwise and the decomposition's splits line up with the traced rounds.
  const std::size_t phases = args.trace ? 3 : 1;
  const std::size_t min_steps = 3 * phases;
  SpanLog log;
  std::vector<double> plain_ms, traced_ms, overhead_ms, residual;
  std::vector<std::map<std::string, double>> self;
  std::vector<Counters> counters;
  std::map<std::string, std::vector<double>> part_samples;
  std::size_t attempted = 0, failed = 0, jobs = 0;
  double busy_s = 0.0;
  std::vector<std::string> errors;
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t k = 0; now_ns() - start < budget_ns || k < min_steps; ++k) {
    const std::size_t phase = k % phases;
    if (phase == 2) {
      Counters parts;
      workload->decompose(parts);
      for (const auto& [name, value] : parts) part_samples[name].push_back(value);
      continue;
    }
    const bool traced = phase == 1;
    SpanLog* const spans = traced ? &log : nullptr;
    Counters round_counters;
    const auto round_id = static_cast<std::int32_t>(self.size());
    if (traced) log.begin_round(round_id);
    const std::int64_t t0 = now_ns();
    RoundStats st;
    {
      const Scope root(spans, "perfbench.round");
      st = workload->round(spans, traced ? &round_counters : nullptr);
    }
    const double wall_ms = static_cast<double>(now_ns() - t0) / 1e6;
    attempted += st.jobs;
    failed += st.failed;
    errors.insert(errors.end(), st.errors.begin(), st.errors.end());
    if (st.failed == 0 && (st.energy_nj != reference.energy_nj ||
                           st.deadline_misses != reference.deadline_misses)) {
      failed += st.jobs;
      errors.push_back("round energy or deadline misses differ from the reference round");
    }
    jobs += st.jobs;
    busy_s += wall_ms / 1e3;
    if (!traced) {
      plain_ms.push_back(wall_ms);
      continue;
    }
    traced_ms.push_back(wall_ms);
    overhead_ms.push_back(wall_ms - plain_ms.back());
    self.push_back(log.self_ms(round_id));
    counters.push_back(std::move(round_counters));
    double layers_ms = 0.0;
    for (const auto& [name, ms] : self.back()) {
      if (name.rfind("perfbench.", 0) != 0) layers_ms += ms;
    }
    residual.push_back((wall_ms - layers_ms) / wall_ms);
  }

  std::vector<Metric> metrics;
  bool reconciled = true;
  if (args.trace) {
    Counters parts;
    for (const auto& [name, v] : part_samples) parts[name] = median(v);
    metrics = layer_metrics(self, counters, parts, traced_ms, overhead_ms, residual);
    // The layers' self times must account for the round: what the
    // benchmark's own code between the calls takes stays within 5%.
    constexpr double kMaxResidual = 0.05;
    reconciled = median(residual) <= kMaxResidual;
    if (!reconciled) {
      std::fprintf(stderr, "reconciliation failed: %.2f%% of round wall time outside layer spans\n",
                   100.0 * median(residual));
    }
    if (!args.spans_out.empty()) {
      std::ofstream os(args.spans_out);
      log.write_jsonl(os);
    }
  } else {
    metrics = {
        {"round_ms_p50", median(plain_ms), "ms"},
        {"round_ms_p90", percentile(plain_ms, 0.9), "ms"},
        {"jobs_per_s", static_cast<double>(jobs) / busy_s, "1/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb",
         static_cast<double>(noceas::obs::ResourceSampler::current_peak_rss_kb()) / 1024.0, "MB"},
        {"energy_nj", reference.energy_nj, "nJ"},
        {"deadlines_met_frac",
         static_cast<double>(reference.on_time_jobs) / static_cast<double>(reference.jobs), "frac"},
        {"jobs_ok_frac",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted), "frac"},
    };
  }
  std::printf("workload %s: %zu untraced rounds, %zu traced rounds, %zu jobs/round, "
              "deadline misses/round %zu\n",
              args.workload.c_str(), plain_ms.size(), traced_ms.size(), reference.jobs,
              reference.deadline_misses);
  std::fprintf(stderr, "untraced round ms:");
  for (double ms : plain_ms) std::fprintf(stderr, " %.1f", ms);
  std::fprintf(stderr, "\n");
  for (std::size_t i = 0; i < errors.size() && i < 10; ++i) {
    std::fprintf(stderr, "failed: %s\n", errors[i].c_str());
  }
  const bool correct = failed == 0 && reconciled;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    const int rc = perfbench::run(args);
    std::error_code ec;
    std::filesystem::remove_all(args.options.work_dir, ec);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
