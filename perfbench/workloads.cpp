#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/analysis/analysis.hpp"
#include "src/audit/decision_log.hpp"
#include "src/audit/replay.hpp"
#include "src/campaign/aggregate.hpp"
#include "src/campaign/campaign.hpp"
#include "src/campaign/dashboard.hpp"
#include "src/core/eas.hpp"
#include "src/core/schedule_io.hpp"
#include "src/core/slack_budget.hpp"
#include "src/core/validator.hpp"
#include "src/ctg/serialize.hpp"
#include "src/gen/hetero.hpp"
#include "src/gen/tgff.hpp"
#include "src/noc/platform_io.hpp"

namespace perfbench {
namespace {

using namespace noceas;

double ms_between(std::int64_t t0, std::int64_t t1) { return static_cast<double>(t1 - t0) / 1e6; }

/// The paper's 4x4 heterogeneous mesh, as the suites and campaigns build it.
const PeCatalog& catalog_4x4() {
  static const PeCatalog catalog = make_hetero_catalog(4, 4, 42);
  return catalog;
}

const Platform& platform_4x4() {
  static const Platform platform = make_platform_for(catalog_4x4(), 4, 4);
  return platform;
}

/// Generator-seed offset of an instance seed; instance seed 0 leaves every
/// generator seed unchanged, so the default reproduces the paper suites.
std::uint64_t instance_mix(std::uint64_t instance_seed) {
  return instance_seed * 0x9E3779B97F4A7C15ull;
}

/// A permutation of [0, n) drawn from `rng`.
std::vector<std::size_t> shuffled(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng() % i]);
  return order;
}

EasOptions base_options() {
  EasOptions options;
  options.repair = false;
  return options;
}

std::size_t base_misses(const TaskGraph& g) {
  return schedule_eas(g, platform_4x4(), base_options()).misses.miss_count;
}

/// A generated problem instance.
struct Instance {
  std::string name;
  TaskGraph g;
};

/// What a job produced in the reference round; later rounds must match it
/// exactly (the scheduler is deterministic).
struct Reference {
  bool set = false;
  Energy energy = 0.0;
  Time makespan = 0;
  std::size_t misses = 0;
};

/// Records the job's result into `stats`, checking it against `ref`.
/// Returns the job's energy; the caller sums energies in job order, so the
/// round's total does not depend on the order the jobs ran in.
Energy account(const std::string& job, const EasResult& r, Reference& ref, RoundStats& stats) {
  const Energy energy = r.energy.total();
  const Time span = makespan(r.schedule);
  if (!ref.set) {
    ref = {true, energy, span, r.misses.miss_count};
  } else if (ref.energy != energy || ref.makespan != span || ref.misses != r.misses.miss_count) {
    throw std::runtime_error(job + ": schedule differs from the reference round");
  }
  stats.deadline_misses += r.misses.miss_count;
  if (r.misses.all_met()) ++stats.on_time_jobs;
  return energy;
}

/// Runs `run(i)` for every job in a freshly shuffled order, catching each
/// job's failure, and sums the returned energies in job order.
template <class Run>
RoundStats run_jobs(std::size_t n, std::mt19937_64& rng, SpanLog* log, Run&& run) {
  RoundStats stats;
  std::vector<Energy> energy(n, 0.0);
  for (std::size_t i : shuffled(n, rng)) {
    ++stats.jobs;
    try {
      const Scope job_span(log, "perfbench.job");
      energy[i] = run(i, stats);
    } catch (const std::exception& e) {
      ++stats.failed;
      stats.errors.push_back(e.what());
    }
  }
  for (Energy e : energy) stats.energy_nj += e;
  return stats;
}

void require_valid(const std::string& job, const ValidationReport& report) {
  if (!report.ok()) throw std::runtime_error(job + ": invalid schedule: " + report.to_string());
}

void add_probe_counts(const EasResult& r, Counters& c) {
  c["core.probe.issued"] += static_cast<double>(r.probe.probes_issued);
  c["core.probe.cache_hits"] += static_cast<double>(r.probe.cache_hits);
  c["core.budget_retries"] += r.budget_retries;
}

/// Slack budget, EAS-base and search & repair on the attempt-0 schedule,
/// each timed alone: the split of one full EAS call.
void decompose_eas(const TaskGraph& g, Counters& out) {
  const Platform& p = platform_4x4();
  std::int64_t t0 = now_ns();
  [[maybe_unused]] const SlackBudget budget = compute_slack_budget(g);
  std::int64_t t1 = now_ns();
  out["core.slack_budget_ms"] += ms_between(t0, t1);
  t0 = now_ns();
  const EasResult base = schedule_eas(g, p, base_options());
  t1 = now_ns();
  out["core.eas_base_ms"] += ms_between(t0, t1);
  t0 = now_ns();
  const RepairResult repaired = search_and_repair(g, p, base.schedule);
  t1 = now_ns();
  out["core.repair_ms"] += ms_between(t0, t1);
  const RepairStats& s = repaired.stats;
  out["core.repair.tried"] += s.lts_tried + s.gtm_tried;
  out["core.repair.accepted"] += s.lts_accepted + s.gtm_accepted;
  out["core.repair.rebuilds"] += static_cast<double>(s.rebuilds);
  out["core.repair.commits_rebuilt"] += static_cast<double>(s.commits_rebuilt);
  out["core.repair.commits_reused"] += static_cast<double>(s.commits_reused);
}

// ---------------------------------------------------------------------------
// miss_repair and scale_10k: the full user job through text files.

struct FileJob {
  Instance inst;
  std::filesystem::path ctg, platform, schedule_out, analysis_out;
  std::uintmax_t ctg_bytes = 0;
  Reference ref;
};

class FileJobWorkload : public Workload {
 public:
  FileJobWorkload(std::vector<Instance> instances, const Options& options) {
    std::filesystem::create_directories(options.work_dir);
    const std::filesystem::path& dir = options.work_dir;
    const std::filesystem::path plat = dir / "mesh4x4.plat";
    {
      std::ofstream os(plat);
      write_platform(os, platform_4x4());
      if (!os) throw std::runtime_error("cannot write " + plat.string());
    }
    for (Instance& inst : instances) {
      const std::filesystem::path ctg = dir / (inst.name + ".ctg");
      {
        std::ofstream os(ctg);
        write_ctg(os, inst.g);
        if (!os) throw std::runtime_error("cannot write " + ctg.string());
      }
      const std::string stem = inst.name;
      jobs_.push_back({std::move(inst), ctg, plat, dir / (stem + ".sched"),
                       dir / (stem + ".analysis.json"), std::filesystem::file_size(ctg), {}});
    }
    rng_.seed(options.seed);
  }

  RoundStats round(SpanLog* log, Counters* counters) override {
    return run_jobs(jobs_.size(), rng_, log, [&](std::size_t i, RoundStats& stats) {
      return run(jobs_[i], log, counters, stats);
    });
  }

  void decompose(Counters& out) override {
    for (const FileJob& job : jobs_) decompose_eas(job.inst.g, out);
  }

 private:
  static Energy run(FileJob& job, SpanLog* log, Counters* counters, RoundStats& stats) {
    const TaskGraph g = in_span(log, "ctg.read", [&] {
      std::ifstream is(job.ctg);
      return read_ctg(is);
    });
    const Platform p = in_span(log, "noc.read", [&] {
      std::ifstream is(job.platform);
      return read_platform(is);
    });
    const EasResult r = in_span(log, "core.schedule", [&] { return schedule_eas(g, p); });
    require_valid(job.inst.name, in_span(log, "core.validate", [&] {
                    return validate_schedule(g, p, r.schedule, {.check_deadlines = false});
                  }));
    const analysis::Report report = in_span(
        log, "analysis.analyze", [&] { return analysis::analyze_schedule(g, p, r.schedule); });
    const bool written = in_span(log, "core.schedule_write", [&] {
      std::ofstream os(job.schedule_out);
      write_schedule_text(os, r.schedule);
      return os.flush().good();
    }) && in_span(log, "analysis.write", [&] {
      std::ofstream os(job.analysis_out);
      analysis::write_analysis_json(os, report);
      return os.flush().good();
    });
    if (!written) throw std::runtime_error(job.inst.name + ": cannot write the outputs");
    if (counters != nullptr) {
      add_probe_counts(r, *counters);
      (*counters)["ctg.read_bytes"] += static_cast<double>(job.ctg_bytes);
    }
    return account(job.inst.name, r, job.ref, stats);
  }

  std::vector<FileJob> jobs_;
  std::mt19937_64 rng_;  ///< draws each round's job order
};

/// Category II suite instances on which EAS-base misses at least one
/// deadline (the instances search & repair has work on).
std::vector<Instance> miss_repair_instances(std::uint64_t instance_seed) {
  std::vector<Instance> out;
  for (int index = 0; index < 10; ++index) {
    TgffParams params = category_params(2, index);
    params.seed ^= instance_mix(instance_seed);
    TaskGraph g = generate_tgff_like(params, catalog_4x4());
    if (base_misses(g) > 0) out.push_back({"cat2-i" + std::to_string(index), std::move(g)});
  }
  if (out.empty()) throw std::runtime_error("no Category II instance misses a deadline");
  return out;
}

/// One layered TGFF graph of `tasks` tasks with Category I deadlines and
/// two edges per task, on which EAS-base meets every deadline (so repair
/// returns at once).  Draws are tried in a fixed order.
Instance scale_instance(std::size_t tasks, std::uint64_t instance_seed) {
  for (std::uint64_t draw = 0; draw < 8; ++draw) {
    TgffParams params = category_params(1, 0);
    params.num_tasks = tasks;
    params.num_edges = 2 * tasks;
    params.seed ^= instance_mix(instance_seed) ^ (draw * 0xD1B54A32D192ED03ull);
    TaskGraph g = generate_tgff_like(params, catalog_4x4());
    if (base_misses(g) == 0) return {"tgff-" + std::to_string(tasks), std::move(g)};
  }
  throw std::runtime_error("no " + std::to_string(tasks) + "-task draw meets every deadline");
}

// ---------------------------------------------------------------------------
// provenance_replay: record, serialize, parse and replay the decision stream.

struct ReplayJob {
  Instance inst;
  Reference ref;
};

class ProvenanceWorkload : public Workload {
 public:
  ProvenanceWorkload(std::vector<Instance> instances, const Options& options) {
    for (Instance& inst : instances) jobs_.push_back({std::move(inst), {}});
    rng_.seed(options.seed);
  }

  RoundStats round(SpanLog* log, Counters* counters) override {
    return run_jobs(jobs_.size(), rng_, log, [&](std::size_t i, RoundStats& stats) {
      return run(jobs_[i], log, counters, stats);
    });
  }

  void decompose(Counters& out) override {
    for (const ReplayJob& job : jobs_) {
      const std::int64_t t0 = now_ns();
      const EasResult plain = schedule_eas(job.inst.g, platform_4x4());
      out["core.schedule_plain_ms"] += ms_between(t0, now_ns());
    }
  }

 private:
  static Energy run(ReplayJob& job, SpanLog* log, Counters* counters, RoundStats& stats) {
    const TaskGraph& g = job.inst.g;
    const Platform& p = platform_4x4();
    audit::DecisionLog decisions;
    EasOptions options;
    options.decisions = &decisions;
    const EasResult r = in_span(log, "audit.record", [&] { return schedule_eas(g, p, options); });
    require_valid(job.inst.name, in_span(log, "core.validate", [&] {
                    return validate_schedule(g, p, r.schedule, {.check_deadlines = false});
                  }));
    const std::string text = in_span(log, "audit.write", [&] {
      std::ostringstream os;
      decisions.write_jsonl(os);
      return std::move(os).str();
    });
    const audit::DecisionStream stream = in_span(log, "audit.read", [&] {
      std::istringstream is(text);
      return audit::read_decision_stream(is);
    });
    const audit::ReplayReport replay =
        in_span(log, "audit.replay", [&] { return audit::replay_decisions(g, p, stream); });
    if (!replay.ok) {
      throw std::runtime_error(job.inst.name + ": replay failed: " +
                               (replay.issues.empty() ? std::string("?") : replay.issues.front()));
    }
    if (counters != nullptr) (*counters)["audit.stream_bytes"] += static_cast<double>(text.size());
    return account(job.inst.name, r, job.ref, stats);
  }

  std::vector<ReplayJob> jobs_;
  std::mt19937_64 rng_;  ///< draws each round's job order
};

/// Category I benchmark 0, plus the first Category II benchmark on which
/// EAS-base misses a deadline (its stream carries repair moves) and the
/// first on which it meets every deadline.
std::vector<Instance> provenance_instances(std::uint64_t instance_seed) {
  std::vector<Instance> out;
  TgffParams first = category_params(1, 0);
  first.seed ^= instance_mix(instance_seed);
  out.push_back({"cat1-i0", generate_tgff_like(first, catalog_4x4())});
  bool have_miss = false, have_met = false;
  for (int index = 0; index < 10 && !(have_miss && have_met); ++index) {
    TgffParams params = category_params(2, index);
    params.seed ^= instance_mix(instance_seed);
    TaskGraph g = generate_tgff_like(params, catalog_4x4());
    const bool misses = base_misses(g) > 0;
    bool& have = misses ? have_miss : have_met;
    if (have) continue;
    have = true;
    out.push_back({"cat2-i" + std::to_string(index), std::move(g)});
  }
  if (!(have_miss && have_met)) throw std::runtime_error("Category II suite lacks a miss/met pair");
  return out;
}

// ---------------------------------------------------------------------------
// campaign_mix: one campaign over every scheduler.

class CampaignWorkload : public Workload {
 public:
  explicit CampaignWorkload(const Options& options) {
    std::vector<campaign::AppSpec> apps;
    for (const auto& [category, index] : {std::pair{1, 0}, {1, 5}, {2, 3}, {2, 6}}) {
      campaign::AppSpec app;
      app.category = category;
      app.index = index;
      apps.push_back(app);
    }
    std::vector<std::string> schedulers = {"eas", "eas-base", "edf", "dls", "greedy", "map"};
    // The seed orders the campaign matrix, and with it lane assignment.  The
    // order stays fixed for the run: it is part of the manifest's bytes.
    std::mt19937_64 rng(options.seed);
    for (std::size_t i : shuffled(apps.size(), rng)) spec_.apps.push_back(apps[i]);
    spec_.schedulers.clear();
    for (std::size_t i : shuffled(schedulers.size(), rng)) spec_.schedulers.push_back(schedulers[i]);
    const std::uint64_t mix = instance_mix(options.instance_seed);
    spec_.seeds = {mix + 1, mix + 2, mix + 3};
    spec_.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    spec_.artifacts = false;
    spec_.out_dir = (options.work_dir / "campaign").string();
  }

  RoundStats round(SpanLog* log, Counters* counters) override {
    RoundStats stats;
    const std::int64_t t0 = now_ns();
    campaign::CampaignResult result;
    try {
      result = in_span(log, "campaign.run", [&] { return campaign::run_campaign(spec_); });
    } catch (const std::exception& e) {
      stats.jobs = campaign::expand_spec(spec_).size();
      stats.failed = stats.jobs;
      stats.errors.push_back(e.what());
      return stats;
    }
    const double wall_ms = ms_between(t0, now_ns());
    const std::string manifest = in_span(log, "perfbench.check", [&] {
      std::ifstream is(std::filesystem::path(spec_.out_dir) / "manifest.json", std::ios::binary);
      return std::string(std::istreambuf_iterator<char>(is), {});
    });
    if (manifest_.empty()) manifest_ = manifest;
    const bool same_manifest = manifest == manifest_;
    // Energies summed by unit id, so the total does not depend on the
    // matrix order the seed picked.
    std::map<std::string, Energy> energy;
    for (const campaign::RunOutcome& o : result.outcomes) {
      ++stats.jobs;
      if (!o.ok || !same_manifest) {
        ++stats.failed;
        stats.errors.push_back(o.id + (o.ok ? ": manifest differs from the reference round"
                                            : ": " + o.error));
        continue;
      }
      energy[o.id] = o.energy_total;
      stats.deadline_misses += o.miss_count;
      if (o.deadlines_met) ++stats.on_time_jobs;
    }
    for (const auto& [id, e] : energy) stats.energy_nj += e;
    if (counters != nullptr) {
      double busy_ms = 0.0, max_ms = 0.0;
      std::map<std::string, std::vector<double>> unit_ms;
      for (std::size_t i = 0; i < result.resources.size(); ++i) {
        const double ms = result.resources[i].wall_seconds * 1e3;
        busy_ms += ms;
        max_ms = std::max(max_ms, ms);
        unit_ms[result.units[i].scheduler].push_back(ms);
      }
      for (auto& [scheduler, v] : unit_ms) {
        const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
        std::nth_element(v.begin(), mid, v.end());
        (*counters)["campaign.unit_ms." + scheduler] = *mid;
      }
      (*counters)["campaign.unit_ms_max"] = max_ms;
      (*counters)["campaign.lane_busy_frac"] = busy_ms / (spec_.threads * wall_ms);
      last_ = std::move(result);
    }
    return stats;
  }

  void decompose(Counters& out) override {
    const campaign::CampaignResult& result = last_;
    std::int64_t t0 = now_ns();
    std::ostringstream os;
    const campaign::Aggregate aggregate =
        campaign::aggregate_outcomes(spec_, result.units, result.outcomes);
    campaign::write_manifest_json(os, result);
    campaign::write_aggregate_json(os, aggregate);
    campaign::write_dashboard_html(os, result, aggregate);
    campaign::write_resources_json(os, result);
    out["campaign.write_ms"] += ms_between(t0, now_ns());
    // Every unit regenerates its instance; this is that generation, alone.
    t0 = now_ns();
    for (const campaign::RunUnit& unit : result.units) {
      TgffParams params = category_params(unit.app.category, unit.app.index);
      params.seed = unit.seed;
      const TaskGraph g = generate_tgff_like(params, catalog_4x4());
    }
    out["gen.generate_ms"] += ms_between(t0, now_ns());
  }

 private:
  campaign::CampaignSpec spec_;
  std::string manifest_;  ///< reference bytes of manifest.json
  campaign::CampaignResult last_;  ///< the last traced round's result
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const Options& options) {
  if (name == "miss_repair") {
    return std::make_unique<FileJobWorkload>(miss_repair_instances(options.instance_seed),
                                             options);
  }
  if (name == "scale_10k") {
    std::vector<Instance> instances;
    for (std::size_t tasks : {4096u, 10240u})
      instances.push_back(scale_instance(tasks, options.instance_seed));
    return std::make_unique<FileJobWorkload>(std::move(instances), options);
  }
  if (name == "provenance_replay") {
    return std::make_unique<ProvenanceWorkload>(provenance_instances(options.instance_seed),
                                                options);
  }
  if (name == "campaign_mix") return std::make_unique<CampaignWorkload>(options);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
