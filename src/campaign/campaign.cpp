#include "src/campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "src/analysis/analysis.hpp"
#include "src/audit/decision_log.hpp"
#include "src/baseline/dls.hpp"
#include "src/baseline/edf.hpp"
#include "src/baseline/greedy_energy.hpp"
#include "src/baseline/map_then_schedule.hpp"
#include "src/campaign/aggregate.hpp"
#include "src/campaign/dashboard.hpp"
#include "src/campaign/shard.hpp"
#include "src/core/eas.hpp"
#include "src/core/validator.hpp"
#include "src/gen/hetero.hpp"
#include "src/msb/msb.hpp"
#include "src/obs/telemetry.hpp"
#include "src/obs/trace.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/thread_pool.hpp"

namespace noceas::campaign {

namespace {

const char* const kKnownSchedulers[] = {"eas", "eas-base", "edf", "dls", "greedy", "map"};

bool known_scheduler(const std::string& name) {
  return std::find(std::begin(kKnownSchedulers), std::end(kKnownSchedulers), name) !=
         std::end(kKnownSchedulers);
}

/// One generated problem instance.
struct Instance {
  TaskGraph g;
  Platform p;
};

/// Regenerates the unit's problem instance from its seed.  Pure function of
/// (app, seed): every run builds its own instance, so execution order and
/// thread assignment cannot leak between runs.
Instance make_instance(const AppSpec& app, std::uint64_t seed) {
  switch (app.kind) {
    case AppSpec::Kind::Msb: {
      ClipProfile clip = clip_foreman();
      for (const ClipProfile& c : all_clips()) {
        if (c.name == app.msb_clip) clip = c;
      }
      const bool small = app.msb_app != "encdec";
      const PeCatalog catalog = small ? msb_catalog_2x2() : msb_catalog_3x3();
      Platform p = small ? msb_platform_2x2() : msb_platform_3x3();
      TaskGraph g = app.msb_app == "encoder"   ? make_av_encoder(clip, catalog)
                    : app.msb_app == "decoder" ? make_av_decoder(clip, catalog)
                                               : make_av_encdec(clip, catalog);
      return {std::move(g), std::move(p)};
    }
    case AppSpec::Kind::Tgff:
    case AppSpec::Kind::Custom: {
      const PeCatalog catalog = make_hetero_catalog(4, 4, 42);
      Platform p = make_platform_for(catalog, 4, 4);
      TgffParams params = app.kind == AppSpec::Kind::Tgff
                              ? category_params(app.category, app.index)
                              : app.custom;
      params.seed = seed;
      TaskGraph g = generate_tgff_like(params, catalog);
      return {std::move(g), std::move(p)};
    }
  }
  NOCEAS_REQUIRE(false, "unreachable app kind");
}

/// Common denominator of one scheduler run.
struct SchedRun {
  Schedule schedule;
  EnergyBreakdown energy;
  MissReport misses;
  ProbeStats probe;
};

SchedRun run_scheduler(const std::string& which, const TaskGraph& g, const Platform& p,
                       obs::Tracer* tracer, obs::Registry* metrics,
                       audit::DecisionLog* decisions) {
  if (which == "eas" || which == "eas-base") {
    EasOptions options;
    options.repair = which == "eas";
    options.tracer = tracer;
    options.metrics = metrics;
    options.decisions = decisions;
    EasResult r = schedule_eas(g, p, options);
    return {std::move(r.schedule), r.energy, std::move(r.misses), r.probe};
  }
  if (which == "map") {
    MapScheduleOptions options;
    options.obs = BaselineObs{tracer, metrics, decisions};
    MapScheduleResult r = schedule_map_then_list(g, p, options);
    return {std::move(r.result.schedule), r.result.energy, std::move(r.result.misses),
            r.result.probe};
  }
  const BaselineObs obs{tracer, metrics, decisions};
  BaselineResult r;
  if (which == "edf")
    r = schedule_edf(g, p, obs);
  else if (which == "dls")
    r = schedule_dls(g, p, obs);
  else if (which == "greedy")
    r = schedule_greedy_energy(g, p, obs);
  else
    NOCEAS_REQUIRE(false, "unknown scheduler '" << which << '\'');
  return {std::move(r.schedule), r.energy, std::move(r.misses), r.probe};
}

ReasonMix reason_mix(const analysis::CriticalPath& path) {
  // One reason-attribution code path repo-wide (analysis::split_by_reason),
  // so the manifest's mix can never drift from the analysis report's.
  const analysis::ReasonSplit split = analysis::split_by_reason(path);
  return ReasonMix{split.head, split.dep, split.pe, split.link};
}

using detail::analysis_path;
using detail::decisions_path;
using detail::metrics_path;

void write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream os(path);
  NOCEAS_REQUIRE(os.good(), "cannot write '" << path.string() << '\'');
  os << content;
}

/// Test hook for the stall watchdog: when NOCEAS_TEST_STALL_UNIT names this
/// unit, sleep NOCEAS_TEST_STALL_MS inside a dedicated span so CI can
/// verify a hung unit is localized to its id and open span path.
void maybe_test_stall(const std::string& unit_id, obs::Tracer* phases) {
  const char* want = std::getenv("NOCEAS_TEST_STALL_UNIT");
  if (want == nullptr || unit_id != want) return;
  const char* ms_text = std::getenv("NOCEAS_TEST_STALL_MS");
  const long ms = ms_text != nullptr ? std::atol(ms_text) : 0;
  if (ms <= 0) return;
  OBS_SPAN(phases, "test.stall_hook");
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Executes one unit; fills the outcome and resource slots.  Failures are
/// captured in the outcome row instead of escaping — one broken run must
/// not sink a fleet.
void run_one(const CampaignSpec& spec, std::size_t slot, const RunUnit& unit,
             RunOutcome& outcome, ResourceSample& resources, obs::ProfileSnapshot* profile,
             obs::TelemetryHub* telemetry) {
  const ResourceSampler sampler;
  outcome.id = unit.id;
  outcome.app = unit.app.name();
  outcome.seed = unit.seed;
  outcome.scheduler = unit.scheduler;

  // Span-notification spine for the per-unit profiler: no ring storage, so
  // a profiled fleet pays aggregation only.  Each unit owns its profiler,
  // so profiles can be merged slot-ordered regardless of thread assignment.
  obs::Profiler profiler;
  obs::TracerOptions spine_options;
  spine_options.record_events = false;
  spine_options.profiler = &profiler;
  obs::Tracer spine(spine_options);
  obs::Tracer* const tracer = profile != nullptr ? &spine : nullptr;

  // Separate span spine for the stall watchdog's phase attribution.  It
  // carries campaign-level phase spans only and is never handed to the
  // schedulers: attaching any sink there would select their eager probe
  // path and change the manifest's probe counters, breaking byte-identity
  // between telemetry-on and telemetry-off campaigns.
  obs::TracerOptions phase_options;
  phase_options.record_events = false;
  obs::Tracer phase_spine(phase_options);
  obs::Tracer* const phases = telemetry != nullptr ? &phase_spine : nullptr;
  if (telemetry != nullptr) {
    telemetry->unit_start(slot, unit.id, unit.scheduler, &phase_spine);
  }
  OBS_SPAN_NAMED(run_span, phases, "unit.run");

  try {
    maybe_test_stall(unit.id, phases);
    OBS_SPAN_NAMED(gen_span, phases, "unit.generate");
    const Instance inst = make_instance(unit.app, unit.seed);
    gen_span.end();
    outcome.num_tasks = inst.g.num_tasks();
    outcome.num_edges = inst.g.num_edges();

    const bool artifacts = spec.artifacts && !spec.out_dir.empty();
    obs::Registry registry;
    audit::DecisionLog decisions;
    OBS_SPAN_NAMED(sched_span, phases, "unit.schedule");
    const SchedRun run =
        run_scheduler(unit.scheduler, inst.g, inst.p, tracer,
                      artifacts ? &registry : nullptr, artifacts ? &decisions : nullptr);
    sched_span.end();

    OBS_SPAN_NAMED(val_span, phases, "unit.validate");
    const ValidationReport vr =
        validate_schedule(inst.g, inst.p, run.schedule, {.check_deadlines = false});
    NOCEAS_REQUIRE(vr.ok(), "invalid schedule:\n" << vr.to_string());
    val_span.end();

    outcome.energy_total = run.energy.total();
    outcome.energy_comp = run.energy.computation;
    outcome.energy_comm = run.energy.communication;
    outcome.makespan = makespan(run.schedule);
    outcome.miss_count = run.misses.miss_count;
    outcome.tardiness = run.misses.total_tardiness;
    outcome.deadlines_met = run.misses.all_met();
    outcome.avg_hops = average_hops_per_packet(inst.g, inst.p, run.schedule);
    outcome.probes_issued = run.probe.probes_issued;
    outcome.probe_cache_hits = run.probe.cache_hits;
    outcome.probe_hit_rate = run.probe.hit_rate();

    OBS_SPAN_NAMED(analyze_span, phases, "unit.analyze");
    if (artifacts) {
      // Full analysis (with decision cross-referencing) only when the
      // artifact is requested; the manifest's reason mix needs just the
      // critical path.
      analysis::AnalyzeOptions options;
      options.label = unit.scheduler;
      options.decisions = &decisions.stream();
      options.metrics = &registry;
      const analysis::Report report = analyze_schedule(inst.g, inst.p, run.schedule, options);
      outcome.reasons = reason_mix(report.critical_path);

      const std::filesystem::path dir(spec.out_dir);
      std::ostringstream os;
      write_analysis_json(os, report);
      write_file(dir / analysis_path(unit), os.str());
      os.str("");
      registry.write_json(os);
      write_file(dir / metrics_path(unit), os.str());
      os.str("");
      decisions.write_jsonl(os);
      write_file(dir / decisions_path(unit), os.str());
    } else {
      outcome.reasons = reason_mix(analysis::critical_path(inst.g, inst.p, run.schedule));
    }
    outcome.ok = true;
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = e.what();
  }
  run_span.end();
  if (telemetry != nullptr) {
    // After this returns the hub holds no pointer to phase_spine, so its
    // destruction at scope exit cannot race a watchdog tick.
    telemetry->unit_finish(slot, outcome.ok, outcome.error);
  }
  if (profile != nullptr) *profile = profiler.snapshot(spine.now_ns());
  resources = sampler.sample();
}

void write_reason_mix(std::ostream& os, const ReasonMix& mix) {
  os << "{\"head\":" << mix.head << ",\"dep\":" << mix.dep << ",\"pe_busy\":" << mix.pe_busy
     << ",\"link_busy\":" << mix.link_busy << '}';
}

/// Content hashes of the unit's artifact files, read back after run_one so
/// the shard row records what actually hit disk.
ArtifactHashes hash_artifacts(const CampaignSpec& spec, const std::filesystem::path& dir,
                              const RunUnit& unit, const RunOutcome& outcome) {
  ArtifactHashes hashes;
  if (!spec.artifacts || spec.out_dir.empty() || !outcome.ok) return hashes;
  hashes.metrics = detail::file_fnv1a_hex((dir / metrics_path(unit)).string());
  hashes.analysis = detail::file_fnv1a_hex((dir / analysis_path(unit)).string());
  hashes.decisions = detail::file_fnv1a_hex((dir / decisions_path(unit)).string());
  return hashes;
}

/// Rows of `spec.resume_from`'s shard.jsonl that survive validation:
/// parsed cleanly (a killed run's torn tail is dropped), owned by this
/// shard, succeeded, id still matching the expanded unit, and — with
/// artifacts on — every artifact file matching its recorded hash.
std::vector<ShardRow> reusable_rows(const CampaignSpec& spec,
                                    const std::vector<RunUnit>& units) {
  std::vector<ShardRow> rows;
  if (spec.resume_from.empty()) return rows;
  const std::filesystem::path prev(spec.resume_from);
  std::ifstream is(prev / "shard.jsonl");
  if (!is.good()) return rows;  // nothing recorded yet: run everything
  const ShardManifest m = read_shard_manifest(is, /*lenient=*/true);
  NOCEAS_REQUIRE(m.fingerprint == spec_fingerprint(spec),
                 "resume: '" << spec.resume_from
                             << "' holds a different campaign (spec fingerprint "
                             << m.fingerprint << " != " << spec_fingerprint(spec) << ')');
  NOCEAS_REQUIRE(m.shard == spec.shard_index && m.shards == spec.shard_count,
                 "resume: '" << spec.resume_from << "' is shard " << m.shard << '/' << m.shards
                             << ", not " << spec.shard_index << '/' << spec.shard_count);
  for (const ShardRow& row : m.rows) {
    if (row.unit >= units.size() || row.unit % spec.shard_count != spec.shard_index) continue;
    if (!row.outcome.ok || row.outcome.id != units[row.unit].id) continue;
    if (spec.artifacts) {
      if (!row.hashes.any()) continue;
      const RunUnit& unit = units[row.unit];
      const auto valid = [&](const std::string& rel, const std::string& want) {
        try {
          return detail::file_fnv1a_hex((prev / rel).string()) == want;
        } catch (const Error&) {
          return false;  // artifact gone: re-run the unit
        }
      };
      if (!valid(metrics_path(unit), row.hashes.metrics) ||
          !valid(analysis_path(unit), row.hashes.analysis) ||
          !valid(decisions_path(unit), row.hashes.decisions)) {
        continue;
      }
    }
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

namespace detail {

std::string metrics_path(const RunUnit& u) { return "runs/" + u.id + ".metrics.json"; }
std::string analysis_path(const RunUnit& u) { return "runs/" + u.id + ".analysis.json"; }
std::string decisions_path(const RunUnit& u) { return "runs/" + u.id + ".decisions.jsonl"; }

void write_app_spec_json(std::ostream& os, const AppSpec& app) {
  os << "{\"name\":";
  json::write_string(os, app.name());
  os << ",\"kind\":\""
     << (app.kind == AppSpec::Kind::Tgff    ? "tgff"
         : app.kind == AppSpec::Kind::Msb ? "msb"
                                          : "custom")
     << '"';
  if (app.kind == AppSpec::Kind::Tgff) {
    os << ",\"category\":" << app.category << ",\"index\":" << app.index;
  } else if (app.kind == AppSpec::Kind::Msb) {
    os << ",\"app\":";
    json::write_string(os, app.msb_app);
    os << ",\"clip\":";
    json::write_string(os, app.msb_clip);
  }
  os << '}';
}

void write_outcome_json(std::ostream& os, const RunOutcome& r, const RunUnit* unit) {
  os << "{\"id\":";
  json::write_string(os, r.id);
  os << ",\"app\":";
  json::write_string(os, r.app);
  os << ",\"seed\":" << r.seed << ",\"scheduler\":";
  json::write_string(os, r.scheduler);
  os << ",\"ok\":" << (r.ok ? "true" : "false");
  if (!r.ok) {
    os << ",\"error\":";
    json::write_string(os, r.error);
    os << '}';
    return;
  }
  os << ",\"num_tasks\":" << r.num_tasks << ",\"num_edges\":" << r.num_edges
     << ",\"energy\":" << json::number(r.energy_total)
     << ",\"energy_comp\":" << json::number(r.energy_comp)
     << ",\"energy_comm\":" << json::number(r.energy_comm) << ",\"makespan\":" << r.makespan
     << ",\"miss_count\":" << r.miss_count << ",\"tardiness\":" << r.tardiness
     << ",\"avg_hops\":" << json::number(r.avg_hops)
     << ",\"deadlines_met\":" << (r.deadlines_met ? "true" : "false") << ",\"reasons\":";
  write_reason_mix(os, r.reasons);
  os << ",\"probes_issued\":" << r.probes_issued
     << ",\"probe_cache_hits\":" << r.probe_cache_hits
     << ",\"probe_hit_rate\":" << json::number(r.probe_hit_rate);
  if (unit != nullptr) {
    os << ",\"artifacts\":{\"metrics\":";
    json::write_string(os, metrics_path(*unit));
    os << ",\"analysis\":";
    json::write_string(os, analysis_path(*unit));
    os << ",\"decisions\":";
    json::write_string(os, decisions_path(*unit));
    os << '}';
  }
  os << '}';
}

}  // namespace detail

std::string AppSpec::name() const {
  switch (kind) {
    case Kind::Tgff:
      return "cat" + std::to_string(category) + "-i" + std::to_string(index);
    case Kind::Msb:
      return "msb-" + msb_app + "-" + msb_clip;
    case Kind::Custom:
      return custom_name.empty() ? "custom" : custom_name;
  }
  return "unknown";
}

std::vector<RunUnit> expand_spec(const CampaignSpec& spec) {
  if (!spec.apps.empty()) {
    NOCEAS_REQUIRE(!spec.seeds.empty(), "campaign spec has apps but no seeds");
    NOCEAS_REQUIRE(!spec.schedulers.empty(), "campaign spec has apps but no schedulers");
  }
  for (const std::string& s : spec.schedulers) {
    NOCEAS_REQUIRE(known_scheduler(s), "unknown scheduler '" << s << "' in campaign spec");
  }
  std::vector<RunUnit> units;
  for (const AppSpec& app : spec.apps) {
    const std::size_t seed_count = app.seeded() ? spec.seeds.size() : 1;
    for (std::size_t si = 0; si < seed_count; ++si) {
      for (const std::string& scheduler : spec.schedulers) {
        RunUnit unit;
        unit.app = app;
        unit.seed = spec.seeds[si];
        unit.scheduler = scheduler;
        unit.id = app.name() + "-s" + std::to_string(unit.seed) + "-" + scheduler;
        units.push_back(std::move(unit));
      }
    }
  }
  return units;
}

obs::ProfileSnapshot CampaignResult::fleet_profile() const {
  obs::ProfileSnapshot fleet;
  for (const obs::ProfileSnapshot& p : profiles) fleet.merge(p);
  return fleet;
}

CampaignResult run_campaign(const CampaignSpec& spec) {
  NOCEAS_REQUIRE(spec.shard_count >= 1, "campaign shard_count must be >= 1");
  NOCEAS_REQUIRE(spec.shard_index < spec.shard_count,
                 "campaign shard_index " << spec.shard_index << " out of range for shard_count "
                                         << spec.shard_count);
  NOCEAS_REQUIRE(spec.resume_from.empty() || !spec.profile,
                 "campaign resume cannot be combined with profile "
                 "(per-unit profiles are not persisted per manifest row)");

  CampaignResult result;
  result.spec = spec;
  result.units = expand_spec(spec);
  result.outcomes.resize(result.units.size());
  result.resources.resize(result.units.size());
  if (spec.profile) result.profiles.resize(result.units.size());
  // Round-robin unit ownership: global index ≡ shard_index (mod
  // shard_count).  Interleaving spreads each app's expensive seeds across
  // the fleet instead of handing one shard a whole hot category.
  for (std::size_t i = spec.shard_index; i < result.units.size(); i += spec.shard_count) {
    result.shard_units.push_back(i);
  }
  const bool sharded = spec.shard_count > 1;
  const bool with_artifacts = spec.artifacts && !spec.out_dir.empty();

  const std::filesystem::path dir(spec.out_dir);
  if (!spec.out_dir.empty()) {
    std::filesystem::create_directories(spec.artifacts ? dir / "runs" : dir);
  }

  // Resume: pre-fill slots whose previous rows (and artifacts) validate;
  // everything else executes below.  The artifact copies matter only when
  // resuming into a fresh directory.
  std::vector<ArtifactHashes> hashes(result.units.size());
  std::vector<char> prefilled(result.units.size(), 0);
  for (const ShardRow& row : reusable_rows(spec, result.units)) {
    result.outcomes[row.unit] = row.outcome;
    hashes[row.unit] = row.hashes;
    prefilled[row.unit] = 1;
    ++result.resumed_units;
    if (with_artifacts && spec.resume_from != spec.out_dir) {
      const std::filesystem::path prev(spec.resume_from);
      const RunUnit& unit = result.units[row.unit];
      for (const std::string& rel :
           {metrics_path(unit), analysis_path(unit), decisions_path(unit)}) {
        std::filesystem::copy_file(prev / rel, dir / rel,
                                   std::filesystem::copy_options::overwrite_existing);
      }
    }
  }
  std::vector<std::size_t> pending;
  for (std::size_t i : result.shard_units) {
    if (prefilled[i] == 0) pending.push_back(i);
  }

  // Live telemetry: streams and watchdog live for the duration of the
  // fleet, entirely beside the deterministic artifacts (the hub attaches
  // no scheduler sinks and writes no manifest bytes).
  std::ofstream progress_file;
  std::ofstream timeseries_file;
  std::unique_ptr<obs::TelemetryHub> hub;
  if (spec.telemetry_enabled()) {
    obs::TelemetryOptions topt;
    topt.interval_ms = spec.telemetry_interval_ms;
    topt.total_units = pending.size();
    topt.lanes = spec.threads > 0 ? spec.threads : 1;
    topt.stall_multiplier = spec.stall_multiplier;
    topt.stall_floor_ms = spec.stall_floor_ms;
    if (spec.progress && !spec.out_dir.empty()) {
      progress_file.open(dir / "progress.jsonl");
      NOCEAS_REQUIRE(progress_file.good(), "cannot write '" << (dir / "progress.jsonl").string()
                                                            << '\'');
      topt.progress = &progress_file;
    }
    if (spec.timeseries && !spec.out_dir.empty()) {
      timeseries_file.open(dir / "timeseries.jsonl");
      NOCEAS_REQUIRE(timeseries_file.good(),
                     "cannot write '" << (dir / "timeseries.jsonl").string() << '\'');
      topt.timeseries = &timeseries_file;
    }
    if (spec.ticker) topt.ticker = &std::cerr;
    hub = std::make_unique<obs::TelemetryHub>(topt);
  }

  // Incremental partial manifest: the header goes out before any unit
  // runs, resumed rows follow, and every finished unit appends its row
  // under the stream mutex — a killed shard loses at most a torn final
  // line, which the lenient resume reader drops.  The file is rewritten in
  // global unit order (deterministic bytes) once the fleet completes.
  std::ofstream shard_stream;
  std::mutex shard_m;
  if (!spec.out_dir.empty()) {
    shard_stream.open(dir / "shard.jsonl");
    NOCEAS_REQUIRE(shard_stream.good(),
                   "cannot write '" << (dir / "shard.jsonl").string() << '\'');
    write_shard_header_json(shard_stream, spec, result.units.size());
    for (std::size_t i : result.shard_units) {
      if (prefilled[i] != 0) {
        write_shard_row_json(shard_stream, i, result.outcomes[i],
                             with_artifacts ? &result.units[i] : nullptr, hashes[i]);
      }
    }
    shard_stream.flush();
  }

  // One private pool per campaign: unit i writes slot i, so the merge is
  // seq-ordered and independent of which lane ran what.  The schedulers'
  // own probe batches still go through the (distinct) shared probe pool;
  // its submissions are serialized internally and bit-neutral.
  const unsigned workers = spec.threads > 1 ? spec.threads - 1 : 0;
  ThreadPool pool(workers);
  pool.parallel_for(pending.size(), [&](std::size_t k, unsigned /*lane*/) {
    const std::size_t i = pending[k];
    run_one(spec, i, result.units[i], result.outcomes[i], result.resources[i],
            spec.profile ? &result.profiles[i] : nullptr, hub.get());
    if (shard_stream.is_open()) {
      const ArtifactHashes h =
          hash_artifacts(spec, dir, result.units[i], result.outcomes[i]);
      std::lock_guard<std::mutex> lk(shard_m);
      hashes[i] = h;
      write_shard_row_json(shard_stream, i, result.outcomes[i],
                           with_artifacts ? &result.units[i] : nullptr, hashes[i]);
      shard_stream.flush();
    }
  });

  if (hub != nullptr) {
    hub->stop();
    if (spec.timeseries && !spec.out_dir.empty()) {
      std::ostringstream os;
      obs::write_timeline_html(os, hub->timeline(), pending.size());
      write_file(dir / "timeline.html", os.str());
    }
  }

  if (!spec.out_dir.empty()) {
    // Final deterministic form of the partial manifest: same header, rows
    // sorted into global unit order.
    shard_stream.close();
    std::ostringstream os;
    write_shard_header_json(os, spec, result.units.size());
    for (std::size_t i : result.shard_units) {
      write_shard_row_json(os, i, result.outcomes[i],
                           with_artifacts ? &result.units[i] : nullptr, hashes[i]);
    }
    write_file(dir / "shard.jsonl", os.str());
    os.str("");

    // A sharded run holds a fraction of the fleet's rows: the
    // manifest/aggregate/dashboard schemas would lie about the campaign, so
    // only `merge` writes them.  The wall-clock companions (resources,
    // profile, telemetry streams) are per-process by nature and are written
    // either way.
    if (!sharded) {
      const Aggregate aggregate = aggregate_outcomes(spec, result.units, result.outcomes);
      write_manifest_json(os, result);
      write_file(dir / "manifest.json", os.str());
      os.str("");
      write_aggregate_json(os, aggregate);
      write_file(dir / "aggregate.json", os.str());
      os.str("");
      write_dashboard_html(os, result, aggregate);
      write_file(dir / "dashboard.html", os.str());
      os.str("");
    }
    write_resources_json(os, result);
    write_file(dir / "resources.json", os.str());
    if (spec.profile) {
      const obs::ProfileSnapshot fleet = result.fleet_profile();
      os.str("");
      obs::write_profile_json(os, fleet, /*include_timings=*/false);
      write_file(dir / "profile.json", os.str());
      os.str("");
      obs::write_profile_json(os, fleet, /*include_timings=*/true);
      write_file(dir / "profile_timings.json", os.str());
      os.str("");
      obs::write_profile_folded(os, fleet);
      write_file(dir / "profile.folded", os.str());
    }
  }
  return result;
}

void write_manifest_json(std::ostream& os, const CampaignResult& result) {
  // Deterministic by construction: unit order only, no wall-clock fields,
  // no thread counts, no absolute paths.
  const CampaignSpec& spec = result.spec;
  os << "{\"schema\":\"noceas.campaign.v1\",\"spec\":{\"apps\":[";
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    if (i > 0) os << ',';
    detail::write_app_spec_json(os, spec.apps[i]);
  }
  os << "],\"seeds\":[";
  for (std::size_t i = 0; i < spec.seeds.size(); ++i) {
    if (i > 0) os << ',';
    os << spec.seeds[i];
  }
  os << "],\"schedulers\":[";
  for (std::size_t i = 0; i < spec.schedulers.size(); ++i) {
    if (i > 0) os << ',';
    json::write_string(os, spec.schedulers[i]);
  }
  os << "],\"artifacts\":" << (spec.artifacts ? "true" : "false") << "},\"runs\":[";
  const bool with_artifacts = spec.artifacts && !spec.out_dir.empty();
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    if (i > 0) os << ',';
    os << '\n';
    detail::write_outcome_json(os, result.outcomes[i],
                               with_artifacts && result.outcomes[i].ok ? &result.units[i]
                                                                       : nullptr);
  }
  os << "\n]}\n";
}

void write_resources_json(std::ostream& os, const CampaignResult& result) {
  os << "{\"schema\":\"noceas.campaign.resources.v2\",\"threads\":" << result.spec.threads
     << ",\"peak_rss_kb\":" << ResourceSampler::current_peak_rss_kb()
     << ",\"rss_kb\":" << ResourceSampler::current_rss_kb() << ",\"runs\":[";
  // Owned slots only: a sharded campaign reports the runs it executed (a
  // full campaign owns every slot, so the document is unchanged there).
  for (std::size_t k = 0; k < result.shard_units.size(); ++k) {
    const std::size_t i = result.shard_units[k];
    const ResourceSample& r = result.resources[i];
    if (k > 0) os << ',';
    os << "\n{\"id\":";
    json::write_string(os, result.outcomes[i].id);
    os << ",\"wall_seconds\":" << json::number(r.wall_seconds)
       << ",\"cpu_seconds\":" << json::number(r.cpu_seconds) << ",\"peak_rss_kb\":" << r.peak_rss_kb
       << ",\"rss_kb\":" << r.rss_kb << '}';
  }
  os << "\n]}\n";
}

}  // namespace noceas::campaign
