#include "src/campaign/shard.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <iterator>
#include <map>
#include <sstream>

#include "src/campaign/aggregate.hpp"
#include "src/campaign/dashboard.hpp"
#include "src/campaign/manifest_io.hpp"
#include "src/obs/profile_io.hpp"
#include "src/obs/telemetry.hpp"
#include "src/util/json.hpp"

namespace noceas::campaign {

namespace {

void write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream os(path);
  NOCEAS_REQUIRE(os.good(), "cannot write '" << path.string() << '\'');
  os << content;
}

std::string slurp(std::istream& is) {
  return std::string(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
}

/// The manifest's spec-echo object — shared between the shard header and
/// write_manifest_json so both documents carry the same bytes.
void write_spec_echo(std::ostream& os, const CampaignSpec& spec) {
  os << "{\"apps\":[";
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
  os << "],\"artifacts\":" << (spec.artifacts ? "true" : "false") << '}';
}

AppSpec parse_app_spec(const json::Value& a) {
  AppSpec app;
  const std::string& kind = a.at("kind").str;
  if (kind == "tgff") {
    app.kind = AppSpec::Kind::Tgff;
    app.category = a.at("category").i32();
    app.index = a.at("index").i32();
  } else if (kind == "msb") {
    app.kind = AppSpec::Kind::Msb;
    app.msb_app = a.at("app").str;
    app.msb_clip = a.at("clip").str;
  } else {
    NOCEAS_REQUIRE(kind == "custom", "shard header: unknown app kind '" << kind << '\'');
    app.kind = AppSpec::Kind::Custom;
    app.custom_name = a.at("name").str;
  }
  return app;
}

}  // namespace

namespace detail {

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  static constexpr char kDigits[] = "0123456789abcdef";
  char out[16];
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[h & 0xF];
    h >>= 4;
  }
  return std::string(out, sizeof(out));
}

std::string file_fnv1a_hex(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  NOCEAS_REQUIRE(is.good(), "cannot read '" << path << '\'');
  return fnv1a_hex(slurp(is));
}

}  // namespace detail

std::string spec_fingerprint(const CampaignSpec& spec) {
  // Canonical serialization of everything that determines row bytes.  The
  // manifest's spec echo covers most of it; custom apps additionally bake
  // in their generator parameters (the echo carries only their name, but
  // two different parameter sets would produce different rows under the
  // same name).  Threads, shard geometry, paths, and telemetry knobs are
  // deliberately absent: they may differ per shard.
  std::ostringstream os;
  os << "noceas.campaign.spec.v1|";
  write_spec_echo(os, spec);
  for (const AppSpec& app : spec.apps) {
    if (app.kind != AppSpec::Kind::Custom) continue;
    const TgffParams& c = app.custom;
    os << "|custom:" << static_cast<int>(c.shape) << ',' << c.num_tasks << ',' << c.num_edges << ','
       << json::number(c.avg_layer_width) << ',' << c.max_in_degree << ','
       << json::number(c.base_work_min) << ',' << json::number(c.base_work_max) << ','
       << c.volume_min << ',' << c.volume_max << ',' << json::number(c.control_edge_fraction) << ','
       << json::number(c.deadline_tightness_min) << ',' << json::number(c.deadline_tightness_max)
       << ',' << json::number(c.interior_deadline_fraction) << ',' << json::number(c.table_jitter);
  }
  os << "|profile:" << (spec.profile ? 1 : 0);
  return detail::fnv1a_hex(os.str());
}

void write_shard_header_json(std::ostream& os, const CampaignSpec& spec,
                             std::size_t total_units) {
  os << "{\"schema\":\"noceas.campaign.shard.v1\",\"fingerprint\":\"" << spec_fingerprint(spec)
     << "\",\"shard\":" << spec.shard_index << ",\"shards\":" << spec.shard_count
     << ",\"units\":" << total_units << ",\"profile\":" << (spec.profile ? "true" : "false")
     << ",\"spec\":";
  write_spec_echo(os, spec);
  os << "}\n";
}

void write_shard_row_json(std::ostream& os, std::size_t unit_index, const RunOutcome& outcome,
                          const RunUnit* unit, const ArtifactHashes& hashes) {
  os << "{\"unit\":" << unit_index << ",\"run\":";
  detail::write_outcome_json(os, outcome, outcome.ok ? unit : nullptr);
  if (hashes.any()) {
    os << ",\"hashes\":{\"metrics\":\"" << hashes.metrics << "\",\"analysis\":\""
       << hashes.analysis << "\",\"decisions\":\"" << hashes.decisions << "\"}";
  }
  os << "}\n";
}

ShardManifest read_shard_manifest(std::istream& is, bool lenient) {
  ShardManifest m;
  std::string line;
  while (std::getline(is, line) && line.empty()) {
  }
  NOCEAS_REQUIRE(!line.empty(), "shard manifest: missing header line");
  const json::Value header = json::parse(line, "shard header");
  NOCEAS_REQUIRE(header.has("schema") && header.at("schema").str == "noceas.campaign.shard.v1",
                 "shard manifest: unknown schema");
  m.fingerprint = header.at("fingerprint").str;
  m.shard = static_cast<unsigned>(header.at("shard").i64());
  m.shards = static_cast<unsigned>(header.at("shards").i64());
  m.total_units = static_cast<std::size_t>(header.at("units").i64());
  m.profile = header.at("profile").b;

  const json::Value& spec = header.at("spec");
  m.spec.seeds.clear();
  m.spec.schedulers.clear();
  for (const json::Value& a : spec.at("apps").arr) m.spec.apps.push_back(parse_app_spec(a));
  for (const json::Value& s : spec.at("seeds").arr) m.spec.seeds.push_back(s.u64());
  for (const json::Value& s : spec.at("schedulers").arr) m.spec.schedulers.push_back(s.str);
  m.spec.artifacts = spec.at("artifacts").b;
  m.spec.profile = m.profile;
  m.spec.shard_index = m.shard;
  m.spec.shard_count = m.shards;

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    try {
      const json::Value j = json::parse(line, "shard row");
      ShardRow row;
      row.unit = static_cast<std::size_t>(j.at("unit").i64());
      row.outcome = detail::parse_outcome_json(j.at("run"));
      if (j.has("hashes")) {
        const json::Value& h = j.at("hashes");
        row.hashes.metrics = h.at("metrics").str;
        row.hashes.analysis = h.at("analysis").str;
        row.hashes.decisions = h.at("decisions").str;
      }
      m.rows.push_back(std::move(row));
    } catch (const Error&) {
      if (lenient) break;  // the torn tail of a killed shard: drop it
      throw;
    }
  }
  return m;
}

MergeReport merge_shards(const MergeOptions& options) {
  NOCEAS_REQUIRE(!options.out_dir.empty(), "campaign merge needs an output directory");
  if (options.shard_dirs.empty()) {
    throw ShardMergeError("missing_shard", "no shard directories given");
  }

  // Load every partial manifest (strict: a merge input must be a complete,
  // well-formed shard file — the lenient tolerance belongs to resume).
  struct Loaded {
    std::string dir;
    ShardManifest m;
  };
  std::vector<Loaded> loaded;
  for (const std::string& dir : options.shard_dirs) {
    const std::filesystem::path file = std::filesystem::path(dir) / "shard.jsonl";
    std::ifstream is(file);
    if (!is.good()) {
      throw ShardMergeError("unreadable_shard", "cannot read '" + file.string() + '\'');
    }
    try {
      loaded.push_back({dir, read_shard_manifest(is, /*lenient=*/false)});
    } catch (const ShardMergeError&) {
      throw;
    } catch (const Error& e) {
      throw ShardMergeError("unreadable_shard", '\'' + file.string() + "': " + e.what());
    }
  }

  // Fleet-level compatibility: one fingerprint, one geometry, every shard
  // index present exactly once.
  const ShardManifest& first = loaded.front().m;
  for (const Loaded& s : loaded) {
    if (s.m.fingerprint != first.fingerprint) {
      throw ShardMergeError("fingerprint_mismatch",
                            '\'' + loaded.front().dir + "' fingerprint " + first.fingerprint +
                                " != '" + s.dir + "' fingerprint " + s.m.fingerprint);
    }
    if (s.m.shards != first.shards || s.m.total_units != first.total_units) {
      throw ShardMergeError(
          "geometry_mismatch",
          '\'' + s.dir + "' is 1 of " + std::to_string(s.m.shards) + " shards over " +
              std::to_string(s.m.total_units) + " units; '" + loaded.front().dir + "' is 1 of " +
              std::to_string(first.shards) + " over " + std::to_string(first.total_units));
    }
    if (s.m.shard >= s.m.shards) {
      throw ShardMergeError("geometry_mismatch", '\'' + s.dir + "' claims shard index " +
                                                     std::to_string(s.m.shard) + " of only " +
                                                     std::to_string(s.m.shards));
    }
  }
  std::map<unsigned, const Loaded*> by_index;
  for (const Loaded& s : loaded) {
    const auto [it, inserted] = by_index.emplace(s.m.shard, &s);
    if (!inserted) {
      throw ShardMergeError("overlapping_shards", "shard " + std::to_string(s.m.shard) +
                                                      " appears in both '" + it->second->dir +
                                                      "' and '" + s.dir + '\'');
    }
  }
  if (by_index.size() != first.shards) {
    std::string missing;
    for (unsigned i = 0; i < first.shards; ++i) {
      if (!by_index.contains(i)) {
        if (!missing.empty()) missing += ',';
        missing += std::to_string(i);
      }
    }
    throw ShardMergeError("missing_shard", "have " + std::to_string(by_index.size()) + " of " +
                                               std::to_string(first.shards) +
                                               " shards (missing " + missing + ')');
  }

  // Reconstitute the campaign: the spec echo re-expands to the same global
  // unit order every shard saw, and each shard must cover exactly its
  // residue class.
  CampaignSpec spec = first.spec;
  spec.out_dir = options.out_dir;
  spec.shard_index = 0;
  spec.shard_count = 1;
  CampaignResult result;
  result.spec = spec;
  result.units = expand_spec(spec);
  if (result.units.size() != first.total_units) {
    throw ShardMergeError("geometry_mismatch",
                          "spec echo expands to " + std::to_string(result.units.size()) +
                              " units but the headers claim " +
                              std::to_string(first.total_units));
  }
  result.outcomes.resize(result.units.size());
  result.resources.resize(result.units.size());
  for (std::size_t i = 0; i < result.units.size(); ++i) result.shard_units.push_back(i);

  for (const auto& [index, shard] : by_index) {
    std::vector<std::size_t> expected;
    for (std::size_t i = index; i < result.units.size(); i += first.shards) {
      expected.push_back(i);
    }
    if (shard->m.rows.size() != expected.size()) {
      throw ShardMergeError("incomplete_shard",
                            '\'' + shard->dir + "' (shard " + std::to_string(index) + ") has " +
                                std::to_string(shard->m.rows.size()) + " of " +
                                std::to_string(expected.size()) + " rows");
    }
    for (std::size_t k = 0; k < expected.size(); ++k) {
      const ShardRow& row = shard->m.rows[k];
      if (row.unit != expected[k]) {
        throw ShardMergeError("unit_mismatch", '\'' + shard->dir + "' row " +
                                                   std::to_string(k) + " covers unit " +
                                                   std::to_string(row.unit) + ", expected " +
                                                   std::to_string(expected[k]));
      }
      if (row.outcome.id != result.units[row.unit].id) {
        throw ShardMergeError("unit_mismatch", '\'' + shard->dir + "' unit " +
                                                   std::to_string(row.unit) + " is '" +
                                                   row.outcome.id + "', spec expands to '" +
                                                   result.units[row.unit].id + '\'');
      }
      result.outcomes[row.unit] = row.outcome;
    }
  }

  MergeReport report;
  report.shards = first.shards;
  report.units = result.units.size();
  for (const RunOutcome& o : result.outcomes) {
    if (!o.ok) ++report.failed_runs;
  }
  report.artifacts = spec.artifacts;
  report.profile = first.profile;

  const std::filesystem::path out(options.out_dir);
  std::filesystem::create_directories(spec.artifacts ? out / "runs" : out);

  // Per-run artifacts: verify each file against the hash its shard row
  // recorded, then copy it into the merged directory.  A mismatch means
  // the artifact was tampered with (or torn) after the run — refusing is
  // the only honest answer, since the row's reason mix came from the
  // original bytes.
  if (spec.artifacts) {
    for (const auto& [index, shard] : by_index) {
      const std::filesystem::path src(shard->dir);
      for (const ShardRow& row : shard->m.rows) {
        if (!row.outcome.ok) continue;
        if (!row.hashes.any()) {
          throw ShardMergeError("artifact_hash_mismatch",
                                '\'' + shard->dir + "' unit '" + row.outcome.id +
                                    "' records no artifact hashes");
        }
        const RunUnit& unit = result.units[row.unit];
        const auto copy_checked = [&](const std::string& rel, const std::string& want) {
          std::string got;
          try {
            got = detail::file_fnv1a_hex((src / rel).string());
          } catch (const Error& e) {
            throw ShardMergeError("artifact_hash_mismatch", std::string(e.what()));
          }
          if (got != want) {
            throw ShardMergeError("artifact_hash_mismatch",
                                  '\'' + (src / rel).string() + "' hashes to " + got +
                                      " but the shard row recorded " + want);
          }
          std::filesystem::copy_file(src / rel, out / rel,
                                     std::filesystem::copy_options::overwrite_existing);
        };
        copy_checked(detail::metrics_path(unit), row.hashes.metrics);
        copy_checked(detail::analysis_path(unit), row.hashes.analysis);
        copy_checked(detail::decisions_path(unit), row.hashes.decisions);
      }
    }
  }

  // The deterministic trio, through the unchanged writers: rows in global
  // unit order are all they consume, so the output is byte-identical to a
  // 1-process campaign of the same spec.
  const Aggregate aggregate = aggregate_outcomes(spec, result.units, result.outcomes);
  std::ostringstream os;
  write_manifest_json(os, result);
  write_file(out / "manifest.json", os.str());
  os.str("");
  write_aggregate_json(os, aggregate);
  write_file(out / "aggregate.json", os.str());
  os.str("");
  write_dashboard_html(os, result, aggregate);
  write_file(out / "dashboard.html", os.str());

  // Fleet profile: fold the per-shard snapshots (shape section stays
  // byte-identical to the 1-process profile.json; timings sum).  The
  // self-time identity must survive the fold — it is the invariant that
  // makes cross-shard attribution trustworthy.
  if (first.profile) {
    obs::ProfileSnapshot fleet;
    for (const auto& [index, shard] : by_index) {
      const std::filesystem::path file = std::filesystem::path(shard->dir) /
                                         "profile_timings.json";
      std::ifstream pis(file);
      if (!pis.good()) {
        throw ShardMergeError("incomplete_shard", "profiled shard " + std::to_string(index) +
                                                      " ('" + shard->dir +
                                                      "') has no profile_timings.json");
      }
      try {
        fleet.merge(obs::read_profile_json(pis));
      } catch (const Error& e) {
        throw ShardMergeError("unreadable_shard", '\'' + file.string() + "': " + e.what());
      }
    }
    NOCEAS_REQUIRE(fleet.sum_self_ns() == fleet.root_total_ns(),
                   "fleet profile self-time identity violated after merge ("
                       << fleet.sum_self_ns() << " != " << fleet.root_total_ns() << ')');
    os.str("");
    obs::write_profile_json(os, fleet, /*include_timings=*/false);
    write_file(out / "profile.json", os.str());
    os.str("");
    obs::write_profile_json(os, fleet, /*include_timings=*/true);
    write_file(out / "profile_timings.json", os.str());
    os.str("");
    obs::write_profile_folded(os, fleet);
    write_file(out / "profile.folded", os.str());
  }

  // Fleet resources: per-shard totals plus the fleet roll-up.  Shards
  // missing a parsable resources.json are skipped — the document is a
  // wall-clock companion, never a merge precondition.
  {
    os.str("");
    os << "{\"schema\":\"noceas.campaign.resources.fleet.v1\",\"shards\":[";
    double fleet_wall = 0.0;
    double fleet_cpu = 0.0;
    std::int64_t fleet_peak = 0;
    std::uint64_t fleet_runs = 0;
    bool first_entry = true;
    for (const auto& [index, shard] : by_index) {
      std::ifstream ris(std::filesystem::path(shard->dir) / "resources.json");
      if (!ris.good()) continue;
      json::Value doc;
      try {
        doc = json::parse(slurp(ris), "resources");
      } catch (const Error&) {
        continue;
      }
      if (!doc.has("schema") || doc.at("schema").str != "noceas.campaign.resources.v2") continue;
      double wall = 0.0;
      double cpu = 0.0;
      std::uint64_t runs = 0;
      for (const json::Value& r : doc.at("runs").arr) {
        wall += r.at("wall_seconds").num;
        cpu += r.at("cpu_seconds").num;
        ++runs;
      }
      const std::int64_t peak = doc.at("peak_rss_kb").i64();
      if (!first_entry) os << ',';
      first_entry = false;
      os << "\n{\"shard\":" << index << ",\"dir\":";
      json::write_string(os, shard->dir);
      os << ",\"threads\":" << doc.at("threads").i64() << ",\"runs\":" << runs
         << ",\"wall_seconds\":" << json::number(wall) << ",\"cpu_seconds\":" << json::number(cpu)
         << ",\"peak_rss_kb\":" << peak << '}';
      fleet_wall += wall;
      fleet_cpu += cpu;
      fleet_peak = std::max(fleet_peak, peak);
      fleet_runs += runs;
    }
    os << "\n],\"fleet\":{\"runs\":" << fleet_runs
       << ",\"wall_seconds\":" << json::number(fleet_wall)
       << ",\"cpu_seconds\":" << json::number(fleet_cpu)
       << ",\"peak_rss_kb\":" << fleet_peak << "}}\n";
    write_file(out / "resources.json", os.str());
  }

  // Fleet telemetry: concatenate the raw streams (summarize_stream accepts
  // the multi-header result) and render the per-shard-lane fleet timeline.
  std::vector<obs::FleetLane> lanes;
  std::string progress_cat;
  std::string timeseries_cat;
  for (const auto& [index, shard] : by_index) {
    obs::FleetLane lane;
    lane.label = "shard " + std::to_string(index);
    lane.units = shard->m.rows.size();
    const std::filesystem::path sdir(shard->dir);
    if (std::ifstream ts(sdir / "timeseries.jsonl"); ts.good()) {
      const std::string text = slurp(ts);
      timeseries_cat += text;
      std::istringstream pin(text);
      lane.points = obs::read_timeline_points(pin);
    }
    if (std::ifstream ps(sdir / "progress.jsonl"); ps.good()) {
      const std::string text = slurp(ps);
      progress_cat += text;
      std::istringstream pin(text);
      lane.stalls = obs::read_progress_stalls(pin);
      report.stall_events += lane.stalls.size();
    }
    lanes.push_back(std::move(lane));
  }
  const bool any_stream =
      !progress_cat.empty() || !timeseries_cat.empty();
  if (!progress_cat.empty()) write_file(out / "progress.jsonl", progress_cat);
  if (!timeseries_cat.empty()) write_file(out / "timeseries.jsonl", timeseries_cat);
  if (any_stream) {
    os.str("");
    obs::write_fleet_timeline_html(os, lanes);
    write_file(out / "timeline.html", os.str());
    report.telemetry = true;
    for (const std::size_t li : obs::fleet_stragglers(lanes)) {
      report.stragglers.push_back(lanes[li].label);
    }
  }
  return report;
}

}  // namespace noceas::campaign
