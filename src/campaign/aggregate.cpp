#include "src/campaign/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>

#include "src/util/error.hpp"
#include "src/util/json.hpp"

namespace noceas::campaign {

namespace {

/// Linear-interpolation quantile over an ascending-sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = lo + 1 < sorted.size() ? lo + 1 : lo;
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void write_dist(std::ostream& os, const Dist& d) {
  os << "{\"count\":" << d.count << ",\"mean\":" << json::number(d.mean)
     << ",\"min\":" << json::number(d.min) << ",\"p10\":" << json::number(d.p10)
     << ",\"p50\":" << json::number(d.p50) << ",\"p90\":" << json::number(d.p90)
     << ",\"max\":" << json::number(d.max) << '}';
}

void write_reasons(std::ostream& os, const ReasonMix& mix) {
  os << "{\"head\":" << mix.head << ",\"dep\":" << mix.dep << ",\"pe_busy\":" << mix.pe_busy
     << ",\"link_busy\":" << mix.link_busy << '}';
}

void write_win_rows(std::ostream& os, const std::vector<std::vector<WinCell>>& matrix) {
  os << '[';
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    if (i > 0) os << ',';
    os << '[';
    for (std::size_t j = 0; j < matrix[i].size(); ++j) {
      if (j > 0) os << ',';
      const WinCell& c = matrix[i][j];
      os << "{\"wins\":" << c.wins << ",\"losses\":" << c.losses << ",\"ties\":" << c.ties
         << '}';
    }
    os << ']';
  }
  os << ']';
}

}  // namespace

Dist make_dist(const std::vector<double>& values) {
  Dist d;
  d.count = values.size();
  if (values.empty()) return d;
  // Exact unit-order accumulation: the mean reconciles bit-for-bit with a
  // reader summing the manifest rows in order.
  double sum = 0.0;
  for (double v : values) sum += v;
  d.mean = sum / static_cast<double>(values.size());
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  d.min = sorted.front();
  d.max = sorted.back();
  d.p10 = quantile(sorted, 0.10);
  d.p50 = quantile(sorted, 0.50);
  d.p90 = quantile(sorted, 0.90);
  return d;
}

Aggregate aggregate_outcomes(const CampaignSpec& spec, const std::vector<RunUnit>& units,
                             const std::vector<RunOutcome>& outcomes) {
  NOCEAS_REQUIRE(units.size() == outcomes.size(), "units/outcomes size mismatch");
  Aggregate out;
  out.total_runs = outcomes.size();

  for (const std::string& scheduler : spec.schedulers) {
    SchedulerAggregate agg;
    agg.scheduler = scheduler;
    std::vector<double> energy;
    std::vector<double> makespans;
    std::vector<std::size_t> indices;  // unit indices of the successful runs
    double hops_sum = 0.0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const RunOutcome& r = outcomes[i];
      if (r.scheduler != scheduler) continue;
      if (!r.ok) {
        ++agg.failed;
        continue;
      }
      ++agg.runs;
      indices.push_back(i);
      energy.push_back(r.energy_total);
      makespans.push_back(static_cast<double>(r.makespan));
      if (r.miss_count > 0) ++agg.runs_with_misses;
      agg.total_misses += r.miss_count;
      agg.total_tardiness += r.tardiness;
      hops_sum += r.avg_hops;
      agg.reasons += r.reasons;
    }
    agg.energy = make_dist(energy);
    agg.makespan = make_dist(makespans);
    agg.miss_rate = agg.runs > 0
                        ? static_cast<double>(agg.runs_with_misses) / static_cast<double>(agg.runs)
                        : 0.0;
    agg.mean_hops = agg.runs > 0 ? hops_sum / static_cast<double>(agg.runs) : 0.0;

    // Outliers: the runs farthest from the scheduler's median makespan,
    // largest deviation first, ties broken by unit index (deterministic).
    std::vector<OutlierRun> outliers;
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const std::size_t i = indices[k];
      OutlierRun o;
      o.unit_index = i;
      o.run_id = outcomes[i].id;
      o.deviation = std::abs(makespans[k] - agg.makespan.p50);
      o.makespan = outcomes[i].makespan;
      o.energy = outcomes[i].energy_total;
      o.reasons = outcomes[i].reasons;
      outliers.push_back(std::move(o));
    }
    std::stable_sort(outliers.begin(), outliers.end(),
                     [](const OutlierRun& a, const OutlierRun& b) {
                       return a.deviation > b.deviation;
                     });
    if (outliers.size() > kMaxOutliers) outliers.resize(kMaxOutliers);
    agg.outliers = std::move(outliers);
    out.failed_runs += agg.failed;
    out.schedulers.push_back(std::move(agg));
  }

  // Win matrices: pairwise over the (app, seed) instances both schedulers
  // completed.  Instance keys are collected in unit order.
  out.wins.schedulers = spec.schedulers;
  const std::size_t n = spec.schedulers.size();
  out.wins.energy.assign(n, std::vector<WinCell>(n));
  out.wins.makespan.assign(n, std::vector<WinCell>(n));
  std::vector<std::pair<std::string, std::uint64_t>> instances;  // in unit order, unique
  std::map<std::pair<std::string, std::uint64_t>, std::vector<std::size_t>> by_instance;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const std::pair<std::string, std::uint64_t> key{outcomes[i].app, outcomes[i].seed};
    auto [it, inserted] = by_instance.try_emplace(key);
    if (inserted) instances.push_back(key);
    it->second.push_back(i);
  }
  std::map<std::string, std::size_t> sched_index;
  for (std::size_t a = 0; a < n; ++a) sched_index[spec.schedulers[a]] = a;
  for (const auto& key : instances) {
    // Outcome per scheduler on this instance (one run each by expansion).
    std::vector<const RunOutcome*> per_sched(n, nullptr);
    for (std::size_t i : by_instance.at(key)) {
      if (outcomes[i].ok) per_sched[sched_index.at(outcomes[i].scheduler)] = &outcomes[i];
    }
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b || per_sched[a] == nullptr || per_sched[b] == nullptr) continue;
        auto tally = [](WinCell& cell, double mine, double theirs) {
          if (mine < theirs)
            ++cell.wins;
          else if (mine > theirs)
            ++cell.losses;
          else
            ++cell.ties;
        };
        tally(out.wins.energy[a][b], per_sched[a]->energy_total, per_sched[b]->energy_total);
        tally(out.wins.makespan[a][b], static_cast<double>(per_sched[a]->makespan),
              static_cast<double>(per_sched[b]->makespan));
      }
    }
  }
  return out;
}

void write_aggregate_json(std::ostream& os, const Aggregate& aggregate) {
  os << "{\"schema\":\"noceas.campaign.aggregate.v1\",\"total_runs\":" << aggregate.total_runs
     << ",\"failed_runs\":" << aggregate.failed_runs << ",\"schedulers\":[";
  for (std::size_t i = 0; i < aggregate.schedulers.size(); ++i) {
    const SchedulerAggregate& s = aggregate.schedulers[i];
    if (i > 0) os << ',';
    os << "\n{\"scheduler\":";
    json::write_string(os, s.scheduler);
    os << ",\"runs\":" << s.runs << ",\"failed\":" << s.failed << ",\"energy\":";
    write_dist(os, s.energy);
    os << ",\"makespan\":";
    write_dist(os, s.makespan);
    os << ",\"runs_with_misses\":" << s.runs_with_misses
       << ",\"miss_rate\":" << json::number(s.miss_rate) << ",\"total_misses\":" << s.total_misses
       << ",\"total_tardiness\":" << s.total_tardiness
       << ",\"mean_hops\":" << json::number(s.mean_hops) << ",\"reasons\":";
    write_reasons(os, s.reasons);
    os << ",\"outliers\":[";
    for (std::size_t k = 0; k < s.outliers.size(); ++k) {
      const OutlierRun& o = s.outliers[k];
      if (k > 0) os << ',';
      os << "{\"run\":";
      json::write_string(os, o.run_id);
      os << ",\"unit\":" << o.unit_index << ",\"deviation\":" << json::number(o.deviation)
         << ",\"makespan\":" << o.makespan << ",\"energy\":" << json::number(o.energy)
         << ",\"reasons\":";
      write_reasons(os, o.reasons);
      os << '}';
    }
    os << "]}";
  }
  os << "\n],\"win_matrix\":{\"schedulers\":[";
  for (std::size_t i = 0; i < aggregate.wins.schedulers.size(); ++i) {
    if (i > 0) os << ',';
    json::write_string(os, aggregate.wins.schedulers[i]);
  }
  os << "],\"energy\":";
  write_win_rows(os, aggregate.wins.energy);
  os << ",\"makespan\":";
  write_win_rows(os, aggregate.wins.makespan);
  os << "}}\n";
}

void export_campaign_metrics(const Aggregate& aggregate, obs::Registry& registry) {
  registry.counter("campaign.runs").inc(aggregate.total_runs);
  registry.counter("campaign.failed_runs").inc(aggregate.failed_runs);
  for (const SchedulerAggregate& s : aggregate.schedulers) {
    const std::string prefix = "campaign." + s.scheduler;
    registry.gauge(prefix + ".energy.mean", "nJ").set(s.energy.mean);
    registry.gauge(prefix + ".energy.p50", "nJ").set(s.energy.p50);
    registry.gauge(prefix + ".energy.p90", "nJ").set(s.energy.p90);
    registry.gauge(prefix + ".makespan.mean", "ticks").set(s.makespan.mean);
    registry.gauge(prefix + ".makespan.p50", "ticks").set(s.makespan.p50);
    registry.gauge(prefix + ".makespan.p90", "ticks").set(s.makespan.p90);
    registry.gauge(prefix + ".miss_rate", "fraction").set(s.miss_rate);
  }
}

}  // namespace noceas::campaign
