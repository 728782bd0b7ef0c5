#include "src/campaign/dashboard.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <vector>

#include "src/viz/svg_common.hpp"

namespace noceas::campaign {

namespace {

using viz::escape_xml;
using viz::palette_color;

/// Compact number rendering for table cells (6 significant digits).
std::string num(double v) {
  if (!std::isfinite(v)) return "-";
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

std::string pct(double v) {
  std::ostringstream os;
  os.precision(3);
  os << 100.0 * v << '%';
  return os.str();
}

/// One distribution-strip SVG: a row per scheduler, a dot per run value on
/// a shared linear axis, a vertical median tick per row.
void write_strip_svg(std::ostream& os, const CampaignResult& result,
                     const Aggregate& aggregate, const char* title,
                     double (*value_of)(const RunOutcome&),
                     double (*median_of)(const SchedulerAggregate&)) {
  const int width = 860, label_w = 110, row_h = 26, margin = 24;
  const int plot_w = width - label_w - margin;
  const int height = row_h * static_cast<int>(aggregate.schedulers.size()) + 40;

  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (const RunOutcome& r : result.outcomes) {
    if (!r.ok) continue;
    const double v = value_of(r);
    if (!any) {
      lo = hi = v;
      any = true;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (!any) {
    os << "<p class=\"empty\">no successful runs — nothing to plot</p>\n";
    return;
  }
  if (hi <= lo) hi = lo + 1.0;  // single value: keep the scale finite
  const auto x_of = [&](double v) {
    return label_w + (v - lo) / (hi - lo) * static_cast<double>(plot_w);
  };

  os << "<svg width=\"" << width << "\" height=\"" << height
     << "\" font-family=\"sans-serif\" font-size=\"11\" role=\"img\">\n"
     << "<text x=\"4\" y=\"14\" font-weight=\"bold\">" << escape_xml(title) << "</text>\n";
  os << "<line x1=\"" << label_w << "\" y1=\"" << height - 14 << "\" x2=\"" << width - margin
     << "\" y2=\"" << height - 14 << "\" stroke=\"#999\"/>\n"
     << "<text x=\"" << label_w << "\" y=\"" << height - 2 << "\">" << num(lo) << "</text>\n"
     << "<text x=\"" << width - margin << "\" y=\"" << height - 2
     << "\" text-anchor=\"end\">" << num(hi) << "</text>\n";

  for (std::size_t si = 0; si < aggregate.schedulers.size(); ++si) {
    const SchedulerAggregate& agg = aggregate.schedulers[si];
    const int y = 24 + static_cast<int>(si) * row_h + row_h / 2;
    os << "<text x=\"4\" y=\"" << y + 4 << "\">" << escape_xml(agg.scheduler) << "</text>\n";
    os << "<line x1=\"" << label_w << "\" y1=\"" << y << "\" x2=\"" << width - margin
       << "\" y2=\"" << y << "\" stroke=\"#eee\"/>\n";
    for (const RunOutcome& r : result.outcomes) {
      if (!r.ok || r.scheduler != agg.scheduler) continue;
      os << "<circle cx=\"" << x_of(value_of(r)) << "\" cy=\"" << y
         << "\" r=\"3.5\" fill=\"" << palette_color(si) << "\" fill-opacity=\"0.55\"><title>"
         << escape_xml(r.id) << ": " << num(value_of(r)) << "</title></circle>\n";
    }
    if (agg.runs > 0) {
      os << "<line x1=\"" << x_of(median_of(agg)) << "\" y1=\"" << y - 9 << "\" x2=\""
         << x_of(median_of(agg)) << "\" y2=\"" << y + 9
         << "\" stroke=\"#333\" stroke-width=\"2\"><title>p50 " << num(median_of(agg))
         << "</title></line>\n";
    }
  }
  os << "</svg>\n";
}

void write_win_table(std::ostream& os, const WinMatrix& wins,
                     const std::vector<std::vector<WinCell>>& matrix, const char* title) {
  os << "<h3>" << title << "</h3>\n<table><tr><th>row beats column &#8594;</th>";
  for (const std::string& s : wins.schedulers) os << "<th>" << escape_xml(s) << "</th>";
  os << "</tr>\n";
  for (std::size_t a = 0; a < wins.schedulers.size(); ++a) {
    os << "<tr><th>" << escape_xml(wins.schedulers[a]) << "</th>";
    for (std::size_t b = 0; b < wins.schedulers.size(); ++b) {
      if (a == b) {
        os << "<td class=\"diag\">&#8212;</td>";
        continue;
      }
      const WinCell& c = matrix[a][b];
      os << "<td>" << c.wins << "&#8211;" << c.losses;
      if (c.ties > 0) os << " (" << c.ties << " ties)";
      os << "</td>";
    }
    os << "</tr>\n";
  }
  os << "</table>\n";
}

double energy_of(const RunOutcome& r) { return r.energy_total; }
double makespan_of(const RunOutcome& r) { return static_cast<double>(r.makespan); }
double energy_p50(const SchedulerAggregate& s) { return s.energy.p50; }
double makespan_p50(const SchedulerAggregate& s) { return s.makespan.p50; }

}  // namespace

void write_dashboard_html(std::ostream& os, const CampaignResult& result,
                          const Aggregate& aggregate) {
  const CampaignSpec& spec = result.spec;
  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
     << "<title>noceas campaign dashboard</title>\n<style>\n"
     << "body{font-family:sans-serif;margin:24px;color:#222;max-width:960px}\n"
     << "table{border-collapse:collapse;margin:8px 0 20px}\n"
     << "th,td{border:1px solid #ccc;padding:4px 9px;text-align:right;font-size:13px}\n"
     << "th{background:#f4f4f4}\ntd.diag{color:#aaa;text-align:center}\n"
     << ".tiles{display:flex;gap:16px;margin:12px 0}\n"
     << ".tile{border:1px solid #ddd;border-radius:6px;padding:10px 16px}\n"
     << ".tile b{display:block;font-size:22px}\n"
     << ".empty{color:#a00}\ncode{background:#f4f4f4;padding:1px 4px}\n"
     << "</style></head><body>\n<h1>Campaign dashboard</h1>\n";

  // Summary tiles.
  os << "<div class=\"tiles\">"
     << "<div class=\"tile\"><b>" << aggregate.total_runs << "</b>runs</div>"
     << "<div class=\"tile\"><b>" << spec.apps.size() << "</b>apps</div>"
     << "<div class=\"tile\"><b>" << spec.seeds.size() << "</b>seeds</div>"
     << "<div class=\"tile\"><b>" << spec.schedulers.size() << "</b>schedulers</div>"
     << "<div class=\"tile\"><b>" << aggregate.failed_runs << "</b>failed</div>"
     << "</div>\n";

  if (aggregate.total_runs == 0) {
    os << "<p class=\"empty\">empty campaign: the spec expanded to zero runs</p>\n"
       << "</body></html>\n";
    return;
  }

  // Per-scheduler statistics.
  os << "<h2>Per-scheduler distributions</h2>\n<table><tr><th>scheduler</th><th>runs</th>"
     << "<th>energy mean</th><th>energy p50</th><th>energy p90</th>"
     << "<th>makespan mean</th><th>makespan p50</th><th>makespan p90</th>"
     << "<th>miss rate</th><th>avg hops</th></tr>\n";
  for (const SchedulerAggregate& s : aggregate.schedulers) {
    os << "<tr><th>" << escape_xml(s.scheduler) << "</th><td>" << s.runs << "</td><td>"
       << num(s.energy.mean) << "</td><td>" << num(s.energy.p50) << "</td><td>"
       << num(s.energy.p90) << "</td><td>" << num(s.makespan.mean) << "</td><td>"
       << num(s.makespan.p50) << "</td><td>" << num(s.makespan.p90) << "</td><td>"
       << pct(s.miss_rate) << "</td><td>" << num(s.mean_hops) << "</td></tr>\n";
  }
  os << "</table>\n";

  write_strip_svg(os, result, aggregate, "Energy per run (nJ)", energy_of, energy_p50);
  write_strip_svg(os, result, aggregate, "Makespan per run (ticks)", makespan_of, makespan_p50);

  if (aggregate.wins.schedulers.size() > 1) {
    os << "<h2>Win matrices (shared instances)</h2>\n";
    write_win_table(os, aggregate.wins, aggregate.wins.energy, "Energy (lower wins)");
    write_win_table(os, aggregate.wins, aggregate.wins.makespan, "Makespan (lower wins)");
  }

  // Outliers, with the drill-down path into the single-run tooling.
  os << "<h2>Outlier runs</h2>\n<table><tr><th>scheduler</th><th>run</th><th>makespan</th>"
     << "<th>&#916; vs p50</th><th>energy</th><th>critical path: head/dep/pe/link</th>"
     << "<th>artifacts</th></tr>\n";
  for (const SchedulerAggregate& s : aggregate.schedulers) {
    for (const OutlierRun& o : s.outliers) {
      os << "<tr><td>" << escape_xml(s.scheduler) << "</td><td>" << escape_xml(o.run_id)
         << "</td><td>" << o.makespan << "</td><td>" << num(o.deviation) << "</td><td>"
         << num(o.energy) << "</td><td>" << o.reasons.head << " / " << o.reasons.dep << " / "
         << o.reasons.pe_busy << " / " << o.reasons.link_busy << "</td><td>";
      if (spec.artifacts) {
        os << "<a href=\"runs/" << escape_xml(o.run_id) << ".analysis.json\">analysis</a> "
           << "<a href=\"runs/" << escape_xml(o.run_id) << ".decisions.jsonl\">decisions</a>";
      } else {
        os << "&#8212;";
      }
      os << "</td></tr>\n";
    }
  }
  os << "</table>\n"
     << "<p>Drill into any run with <code>noceas_cli analyze</code> (regenerate the instance "
     << "with the run's app + seed) or <code>noceas_cli explain --decisions "
     << "runs/&lt;run&gt;.decisions.jsonl --task T</code> when artifacts were recorded.</p>\n"
     // Static text (not conditional on telemetry) so the dashboard stays
     // byte-identical whether or not the live streams were captured.
     << "<p>Wall-clock companions, when captured: <code>resources.json</code>, "
     << "<code>progress.jsonl</code>, <code>timeseries.jsonl</code>, and the "
     << "<a href=\"timeline.html\">fleet timeline</a> (units in flight + RSS over time; "
     << "run the campaign with <code>--timeseries</code> to produce it).</p>\n"
     << "</body></html>\n";
}

}  // namespace noceas::campaign
