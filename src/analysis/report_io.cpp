// Serialization of the analysis Report: the "noceas.analysis.v1" JSON
// document, the human-readable summary, the two-report diff, and the metrics
// bridge.  Kept apart from analysis.cpp so the computation stays I/O-free.
#include <algorithm>
#include <ostream>
#include <string>

#include "src/analysis/analysis.hpp"
#include "src/util/json.hpp"
#include "src/util/table.hpp"

namespace noceas::analysis {

namespace {

/// kNoDeadline round-trips as -1 (decision-log convention).
std::int64_t time_repr(Time t) { return t == kNoDeadline ? -1 : t; }

void write_segment(std::ostream& os, const PathSegment& seg) {
  os << "{\"kind\":\"" << (seg.kind == PathSegment::Kind::Task ? "task" : "comm")
     << "\",\"id\":" << seg.id << ",\"start\":" << seg.start << ",\"finish\":" << seg.finish
     << ",\"resource\":" << seg.resource << ",\"reason\":\"" << to_string(seg.reason)
     << "\",\"via\":" << seg.via << '}';
}

void write_task(std::ostream& os, const TaskAttribution& a, std::size_t id) {
  os << "{\"task\":" << id << ",\"pe\":" << a.pe << ",\"release\":" << a.release
     << ",\"start\":" << a.start << ",\"finish\":" << a.finish << ",\"dep_ready\":" << a.dep_ready
     << ",\"data_ready\":" << a.data_ready << ",\"dep_wait\":" << a.dep_wait
     << ",\"link_wait\":" << a.link_wait << ",\"pe_wait\":" << a.pe_wait
     << ",\"deadline\":" << time_repr(a.deadline) << ",\"bd\":" << time_repr(a.budgeted_deadline);
  if (a.has_budget) {
    os << ",\"granted_slack\":" << json::number(a.granted_slack)
       << ",\"consumed_slack\":" << json::number(a.consumed_slack)
       << ",\"residual_slack\":" << json::number(a.residual_slack);
  }
  os << ",\"blockers\":[";
  for (std::size_t i = 0; i < a.blockers.size(); ++i) {
    const BlockerRecord& b = a.blockers[i];
    if (i > 0) os << ',';
    os << "{\"edge\":" << b.edge << ",\"wait\":" << b.wait << ",\"link\":" << b.link
       << ",\"blocking_edge\":" << b.blocking_edge << ",\"blocking_task\":" << b.blocking_task
       << ",\"decision_seq\":" << b.decision_seq << '}';
  }
  os << "]}";
}

std::string seg_name(const PathSegment& seg) {
  return (seg.kind == PathSegment::Kind::Task ? "task " : "edge ") + std::to_string(seg.id);
}

}  // namespace

ReasonSplit split_by_reason(const CriticalPath& path) {
  ReasonSplit out;
  for (const PathSegment& seg : path.segments) {
    const Time len = seg.finish - seg.start;
    switch (seg.reason) {
      case PathSegment::Reason::Dep: out.dep += len; break;
      case PathSegment::Reason::PeBusy: out.pe += len; break;
      case PathSegment::Reason::LinkBusy: out.link += len; break;
      default: out.head += len; break;
    }
  }
  return out;
}

bool ReportDelta::empty() const {
  return makespan == 0 && misses == 0 && tardiness == 0 && energy_total == 0.0 &&
         energy_comp == 0.0 && energy_comm == 0.0 && dep_wait == 0 && link_wait == 0 &&
         pe_wait == 0 && cp_length == 0 && cp_identical && moved_tasks.empty() &&
         retimed_tasks.empty();
}

ReportDelta diff_reports(const Report& a, const Report& b) {
  ReportDelta d;
  d.makespan = b.makespan - a.makespan;
  d.misses = static_cast<std::int64_t>(b.misses.miss_count) -
             static_cast<std::int64_t>(a.misses.miss_count);
  d.tardiness = b.misses.total_tardiness - a.misses.total_tardiness;
  d.energy_total = b.energy.totals.total() - a.energy.totals.total();
  d.energy_comp = b.energy.totals.computation - a.energy.totals.computation;
  d.energy_comm = b.energy.totals.communication - a.energy.totals.communication;
  d.dep_wait = b.total_dep_wait - a.total_dep_wait;
  d.link_wait = b.total_link_wait - a.total_link_wait;
  d.pe_wait = b.total_pe_wait - a.total_pe_wait;
  d.cp_length = b.critical_path.length - a.critical_path.length;
  d.reasons_a = split_by_reason(a.critical_path);
  d.reasons_b = split_by_reason(b.critical_path);

  const auto& pa = a.critical_path.segments;
  const auto& pb = b.critical_path.segments;
  std::size_t i = 0;
  while (i < pa.size() && i < pb.size() && pa[i].kind == pb[i].kind && pa[i].id == pb[i].id) ++i;
  d.cp_divergence = i;
  d.cp_identical = i == pa.size() && i == pb.size();

  const std::size_t tasks = std::min(a.tasks.size(), b.tasks.size());
  for (std::size_t t = 0; t < tasks; ++t) {
    const TaskAttribution& ta = a.tasks[t];
    const TaskAttribution& tb = b.tasks[t];
    if (ta.pe != tb.pe) {
      d.moved_tasks.push_back(static_cast<std::int32_t>(t));
    } else if (ta.start != tb.start || ta.finish != tb.finish) {
      d.retimed_tasks.push_back(static_cast<std::int32_t>(t));
    }
  }
  return d;
}

void write_analysis_json(std::ostream& os, const Report& r) {
  os << "{\"schema\":\"noceas.analysis.v1\",\"label\":";
  json::write_string(os, r.label);
  os << ",\"num_tasks\":" << r.num_tasks << ",\"num_edges\":" << r.num_edges
     << ",\"num_pes\":" << r.num_pes << ",\"num_links\":" << r.num_links
     << ",\"makespan\":" << r.makespan;

  os << ",\"misses\":{\"count\":" << r.misses.miss_count
     << ",\"total_tardiness\":" << r.misses.total_tardiness << ",\"tasks\":[";
  for (std::size_t i = 0; i < r.misses.missed.size(); ++i) {
    if (i > 0) os << ',';
    os << r.misses.missed[i].value;
  }
  os << "]}";

  os << ",\"critical_path\":{\"complete\":" << (r.critical_path.complete ? "true" : "false")
     << ",\"head_start\":" << r.critical_path.head_start
     << ",\"length\":" << r.critical_path.length << ",\"segments\":[";
  for (std::size_t i = 0; i < r.critical_path.segments.size(); ++i) {
    if (i > 0) os << ',';
    write_segment(os, r.critical_path.segments[i]);
  }
  os << "]}";

  os << ",\"waits\":{\"dep\":" << r.total_dep_wait << ",\"link\":" << r.total_link_wait
     << ",\"pe\":" << r.total_pe_wait << '}';

  os << ",\"tasks\":[";
  for (std::size_t i = 0; i < r.tasks.size(); ++i) {
    if (i > 0) os << ',';
    write_task(os, r.tasks[i], i);
  }
  os << ']';

  os << ",\"pes\":[";
  for (std::size_t i = 0; i < r.pes.size(); ++i) {
    const PeUsage& u = r.pes[i];
    if (i > 0) os << ',';
    os << "{\"pe\":" << u.pe << ",\"tasks\":" << u.tasks << ",\"busy\":" << u.busy
       << ",\"utilization\":" << json::number(u.utilization) << ",\"idle_gaps\":" << u.idle_gaps
       << ",\"idle_time\":" << u.idle_time << ",\"longest_idle\":" << u.longest_idle << '}';
  }
  os << ']';

  os << ",\"links\":[";
  for (std::size_t i = 0; i < r.links.size(); ++i) {
    const LinkUsage& u = r.links[i];
    if (i > 0) os << ',';
    os << "{\"link\":" << u.link << ",\"transactions\":" << u.transactions
       << ",\"busy\":" << u.busy << ",\"utilization\":" << json::number(u.utilization)
       << ",\"contention_time\":" << u.contention_time << ",\"contention_windows\":[";
    for (std::size_t w = 0; w < u.contention_windows.size(); ++w) {
      if (w > 0) os << ',';
      os << '[' << u.contention_windows[w].start << ',' << u.contention_windows[w].end << ']';
    }
    os << "],\"idle_gaps\":" << u.idle_gaps << ",\"idle_time\":" << u.idle_time
       << ",\"longest_idle\":" << u.longest_idle << '}';
  }
  os << ']';

  const EnergyAttribution& en = r.energy;
  os << ",\"energy\":{\"computation\":" << json::number(en.totals.computation)
     << ",\"communication\":" << json::number(en.totals.communication)
     << ",\"total\":" << json::number(en.totals.total()) << ",\"per_task\":[";
  for (std::size_t i = 0; i < en.per_task.size(); ++i) {
    if (i > 0) os << ',';
    os << json::number(en.per_task[i]);
  }
  os << "],\"per_edge\":[";
  for (std::size_t i = 0; i < en.per_edge.size(); ++i) {
    if (i > 0) os << ',';
    os << json::number(en.per_edge[i]);
  }
  os << "],\"per_link\":[";
  for (std::size_t i = 0; i < en.per_link.size(); ++i) {
    const LinkEnergyRow& row = en.per_link[i];
    if (i > 0) os << ',';
    os << "{\"link\":" << row.link << ",\"bits\":" << row.bits
       << ",\"link_energy\":" << json::number(row.link_energy)
       << ",\"switch_energy\":" << json::number(row.switch_energy) << '}';
  }
  os << "],\"injection\":[";
  for (std::size_t i = 0; i < en.injection.size(); ++i) {
    const InjectionEnergyRow& row = en.injection[i];
    if (i > 0) os << ',';
    os << "{\"pe\":" << row.pe << ",\"bits\":" << row.bits
       << ",\"switch_energy\":" << json::number(row.switch_energy) << '}';
  }
  os << "],\"per_hop\":[";
  for (std::size_t i = 0; i < en.per_hop.size(); ++i) {
    const HopEnergyRow& row = en.per_hop[i];
    if (i > 0) os << ',';
    os << "{\"hops\":" << row.hops << ",\"packets\":" << row.packets
       << ",\"energy\":" << json::number(row.energy) << '}';
  }
  os << "]}}\n";
}

void print_analysis(std::ostream& os, const TaskGraph& g, const Platform& p, const Report& r,
                    std::size_t top) {
  os << "analysis of " << r.label << ": " << r.num_tasks << " tasks, " << r.num_edges
     << " edges on " << r.num_pes << " PEs\n";
  os << "  makespan " << r.makespan << ", deadline misses " << r.misses.miss_count
     << " (tardiness " << r.misses.total_tardiness << ")\n";
  os << "  energy " << format_double(r.energy.totals.total(), 4) << " nJ  (comp "
     << format_double(r.energy.totals.computation, 4) << " + comm "
     << format_double(r.energy.totals.communication, 4) << ")\n";
  os << "  aggregate waits: dep " << r.total_dep_wait << ", link " << r.total_link_wait
     << ", pe " << r.total_pe_wait << "\n\n";

  os << "critical path (" << r.critical_path.segments.size() << " segments, length "
     << r.critical_path.length << (r.critical_path.complete ? "" : ", INCOMPLETE") << "):\n";
  for (const PathSegment& seg : r.critical_path.segments) {
    os << "  [" << seg.start << ", " << seg.finish << ") ";
    if (seg.kind == PathSegment::Kind::Task) {
      os << "task " << seg.id;
      if (static_cast<std::size_t>(seg.id) < g.num_tasks()) {
        os << " (" << g.task(TaskId{seg.id}).name << ')';
      }
      if (seg.resource >= 0) os << " on " << p.tile_name(PeId{seg.resource});
    } else {
      os << "edge " << seg.id;
      if (static_cast<std::size_t>(seg.id) < g.num_edges()) {
        const CommEdge& e = g.edge(EdgeId{seg.id});
        os << " (task " << e.src.value << " -> task " << e.dst.value << ')';
      }
    }
    os << "  <- " << to_string(seg.reason);
    if (seg.via >= 0) {
      os << ' ' << (seg.reason == PathSegment::Reason::PeBusy ? "task" : "edge") << ' '
         << seg.via;
      if (seg.reason == PathSegment::Reason::LinkBusy && seg.resource >= 0) {
        os << " on link " << seg.resource;
      }
    }
    os << '\n';
  }

  // Most-delayed tasks (largest start − release), with their decomposition.
  std::vector<std::size_t> order(r.tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Time wa = r.tasks[a].start - r.tasks[a].release;
    const Time wb = r.tasks[b].start - r.tasks[b].release;
    if (wa != wb) return wa > wb;
    return a < b;
  });
  const std::size_t shown = std::min(top, order.size());
  if (shown > 0) {
    os << "\nmost-delayed tasks (start - release, decomposed):\n";
    AsciiTable table({"task", "pe", "start", "delay", "dep", "link", "pe-busy", "blocked by"});
    for (std::size_t i = 0; i < shown; ++i) {
      const TaskAttribution& a = r.tasks[order[i]];
      std::string blockers;
      for (const BlockerRecord& b : a.blockers) {
        if (!blockers.empty()) blockers += ", ";
        blockers += "edge " + std::to_string(b.edge);
        if (b.blocking_edge >= 0) {
          blockers += " <- edge " + std::to_string(b.blocking_edge) + " (task " +
                      std::to_string(b.blocking_task) + ") on link " + std::to_string(b.link);
          if (b.decision_seq >= 0) blockers += " seq " + std::to_string(b.decision_seq);
        }
      }
      table.add_row({std::to_string(order[i]), std::to_string(a.pe), std::to_string(a.start),
                     std::to_string(a.start - a.release), std::to_string(a.dep_wait),
                     std::to_string(a.link_wait), std::to_string(a.pe_wait),
                     blockers.empty() ? "-" : blockers});
    }
    table.print(os);
  }

  os << "\nPE utilization:\n";
  AsciiTable pe_table({"pe", "tasks", "busy", "util", "idle gaps", "idle", "longest"});
  for (const PeUsage& u : r.pes) {
    pe_table.add_row({p.tile_name(PeId{u.pe}), std::to_string(u.tasks), std::to_string(u.busy),
                      format_percent(u.utilization), std::to_string(u.idle_gaps),
                      std::to_string(u.idle_time), std::to_string(u.longest_idle)});
  }
  pe_table.print(os);

  if (!r.links.empty()) {
    os << "\nlink utilization (links with traffic):\n";
    AsciiTable link_table({"link", "txns", "busy", "util", "contention", "windows"});
    for (const LinkUsage& u : r.links) {
      link_table.add_row({std::to_string(u.link), std::to_string(u.transactions),
                          std::to_string(u.busy), format_percent(u.utilization),
                          std::to_string(u.contention_time),
                          std::to_string(u.contention_windows.size())});
    }
    link_table.print(os);
  }

  if (!r.energy.per_hop.empty()) {
    os << "\ncommunication energy by hop count:\n";
    AsciiTable hop_table({"hops", "packets", "energy"});
    for (const HopEnergyRow& row : r.energy.per_hop) {
      hop_table.add_row({std::to_string(row.hops), std::to_string(row.packets),
                         format_double(row.energy, 4)});
    }
    hop_table.print(os);
  }
}

void print_analysis_diff(std::ostream& os, const Report& a, const Report& b) {
  os << "analysis diff: " << a.label << " vs " << b.label << '\n';
  const ReasonSplit sa = split_by_reason(a.critical_path);
  const ReasonSplit sb = split_by_reason(b.critical_path);
  AsciiTable table({"metric", a.label, b.label, "delta"});
  auto row = [&](const std::string& name, double va, double vb, int digits = 0) {
    table.add_row({name, format_double(va, digits), format_double(vb, digits),
                   format_double(vb - va, digits)});
  };
  row("makespan", static_cast<double>(a.makespan), static_cast<double>(b.makespan));
  row("misses", static_cast<double>(a.misses.miss_count),
      static_cast<double>(b.misses.miss_count));
  row("tardiness", static_cast<double>(a.misses.total_tardiness),
      static_cast<double>(b.misses.total_tardiness));
  row("energy total", a.energy.totals.total(), b.energy.totals.total(), 4);
  row("energy comp", a.energy.totals.computation, b.energy.totals.computation, 4);
  row("energy comm", a.energy.totals.communication, b.energy.totals.communication, 4);
  row("wait dep", static_cast<double>(a.total_dep_wait), static_cast<double>(b.total_dep_wait));
  row("wait link", static_cast<double>(a.total_link_wait),
      static_cast<double>(b.total_link_wait));
  row("wait pe", static_cast<double>(a.total_pe_wait), static_cast<double>(b.total_pe_wait));
  row("cp length", static_cast<double>(a.critical_path.length),
      static_cast<double>(b.critical_path.length));
  row("cp dep time", static_cast<double>(sa.dep + sa.head), static_cast<double>(sb.dep + sb.head));
  row("cp pe-busy time", static_cast<double>(sa.pe), static_cast<double>(sb.pe));
  row("cp link-busy time", static_cast<double>(sa.link), static_cast<double>(sb.link));
  table.print(os);

  // Where the two critical paths diverge (first differing segment).
  const auto& pa = a.critical_path.segments;
  const auto& pb = b.critical_path.segments;
  std::size_t i = 0;
  while (i < pa.size() && i < pb.size() && pa[i].kind == pb[i].kind && pa[i].id == pb[i].id) ++i;
  if (i < pa.size() || i < pb.size()) {
    os << "critical paths diverge at segment " << i << ": "
       << (i < pa.size() ? seg_name(pa[i]) : std::string("(end)")) << " vs "
       << (i < pb.size() ? seg_name(pb[i]) : std::string("(end)")) << '\n';
  } else {
    os << "critical paths traverse the same " << pa.size() << " segments\n";
  }
}

void export_analysis_metrics(const Report& r, obs::Registry& registry) {
  registry.gauge("analysis.makespan", "time").set(static_cast<double>(r.makespan));
  registry.gauge("analysis.misses").set(static_cast<double>(r.misses.miss_count));
  registry.gauge("analysis.tardiness", "time")
      .set(static_cast<double>(r.misses.total_tardiness));
  registry.gauge("analysis.critical_path.length", "time")
      .set(static_cast<double>(r.critical_path.length));
  registry.gauge("analysis.critical_path.segments")
      .set(static_cast<double>(r.critical_path.segments.size()));
  const ReasonSplit split = split_by_reason(r.critical_path);
  registry.gauge("analysis.critical_path.pe_busy_time", "time")
      .set(static_cast<double>(split.pe));
  registry.gauge("analysis.critical_path.link_busy_time", "time")
      .set(static_cast<double>(split.link));
  registry.gauge("analysis.wait.dep", "time").set(static_cast<double>(r.total_dep_wait));
  registry.gauge("analysis.wait.link", "time").set(static_cast<double>(r.total_link_wait));
  registry.gauge("analysis.wait.pe", "time").set(static_cast<double>(r.total_pe_wait));
  registry.gauge("analysis.energy.computation", "nJ").set(r.energy.totals.computation);
  registry.gauge("analysis.energy.communication", "nJ").set(r.energy.totals.communication);

  obs::Histogram& pe_util =
      registry.histogram("analysis.pe.utilization", obs::linear_buckets(0.1, 0.1, 9), "ratio");
  for (const PeUsage& u : r.pes) pe_util.observe(u.utilization);
  obs::Histogram& link_util =
      registry.histogram("analysis.link.utilization", obs::linear_buckets(0.1, 0.1, 9), "ratio");
  for (const LinkUsage& u : r.links) link_util.observe(u.utilization);

  obs::Histogram& delay =
      registry.histogram("analysis.task.start_delay", obs::exp_buckets(1.0, 2.0, 16), "time");
  std::uint64_t blockers = 0;
  for (const TaskAttribution& a : r.tasks) {
    delay.observe(static_cast<double>(a.start - a.release));
    blockers += a.blockers.size();
  }
  registry.counter("analysis.blockers").inc(blockers);

  Duration contention = 0;
  std::uint64_t windows = 0;
  for (const LinkUsage& u : r.links) {
    contention += u.contention_time;
    windows += u.contention_windows.size();
  }
  registry.gauge("analysis.contention.time", "time").set(static_cast<double>(contention));
  registry.counter("analysis.contention.windows").inc(windows);
}

}  // namespace noceas::analysis
