#include "src/obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "src/audit/xref.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/table.hpp"

namespace noceas::diff {

namespace {

/// kNoDeadline round-trips as -1 (decision-log convention).
std::int64_t budget_repr(Time t) { return t == kNoDeadline ? -1 : t; }

/// Bit-equality with NaN == NaN (the writers emit null for NaN, so two
/// not-evaluated candidate energies are the *same* recorded fact).
bool deq(double x, double y) { return x == y || (std::isnan(x) && std::isnan(y)); }

bool candidate_equal(const audit::CandidateRow& x, const audit::CandidateRow& y) {
  return x.task == y.task && x.pe == y.pe && x.finish == y.finish && deq(x.energy, y.energy) &&
         x.feasible == y.feasible && deq(x.score, y.score);
}

bool comm_equal(const audit::CommRecord& x, const audit::CommRecord& y) {
  return x.edge == y.edge && x.src_task == y.src_task && x.src_pe == y.src_pe &&
         x.dst_pe == y.dst_pe && x.src_finish == y.src_finish && x.start == y.start &&
         x.duration == y.duration && x.route == y.route;
}

bool move_equal(const audit::RepairMoveRecord& x, const audit::RepairMoveRecord& y) {
  return x.kind == y.kind && x.task == y.task && x.pe == y.pe && x.pos_a == y.pos_a &&
         x.pos_b == y.pos_b && x.swap_with == y.swap_with && x.from_pe == y.from_pe &&
         x.to_pe == y.to_pe && x.insert_index == y.insert_index &&
         deq(x.delta_energy, y.delta_energy) && x.accepted == y.accepted &&
         x.misses_before == y.misses_before && x.misses_after == y.misses_after &&
         x.tardiness_before == y.tardiness_before && x.tardiness_after == y.tardiness_after;
}

std::string choice_str(const audit::PlacementDecision& d) {
  return "(task " + std::to_string(d.task) + " on pe " + std::to_string(d.pe) + ')';
}

/// Merges the two candidate tables by (task, pe), A's row order first, then
/// B-only rows in B's order — deterministic and side-by-side renderable.
std::vector<CandidateDelta> merge_candidates(const audit::PlacementDecision& a,
                                             const audit::PlacementDecision& b) {
  std::vector<CandidateDelta> out;
  std::map<std::pair<std::int32_t, std::int32_t>, std::size_t> index;
  for (const audit::CandidateRow& row : a.candidates) {
    CandidateDelta d;
    d.task = row.task;
    d.pe = row.pe;
    d.in_a = true;
    d.a = row;
    index[{row.task, row.pe}] = out.size();
    out.push_back(std::move(d));
  }
  for (const audit::CandidateRow& row : b.candidates) {
    const auto it = index.find({row.task, row.pe});
    if (it != index.end()) {
      CandidateDelta& d = out[it->second];
      d.in_b = true;
      d.b = row;
      d.differs = !candidate_equal(d.a, row);
    } else {
      CandidateDelta d;
      d.task = row.task;
      d.pe = row.pe;
      d.in_b = true;
      d.b = row;
      out.push_back(std::move(d));
    }
  }
  for (CandidateDelta& d : out) {
    d.chosen_a = d.task == a.task && d.pe == a.pe;
    d.chosen_b = d.task == b.task && d.pe == b.pe;
  }
  return out;
}

std::vector<CommDelta> merge_comms(const audit::PlacementDecision& a,
                                   const audit::PlacementDecision& b) {
  std::vector<CommDelta> out;
  std::map<std::int32_t, std::size_t> index;
  for (const audit::CommRecord& c : a.comms) {
    CommDelta d;
    d.edge = c.edge;
    d.in_a = true;
    d.a = c;
    index[c.edge] = out.size();
    out.push_back(std::move(d));
  }
  for (const audit::CommRecord& c : b.comms) {
    const auto it = index.find(c.edge);
    if (it != index.end()) {
      CommDelta& d = out[it->second];
      d.in_b = true;
      d.b = c;
      d.differs = !comm_equal(d.a, c);
    } else {
      CommDelta d;
      d.edge = c.edge;
      d.in_b = true;
      d.b = c;
      out.push_back(std::move(d));
    }
  }
  return out;
}

/// Fills the event-level fields of a divergence found at aligned events.
void set_events(StreamDivergence& d, const audit::DecisionEvent& a,
                const audit::DecisionEvent& b) {
  d.found = true;
  d.seq = a.seq;
  d.has_a = true;
  d.has_b = true;
  d.a = a;
  d.b = b;
}

/// Place-vs-place comparison in diagnosis order: the coarsest difference
/// (what was chosen) wins over the finer ones (how the table looked).
bool diff_place(StreamDivergence& d, const audit::DecisionEvent& ea,
                const audit::DecisionEvent& eb) {
  const audit::PlacementDecision& a = ea.place;
  const audit::PlacementDecision& b = eb.place;
  std::string detail;
  StreamDivergence::What what;
  if (a.task != b.task || a.pe != b.pe) {
    what = StreamDivergence::What::Choice;
    detail = "chose " + choice_str(a) + " vs " + choice_str(b);
  } else if (a.start != b.start || a.finish != b.finish || a.budget != b.budget) {
    what = StreamDivergence::What::Timing;
    detail = "same choice " + choice_str(a) + " but timing [start,finish,bd] [" +
             std::to_string(a.start) + ',' + std::to_string(a.finish) + ',' +
             std::to_string(budget_repr(a.budget)) + "] vs [" + std::to_string(b.start) + ',' +
             std::to_string(b.finish) + ',' + std::to_string(budget_repr(b.budget)) + ']';
  } else if (a.rule != b.rule) {
    what = StreamDivergence::What::Rule;
    detail = "rule '" + a.rule + "' vs '" + b.rule + '\'';
  } else if (a.ready != b.ready) {
    what = StreamDivergence::What::Rule;
    detail = "ready set differs (" + std::to_string(a.ready.size()) + " vs " +
             std::to_string(b.ready.size()) + " entries)";
  } else if (!(a.candidates.size() == b.candidates.size() &&
               std::equal(a.candidates.begin(), a.candidates.end(), b.candidates.begin(),
                          candidate_equal))) {
    what = StreamDivergence::What::Candidates;
    detail = "same outcome, candidate table differs";
  } else if (!(a.comms.size() == b.comms.size() &&
               std::equal(a.comms.begin(), a.comms.end(), b.comms.begin(), comm_equal))) {
    what = StreamDivergence::What::Comms;
    detail = "same placement, link reservations differ";
  } else {
    return false;
  }
  set_events(d, ea, eb);
  d.what = what;
  d.detail = std::move(detail);
  d.candidates = merge_candidates(a, b);
  d.comms = merge_comms(a, b);
  return true;
}

bool final_task_equal(const audit::FinalTask& x, const audit::FinalTask& y) {
  return x.pe == y.pe && x.start == y.start && x.finish == y.finish;
}
bool final_comm_equal(const audit::FinalComm& x, const audit::FinalComm& y) {
  return x.src_pe == y.src_pe && x.dst_pe == y.dst_pe && x.start == y.start &&
         x.duration == y.duration;
}

/// "" when equal, else a one-line description of the first difference.
std::string finals_detail(const audit::FinalRecord& a, const audit::FinalRecord& b) {
  if (a.tasks.size() != b.tasks.size()) {
    return "final task counts differ (" + std::to_string(a.tasks.size()) + " vs " +
           std::to_string(b.tasks.size()) + ')';
  }
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    if (!final_task_equal(a.tasks[i], b.tasks[i])) {
      return "final placement of task " + std::to_string(i) + " differs: pe " +
             std::to_string(a.tasks[i].pe) + " @[" + std::to_string(a.tasks[i].start) + ',' +
             std::to_string(a.tasks[i].finish) + "] vs pe " + std::to_string(b.tasks[i].pe) +
             " @[" + std::to_string(b.tasks[i].start) + ',' + std::to_string(b.tasks[i].finish) +
             ']';
    }
  }
  if (a.comms.size() != b.comms.size()) {
    return "final comm counts differ (" + std::to_string(a.comms.size()) + " vs " +
           std::to_string(b.comms.size()) + ')';
  }
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    if (!final_comm_equal(a.comms[i], b.comms[i])) {
      return "final transaction of edge " + std::to_string(i) + " differs";
    }
  }
  if (!deq(a.computation_energy, b.computation_energy)) {
    return "final computation energy " + json::number(a.computation_energy) + " vs " +
           json::number(b.computation_energy);
  }
  if (!deq(a.communication_energy, b.communication_energy)) {
    return "final communication energy " + json::number(a.communication_energy) + " vs " +
           json::number(b.communication_energy);
  }
  if (a.miss_count != b.miss_count) {
    return "final miss count " + std::to_string(a.miss_count) + " vs " +
           std::to_string(b.miss_count);
  }
  if (a.total_tardiness != b.total_tardiness) {
    return "final tardiness " + std::to_string(a.total_tardiness) + " vs " +
           std::to_string(b.total_tardiness);
  }
  return "";
}

}  // namespace

const char* to_string(StreamDivergence::What w) {
  switch (w) {
    case StreamDivergence::What::Header: return "header";
    case StreamDivergence::What::Seq: return "seq";
    case StreamDivergence::What::Kind: return "kind";
    case StreamDivergence::What::Attempt: return "attempt";
    case StreamDivergence::What::Choice: return "choice";
    case StreamDivergence::What::Timing: return "timing";
    case StreamDivergence::What::Rule: return "rule";
    case StreamDivergence::What::Candidates: return "candidates";
    case StreamDivergence::What::Comms: return "comms";
    case StreamDivergence::What::Repair: return "repair";
    case StreamDivergence::What::Length: return "length";
    case StreamDivergence::What::Final: return "final";
  }
  return "?";
}

StreamDivergence diff_streams(const audit::DecisionStream& a, const audit::DecisionStream& b) {
  StreamDivergence d;
  if (a.scheduler != b.scheduler || a.num_tasks != b.num_tasks || a.num_edges != b.num_edges ||
      a.num_pes != b.num_pes) {
    d.found = true;
    d.what = StreamDivergence::What::Header;
    d.detail = "headers differ: " + a.scheduler + " (" + std::to_string(a.num_tasks) + "t/" +
               std::to_string(a.num_edges) + "e/" + std::to_string(a.num_pes) + "pe) vs " +
               b.scheduler + " (" + std::to_string(b.num_tasks) + "t/" +
               std::to_string(b.num_edges) + "e/" + std::to_string(b.num_pes) + "pe)";
    return d;
  }

  audit::StreamCursor ca(a);
  audit::StreamCursor cb(b);
  while (!ca.done() && !cb.done()) {
    const audit::DecisionEvent& ea = ca.event();
    const audit::DecisionEvent& eb = cb.event();
    d.index = ca.index();
    if (ea.seq != eb.seq) {
      set_events(d, ea, eb);
      d.what = StreamDivergence::What::Seq;
      d.seq = std::min(ea.seq, eb.seq);
      d.detail = "event " + std::to_string(ca.index()) + " has seq " + std::to_string(ea.seq) +
                 " vs " + std::to_string(eb.seq);
      return d;
    }
    if (ea.kind != eb.kind) {
      set_events(d, ea, eb);
      d.what = StreamDivergence::What::Kind;
      d.detail = "different event kinds at seq " + std::to_string(ea.seq);
      return d;
    }
    switch (ea.kind) {
      case audit::DecisionEvent::Kind::BeginAttempt:
        if (ea.attempt != eb.attempt) {
          set_events(d, ea, eb);
          d.what = StreamDivergence::What::Attempt;
          d.detail = "attempt index " + std::to_string(ea.attempt) + " vs " +
                     std::to_string(eb.attempt);
          return d;
        }
        break;
      case audit::DecisionEvent::Kind::Place:
        if (diff_place(d, ea, eb)) return d;
        break;
      case audit::DecisionEvent::Kind::RepairBegin:
      case audit::DecisionEvent::Kind::RepairEnd:
        if (ea.repair_misses != eb.repair_misses ||
            ea.repair_tardiness != eb.repair_tardiness) {
          set_events(d, ea, eb);
          d.what = StreamDivergence::What::Repair;
          d.detail = std::string(ea.kind == audit::DecisionEvent::Kind::RepairBegin
                                     ? "repair_begin"
                                     : "repair_end") +
                     " objective (" + std::to_string(ea.repair_misses) + " misses, " +
                     std::to_string(ea.repair_tardiness) + ") vs (" +
                     std::to_string(eb.repair_misses) + " misses, " +
                     std::to_string(eb.repair_tardiness) + ')';
          return d;
        }
        break;
      case audit::DecisionEvent::Kind::RepairMove:
        if (!move_equal(ea.move, eb.move)) {
          set_events(d, ea, eb);
          d.what = StreamDivergence::What::Repair;
          d.detail = ea.move.kind + " move of task " + std::to_string(ea.move.task) + " (" +
                     (ea.move.accepted ? "accepted" : "rejected") + ") vs " + eb.move.kind +
                     " move of task " + std::to_string(eb.move.task) + " (" +
                     (eb.move.accepted ? "accepted" : "rejected") + ')';
          return d;
        }
        break;
    }
    ca.next();
    cb.next();
  }

  if (!ca.done() || !cb.done()) {
    d.found = true;
    d.what = StreamDivergence::What::Length;
    if (!ca.done()) {
      d.has_a = true;
      d.a = ca.event();
      d.seq = ca.event().seq;
      d.index = ca.index();
      d.detail = "stream B ends after " + std::to_string(cb.index()) + " events; A continues (" +
                 std::to_string(a.events.size()) + " events)";
    } else {
      d.has_b = true;
      d.b = cb.event();
      d.seq = cb.event().seq;
      d.index = cb.index();
      d.detail = "stream A ends after " + std::to_string(ca.index()) + " events; B continues (" +
                 std::to_string(b.events.size()) + " events)";
    }
    return d;
  }

  if (a.has_final != b.has_final) {
    d.found = true;
    d.what = StreamDivergence::What::Final;
    d.index = a.events.size();
    d.seq = a.events.empty() ? 0 : a.events.back().seq + 1;
    d.detail = a.has_final ? "final record only in A" : "final record only in B";
    return d;
  }
  if (a.has_final) {
    std::string detail = finals_detail(a.final, b.final);
    if (!detail.empty()) {
      d.found = true;
      d.what = StreamDivergence::What::Final;
      d.index = a.events.size();
      d.seq = a.events.empty() ? 0 : a.events.back().seq + 1;
      d.detail = std::move(detail);
      return d;
    }
  }
  return d;
}

ScheduleDivergence diff_schedule_rows(const Schedule& a, const Schedule& b) {
  ScheduleDivergence d;
  if (a.tasks.size() != b.tasks.size()) {
    d.found = true;
    d.where = ScheduleDivergence::Where::TaskCount;
    d.id = static_cast<std::int32_t>(std::min(a.tasks.size(), b.tasks.size()));
    return d;
  }
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const TaskPlacement& ta = a.tasks[i];
    const TaskPlacement& tb = b.tasks[i];
    if (ta.pe != tb.pe || ta.start != tb.start || ta.finish != tb.finish) {
      d.found = true;
      d.where = ScheduleDivergence::Where::Task;
      d.id = static_cast<std::int32_t>(i);
      d.task_a = ta;
      d.task_b = tb;
      return d;
    }
  }
  if (a.comms.size() != b.comms.size()) {
    d.found = true;
    d.where = ScheduleDivergence::Where::CommCount;
    d.id = static_cast<std::int32_t>(std::min(a.comms.size(), b.comms.size()));
    return d;
  }
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    const CommPlacement& ca = a.comms[i];
    const CommPlacement& cb = b.comms[i];
    if (ca.src_pe != cb.src_pe || ca.dst_pe != cb.dst_pe || ca.start != cb.start ||
        ca.duration != cb.duration) {
      d.found = true;
      d.where = ScheduleDivergence::Where::Comm;
      d.id = static_cast<std::int32_t>(i);
      d.comm_a = ca;
      d.comm_b = cb;
      return d;
    }
  }
  return d;
}

RunSummary summarize_report(const analysis::Report& r) {
  RunSummary s;
  s.makespan = r.makespan;
  s.misses = r.misses.miss_count;
  s.tardiness = r.misses.total_tardiness;
  s.energy_total = r.energy.totals.total();
  s.energy_comp = r.energy.totals.computation;
  s.energy_comm = r.energy.totals.communication;
  s.dep_wait = r.total_dep_wait;
  s.link_wait = r.total_link_wait;
  s.pe_wait = r.total_pe_wait;
  s.cp_length = r.critical_path.length;
  s.reasons = analysis::split_by_reason(r.critical_path);
  return s;
}

bool RunDiff::identical() const {
  if (has_streams && stream.found) return false;
  if (schedule.found) return false;
  if (has_impact && !impact.empty()) return false;
  return true;
}

RunDiff diff_runs(const RunSide& a, const RunSide& b) {
  NOCEAS_REQUIRE(a.schedule != nullptr && b.schedule != nullptr,
                 "run diff needs a schedule on both sides");
  RunDiff d;
  d.label_a = a.label;
  d.label_b = b.label;
  if (a.stream != nullptr && b.stream != nullptr) {
    d.has_streams = true;
    d.stream = diff_streams(*a.stream, *b.stream);
  }
  d.schedule = diff_schedule_rows(*a.schedule, *b.schedule);
  if (a.report != nullptr && b.report != nullptr) {
    d.has_impact = true;
    d.summary_a = summarize_report(*a.report);
    d.summary_b = summarize_report(*b.report);
    d.impact = analysis::diff_reports(*a.report, *b.report);
  }
  return d;
}

// ---- campaign diff ---------------------------------------------------------

const char* to_string(UnitDelta::Status s) {
  switch (s) {
    case UnitDelta::Status::Unchanged: return "unchanged";
    case UnitDelta::Status::Changed: return "changed";
    case UnitDelta::Status::OnlyA: return "only_a";
    case UnitDelta::Status::OnlyB: return "only_b";
    case UnitDelta::Status::NewlyFailed: return "newly_failed";
    case UnitDelta::Status::NewlyFixed: return "newly_fixed";
    case UnitDelta::Status::BothFailed: return "both_failed";
  }
  return "?";
}

namespace {

bool reasons_equal(const campaign::ReasonMix& x, const campaign::ReasonMix& y) {
  return x.head == y.head && x.dep == y.dep && x.pe_busy == y.pe_busy &&
         x.link_busy == y.link_busy;
}

bool outcome_equal(const campaign::RunOutcome& x, const campaign::RunOutcome& y) {
  if (x.ok != y.ok) return false;
  if (!x.ok) return x.error == y.error;
  return x.num_tasks == y.num_tasks && x.num_edges == y.num_edges &&
         deq(x.energy_total, y.energy_total) && deq(x.energy_comp, y.energy_comp) &&
         deq(x.energy_comm, y.energy_comm) && x.makespan == y.makespan &&
         x.miss_count == y.miss_count && x.tardiness == y.tardiness &&
         deq(x.avg_hops, y.avg_hops) && x.deadlines_met == y.deadlines_met &&
         reasons_equal(x.reasons, y.reasons) && x.probes_issued == y.probes_issued &&
         x.probe_cache_hits == y.probe_cache_hits && deq(x.probe_hit_rate, y.probe_hit_rate);
}

bool dist_equal(const campaign::Dist& x, const campaign::Dist& y) {
  return x.count == y.count && deq(x.mean, y.mean) && deq(x.min, y.min) && deq(x.p10, y.p10) &&
         deq(x.p50, y.p50) && deq(x.p90, y.p90) && deq(x.max, y.max);
}

/// Recomputes the aggregate of a parsed manifest with the canonical
/// unit-order accumulation (aggregate_outcomes only consumes the scheduler
/// list and the outcome rows).
campaign::Aggregate recompute_aggregate(const campaign::Manifest& m) {
  campaign::CampaignSpec spec;
  spec.schedulers = m.schedulers;
  const std::vector<campaign::RunUnit> units(m.runs.size());
  return campaign::aggregate_outcomes(spec, units, m.runs);
}

}  // namespace

std::vector<std::string> reconcile(const campaign::Manifest& m,
                                   const campaign::Aggregate& agg) {
  std::vector<std::string> issues;
  const campaign::Aggregate fresh = recompute_aggregate(m);
  auto check = [&issues](bool ok, const std::string& what) {
    if (!ok) issues.push_back(what);
  };
  check(fresh.total_runs == agg.total_runs, "total_runs mismatch");
  check(fresh.failed_runs == agg.failed_runs, "failed_runs mismatch");
  check(fresh.schedulers.size() == agg.schedulers.size(), "scheduler count mismatch");
  const std::size_t n = std::min(fresh.schedulers.size(), agg.schedulers.size());
  for (std::size_t i = 0; i < n; ++i) {
    const campaign::SchedulerAggregate& f = fresh.schedulers[i];
    const campaign::SchedulerAggregate& g = agg.schedulers[i];
    const std::string who = "scheduler '" + f.scheduler + "': ";
    check(f.scheduler == g.scheduler, who + "name mismatch");
    check(f.runs == g.runs && f.failed == g.failed, who + "run counts mismatch");
    check(dist_equal(f.energy, g.energy), who + "energy distribution mismatch");
    check(dist_equal(f.makespan, g.makespan), who + "makespan distribution mismatch");
    check(f.runs_with_misses == g.runs_with_misses && deq(f.miss_rate, g.miss_rate),
          who + "miss rate mismatch");
    check(f.total_misses == g.total_misses && f.total_tardiness == g.total_tardiness,
          who + "deadline accounting mismatch");
    check(deq(f.mean_hops, g.mean_hops), who + "mean hops mismatch");
    check(reasons_equal(f.reasons, g.reasons), who + "reason mix mismatch");
    check(f.outliers.size() == g.outliers.size(), who + "outlier count mismatch");
    for (std::size_t k = 0; k < std::min(f.outliers.size(), g.outliers.size()); ++k) {
      const campaign::OutlierRun& fo = f.outliers[k];
      const campaign::OutlierRun& go = g.outliers[k];
      check(fo.run_id == go.run_id && fo.unit_index == go.unit_index &&
                deq(fo.deviation, go.deviation) && fo.makespan == go.makespan &&
                deq(fo.energy, go.energy) && reasons_equal(fo.reasons, go.reasons),
            who + "outlier " + std::to_string(k) + " mismatch");
    }
  }
  check(fresh.wins.schedulers == agg.wins.schedulers, "win-matrix scheduler list mismatch");
  auto check_wins = [&](const std::vector<std::vector<campaign::WinCell>>& x,
                        const std::vector<std::vector<campaign::WinCell>>& y,
                        const std::string& metric) {
    check(x.size() == y.size(), metric + " win-matrix shape mismatch");
    for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
      check(x[i].size() == y[i].size(), metric + " win-matrix shape mismatch");
      for (std::size_t j = 0; j < std::min(x[i].size(), y[i].size()); ++j) {
        check(x[i][j].wins == y[i][j].wins && x[i][j].losses == y[i][j].losses &&
                  x[i][j].ties == y[i][j].ties,
              metric + " win-matrix cell [" + std::to_string(i) + "][" + std::to_string(j) +
                  "] mismatch");
      }
    }
  };
  check_wins(fresh.wins.energy, agg.wins.energy, "energy");
  check_wins(fresh.wins.makespan, agg.wins.makespan, "makespan");
  return issues;
}

bool CampaignDiff::identical() const {
  return changed == 0 && only_a == 0 && only_b == 0 && newly_failed == 0 && newly_fixed == 0 &&
         both_failed == 0 && flips.empty();
}

CampaignDiff diff_campaigns(const campaign::Manifest& a, const campaign::Aggregate& agg_a,
                            const campaign::Manifest& b, const campaign::Aggregate& agg_b) {
  const std::vector<std::string> issues_a = reconcile(a, agg_a);
  NOCEAS_REQUIRE(issues_a.empty(), "campaign A: aggregate does not reconcile with manifest: "
                                       << issues_a.front()
                                       << (issues_a.size() > 1
                                               ? " (+" + std::to_string(issues_a.size() - 1) +
                                                     " more)"
                                               : ""));
  const std::vector<std::string> issues_b = reconcile(b, agg_b);
  NOCEAS_REQUIRE(issues_b.empty(), "campaign B: aggregate does not reconcile with manifest: "
                                       << issues_b.front()
                                       << (issues_b.size() > 1
                                               ? " (+" + std::to_string(issues_b.size() - 1) +
                                                     " more)"
                                               : ""));

  CampaignDiff d;
  std::map<std::string, std::size_t> index_b;
  for (std::size_t i = 0; i < b.runs.size(); ++i) index_b[b.runs[i].id] = i;
  std::set<std::string> matched;

  for (const campaign::RunOutcome& ra : a.runs) {
    UnitDelta u;
    u.id = ra.id;
    u.a = ra;
    const auto it = index_b.find(ra.id);
    if (it == index_b.end()) {
      u.status = UnitDelta::Status::OnlyA;
      ++d.only_a;
    } else {
      const campaign::RunOutcome& rb = b.runs[it->second];
      u.b = rb;
      matched.insert(ra.id);
      if (ra.ok && !rb.ok) {
        u.status = UnitDelta::Status::NewlyFailed;
        ++d.newly_failed;
      } else if (!ra.ok && rb.ok) {
        u.status = UnitDelta::Status::NewlyFixed;
        ++d.newly_fixed;
      } else if (!ra.ok && !rb.ok) {
        if (ra.error == rb.error) {
          u.status = UnitDelta::Status::Unchanged;
          ++d.unchanged;
        } else {
          u.status = UnitDelta::Status::BothFailed;
          ++d.both_failed;
        }
      } else if (outcome_equal(ra, rb)) {
        u.status = UnitDelta::Status::Unchanged;
        ++d.unchanged;
      } else {
        u.status = UnitDelta::Status::Changed;
        ++d.changed;
        u.d_energy = rb.energy_total - ra.energy_total;
        u.d_makespan = rb.makespan - ra.makespan;
        u.d_misses = static_cast<std::int64_t>(rb.miss_count) -
                     static_cast<std::int64_t>(ra.miss_count);
      }
    }
    d.units.push_back(std::move(u));
  }
  for (const campaign::RunOutcome& rb : b.runs) {
    if (matched.contains(rb.id)) continue;
    UnitDelta u;
    u.id = rb.id;
    u.b = rb;
    u.status = UnitDelta::Status::OnlyB;
    ++d.only_b;
    d.units.push_back(std::move(u));
  }

  // Rank the changed units: any metric worse → regressed; strictly better
  // on some metric and worse on none → improved.  Order: |Δenergy| desc,
  // |Δmakespan| desc, unit order.
  for (std::size_t i = 0; i < d.units.size(); ++i) {
    const UnitDelta& u = d.units[i];
    if (u.status != UnitDelta::Status::Changed) continue;
    const bool worse = u.d_energy > 0.0 || u.d_makespan > 0 || u.d_misses > 0;
    if (worse)
      d.regressed.push_back(i);
    else
      d.improved.push_back(i);
  }
  auto rank = [&d](std::vector<std::size_t>& xs) {
    std::stable_sort(xs.begin(), xs.end(), [&d](std::size_t x, std::size_t y) {
      const UnitDelta& ux = d.units[x];
      const UnitDelta& uy = d.units[y];
      const double ex = std::abs(ux.d_energy);
      const double ey = std::abs(uy.d_energy);
      if (ex != ey) return ex > ey;
      const Time mx = std::abs(ux.d_makespan);
      const Time my = std::abs(uy.d_makespan);
      if (mx != my) return mx > my;
      return x < y;
    });
  };
  rank(d.regressed);
  rank(d.improved);

  // Per-scheduler population deltas, straight from the (reconciled)
  // aggregates: union of the two scheduler lists, A's order first.
  auto find_sched = [](const campaign::Aggregate& agg, const std::string& name)
      -> const campaign::SchedulerAggregate* {
    for (const campaign::SchedulerAggregate& s : agg.schedulers) {
      if (s.scheduler == name) return &s;
    }
    return nullptr;
  };
  std::vector<std::string> sched_names;
  for (const campaign::SchedulerAggregate& s : agg_a.schedulers)
    sched_names.push_back(s.scheduler);
  for (const campaign::SchedulerAggregate& s : agg_b.schedulers) {
    if (find_sched(agg_a, s.scheduler) == nullptr) sched_names.push_back(s.scheduler);
  }
  for (const std::string& name : sched_names) {
    SchedulerDelta sd;
    sd.scheduler = name;
    if (const campaign::SchedulerAggregate* s = find_sched(agg_a, name)) {
      sd.runs_a = s->runs;
      sd.mean_energy_a = s->energy.mean;
      sd.mean_makespan_a = s->makespan.mean;
      sd.miss_rate_a = s->miss_rate;
    }
    if (const campaign::SchedulerAggregate* s = find_sched(agg_b, name)) {
      sd.runs_b = s->runs;
      sd.mean_energy_b = s->energy.mean;
      sd.mean_makespan_b = s->makespan.mean;
      sd.miss_rate_b = s->miss_rate;
    }
    d.schedulers.push_back(std::move(sd));
  }

  // Win-matrix flips over the scheduler pairs present in both campaigns.
  std::map<std::string, std::size_t> wa, wb;
  for (std::size_t i = 0; i < agg_a.wins.schedulers.size(); ++i)
    wa[agg_a.wins.schedulers[i]] = i;
  for (std::size_t i = 0; i < agg_b.wins.schedulers.size(); ++i)
    wb[agg_b.wins.schedulers[i]] = i;
  auto cell_equal = [](const campaign::WinCell& x, const campaign::WinCell& y) {
    return x.wins == y.wins && x.losses == y.losses && x.ties == y.ties;
  };
  for (const std::string& row : agg_a.wins.schedulers) {
    if (!wb.contains(row)) continue;
    for (const std::string& col : agg_a.wins.schedulers) {
      if (row == col || !wb.contains(col)) continue;
      const std::size_t ra = wa.at(row), ca = wa.at(col);
      const std::size_t rb = wb.at(row), cb = wb.at(col);
      const campaign::WinCell& ea = agg_a.wins.energy[ra][ca];
      const campaign::WinCell& eb = agg_b.wins.energy[rb][cb];
      if (!cell_equal(ea, eb)) d.flips.push_back(WinFlip{"energy", row, col, ea, eb});
      const campaign::WinCell& ma = agg_a.wins.makespan[ra][ca];
      const campaign::WinCell& mb = agg_b.wins.makespan[rb][cb];
      if (!cell_equal(ma, mb)) d.flips.push_back(WinFlip{"makespan", row, col, ma, mb});
    }
  }
  return d;
}

// ---- JSON ------------------------------------------------------------------

namespace {

void write_event_json(std::ostream& os, const audit::DecisionEvent& e) {
  using Kind = audit::DecisionEvent::Kind;
  switch (e.kind) {
    case Kind::BeginAttempt:
      os << "{\"type\":\"attempt\",\"seq\":" << e.seq << ",\"index\":" << e.attempt << '}';
      break;
    case Kind::Place:
      os << "{\"type\":\"place\",\"seq\":" << e.seq << ",\"task\":" << e.place.task
         << ",\"pe\":" << e.place.pe << ",\"start\":" << e.place.start
         << ",\"finish\":" << e.place.finish << ",\"bd\":" << budget_repr(e.place.budget)
         << ",\"rule\":";
      json::write_string(os, e.place.rule);
      os << '}';
      break;
    case Kind::RepairBegin:
    case Kind::RepairEnd:
      os << "{\"type\":" << (e.kind == Kind::RepairBegin ? "\"repair_begin\"" : "\"repair_end\"")
         << ",\"seq\":" << e.seq << ",\"misses\":" << e.repair_misses
         << ",\"tardiness\":" << e.repair_tardiness << '}';
      break;
    case Kind::RepairMove:
      os << "{\"type\":\"repair_move\",\"seq\":" << e.seq << ",\"kind\":";
      json::write_string(os, e.move.kind);
      os << ",\"task\":" << e.move.task
         << ",\"accepted\":" << (e.move.accepted ? "true" : "false") << '}';
      break;
  }
}

void write_candidate_side(std::ostream& os, bool present, const audit::CandidateRow& row) {
  if (!present) {
    os << "null";
    return;
  }
  os << "{\"f\":" << row.finish << ",\"e\":" << json::number(row.energy)
     << ",\"feasible\":" << (row.feasible ? "true" : "false")
     << ",\"score\":" << json::number(row.score) << '}';
}

void write_comm_side(std::ostream& os, bool present, const audit::CommRecord& c) {
  if (!present) {
    os << "null";
    return;
  }
  os << "{\"src_pe\":" << c.src_pe << ",\"dst_pe\":" << c.dst_pe
     << ",\"src_finish\":" << c.src_finish << ",\"start\":" << c.start << ",\"dur\":" << c.duration
     << ",\"route\":[";
  for (std::size_t i = 0; i < c.route.size(); ++i) {
    if (i > 0) os << ',';
    os << c.route[i];
  }
  os << "]}";
}

void write_divergence_json(std::ostream& os, const StreamDivergence& s) {
  if (!s.found) {
    os << "{\"found\":false}";
    return;
  }
  os << "{\"found\":true,\"what\":\"" << to_string(s.what) << "\",\"seq\":" << s.seq
     << ",\"index\":" << s.index << ",\"detail\":";
  json::write_string(os, s.detail);
  os << ",\"a\":";
  if (s.has_a)
    write_event_json(os, s.a);
  else
    os << "null";
  os << ",\"b\":";
  if (s.has_b)
    write_event_json(os, s.b);
  else
    os << "null";
  os << ",\"candidates\":[";
  for (std::size_t i = 0; i < s.candidates.size(); ++i) {
    const CandidateDelta& c = s.candidates[i];
    if (i > 0) os << ',';
    os << "{\"task\":" << c.task << ",\"pe\":" << c.pe
       << ",\"differs\":" << (c.differs ? "true" : "false")
       << ",\"chosen_a\":" << (c.chosen_a ? "true" : "false")
       << ",\"chosen_b\":" << (c.chosen_b ? "true" : "false") << ",\"a\":";
    write_candidate_side(os, c.in_a, c.a);
    os << ",\"b\":";
    write_candidate_side(os, c.in_b, c.b);
    os << '}';
  }
  os << "],\"comms\":[";
  for (std::size_t i = 0; i < s.comms.size(); ++i) {
    const CommDelta& c = s.comms[i];
    if (i > 0) os << ',';
    os << "{\"edge\":" << c.edge << ",\"differs\":" << (c.differs ? "true" : "false")
       << ",\"a\":";
    write_comm_side(os, c.in_a, c.a);
    os << ",\"b\":";
    write_comm_side(os, c.in_b, c.b);
    os << '}';
  }
  os << "]}";
}

void write_schedule_divergence_json(std::ostream& os, const ScheduleDivergence& s) {
  if (!s.found) {
    os << "{\"found\":false}";
    return;
  }
  switch (s.where) {
    case ScheduleDivergence::Where::TaskCount:
      os << "{\"found\":true,\"where\":\"task_count\",\"id\":" << s.id << '}';
      break;
    case ScheduleDivergence::Where::CommCount:
      os << "{\"found\":true,\"where\":\"comm_count\",\"id\":" << s.id << '}';
      break;
    case ScheduleDivergence::Where::Task:
      os << "{\"found\":true,\"where\":\"task\",\"id\":" << s.id << ",\"a\":{\"pe\":"
         << s.task_a.pe.value << ",\"start\":" << s.task_a.start
         << ",\"finish\":" << s.task_a.finish << "},\"b\":{\"pe\":" << s.task_b.pe.value
         << ",\"start\":" << s.task_b.start << ",\"finish\":" << s.task_b.finish << "}}";
      break;
    case ScheduleDivergence::Where::Comm:
      os << "{\"found\":true,\"where\":\"comm\",\"id\":" << s.id << ",\"a\":{\"src_pe\":"
         << s.comm_a.src_pe.value << ",\"dst_pe\":" << s.comm_a.dst_pe.value
         << ",\"start\":" << s.comm_a.start << ",\"dur\":" << s.comm_a.duration
         << "},\"b\":{\"src_pe\":" << s.comm_b.src_pe.value
         << ",\"dst_pe\":" << s.comm_b.dst_pe.value << ",\"start\":" << s.comm_b.start
         << ",\"dur\":" << s.comm_b.duration << "}}";
      break;
  }
}

void write_summary_json(std::ostream& os, const RunSummary& s) {
  os << "{\"makespan\":" << s.makespan << ",\"misses\":" << s.misses
     << ",\"tardiness\":" << s.tardiness << ",\"energy_total\":" << json::number(s.energy_total)
     << ",\"energy_comp\":" << json::number(s.energy_comp)
     << ",\"energy_comm\":" << json::number(s.energy_comm) << ",\"dep_wait\":" << s.dep_wait
     << ",\"link_wait\":" << s.link_wait << ",\"pe_wait\":" << s.pe_wait
     << ",\"cp_length\":" << s.cp_length << ",\"reasons\":{\"head\":" << s.reasons.head
     << ",\"dep\":" << s.reasons.dep << ",\"pe_busy\":" << s.reasons.pe
     << ",\"link_busy\":" << s.reasons.link << "}}";
}

template <typename T>
void write_id_array(std::ostream& os, const std::vector<T>& xs) {
  os << '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) os << ',';
    os << xs[i];
  }
  os << ']';
}

void write_unit_json(std::ostream& os, const UnitDelta& u) {
  const campaign::RunOutcome& meta = u.status == UnitDelta::Status::OnlyB ? u.b : u.a;
  os << "{\"id\":";
  json::write_string(os, u.id);
  os << ",\"app\":";
  json::write_string(os, meta.app);
  os << ",\"seed\":" << meta.seed << ",\"scheduler\":";
  json::write_string(os, meta.scheduler);
  os << ",\"status\":\"" << to_string(u.status) << '"';
  if (u.status == UnitDelta::Status::Changed) {
    os << ",\"d_energy\":" << json::number(u.d_energy) << ",\"d_makespan\":" << u.d_makespan
       << ",\"d_misses\":" << u.d_misses << ",\"energy_a\":" << json::number(u.a.energy_total)
       << ",\"energy_b\":" << json::number(u.b.energy_total) << ",\"makespan_a\":" << u.a.makespan
       << ",\"makespan_b\":" << u.b.makespan << ",\"misses_a\":" << u.a.miss_count
       << ",\"misses_b\":" << u.b.miss_count;
  }
  os << '}';
}

}  // namespace

void write_run_diff_json(std::ostream& os, const RunDiff& d) {
  os << "{\"schema\":\"noceas.diff.v1\",\"mode\":\"run\",\"a\":";
  json::write_string(os, d.label_a);
  os << ",\"b\":";
  json::write_string(os, d.label_b);
  os << ",\"identical\":" << (d.identical() ? "true" : "false") << ",\"divergence\":";
  if (d.has_streams)
    write_divergence_json(os, d.stream);
  else
    os << "null";
  os << ",\"schedule\":";
  write_schedule_divergence_json(os, d.schedule);
  os << ",\"impact\":";
  if (d.has_impact) {
    const analysis::ReportDelta& i = d.impact;
    os << "{\"a\":";
    write_summary_json(os, d.summary_a);
    os << ",\"b\":";
    write_summary_json(os, d.summary_b);
    os << ",\"delta\":{\"makespan\":" << i.makespan << ",\"misses\":" << i.misses
       << ",\"tardiness\":" << i.tardiness << ",\"energy_total\":" << json::number(i.energy_total)
       << ",\"energy_comp\":" << json::number(i.energy_comp)
       << ",\"energy_comm\":" << json::number(i.energy_comm) << ",\"dep_wait\":" << i.dep_wait
       << ",\"link_wait\":" << i.link_wait << ",\"pe_wait\":" << i.pe_wait
       << ",\"cp_length\":" << i.cp_length
       << ",\"cp_identical\":" << (i.cp_identical ? "true" : "false")
       << ",\"cp_divergence\":" << i.cp_divergence << ",\"moved_tasks\":";
    write_id_array(os, i.moved_tasks);
    os << ",\"retimed_tasks\":";
    write_id_array(os, i.retimed_tasks);
    os << "}}";
  } else {
    os << "null";
  }
  os << "}\n";
  NOCEAS_REQUIRE(os.good(), "failed writing diff document");
}

void write_campaign_diff_json(std::ostream& os, const CampaignDiff& d) {
  os << "{\"schema\":\"noceas.diff.v1\",\"mode\":\"campaign\",\"identical\":"
     << (d.identical() ? "true" : "false") << ",\"counts\":{\"units\":" << d.units.size()
     << ",\"unchanged\":" << d.unchanged << ",\"changed\":" << d.changed
     << ",\"only_a\":" << d.only_a << ",\"only_b\":" << d.only_b
     << ",\"newly_failed\":" << d.newly_failed << ",\"newly_fixed\":" << d.newly_fixed
     << ",\"both_failed\":" << d.both_failed << "},\"schedulers\":[";
  for (std::size_t i = 0; i < d.schedulers.size(); ++i) {
    const SchedulerDelta& s = d.schedulers[i];
    if (i > 0) os << ',';
    os << "\n{\"scheduler\":";
    json::write_string(os, s.scheduler);
    os << ",\"runs_a\":" << s.runs_a << ",\"runs_b\":" << s.runs_b
       << ",\"energy_mean_a\":" << json::number(s.mean_energy_a)
       << ",\"energy_mean_b\":" << json::number(s.mean_energy_b)
       << ",\"makespan_mean_a\":" << json::number(s.mean_makespan_a)
       << ",\"makespan_mean_b\":" << json::number(s.mean_makespan_b)
       << ",\"miss_rate_a\":" << json::number(s.miss_rate_a)
       << ",\"miss_rate_b\":" << json::number(s.miss_rate_b) << '}';
  }
  os << "\n],\"regressed\":[";
  for (std::size_t i = 0; i < d.regressed.size(); ++i) {
    if (i > 0) os << ',';
    os << '\n';
    write_unit_json(os, d.units[d.regressed[i]]);
  }
  os << "\n],\"improved\":[";
  for (std::size_t i = 0; i < d.improved.size(); ++i) {
    if (i > 0) os << ',';
    os << '\n';
    write_unit_json(os, d.units[d.improved[i]]);
  }
  os << "\n]";
  auto write_status_ids = [&os, &d](const char* key, UnitDelta::Status status) {
    os << ",\"" << key << "\":[";
    bool first = true;
    for (const UnitDelta& u : d.units) {
      if (u.status != status) continue;
      if (!first) os << ',';
      first = false;
      json::write_string(os, u.id);
    }
    os << ']';
  };
  write_status_ids("only_a", UnitDelta::Status::OnlyA);
  write_status_ids("only_b", UnitDelta::Status::OnlyB);
  write_status_ids("newly_failed", UnitDelta::Status::NewlyFailed);
  write_status_ids("newly_fixed", UnitDelta::Status::NewlyFixed);
  write_status_ids("both_failed", UnitDelta::Status::BothFailed);
  os << ",\"win_flips\":[";
  for (std::size_t i = 0; i < d.flips.size(); ++i) {
    const WinFlip& f = d.flips[i];
    if (i > 0) os << ',';
    os << "{\"metric\":\"" << f.metric << "\",\"row\":";
    json::write_string(os, f.row);
    os << ",\"col\":";
    json::write_string(os, f.col);
    os << ",\"a\":{\"wins\":" << f.a.wins << ",\"losses\":" << f.a.losses
       << ",\"ties\":" << f.a.ties << "},\"b\":{\"wins\":" << f.b.wins
       << ",\"losses\":" << f.b.losses << ",\"ties\":" << f.b.ties << "}}";
  }
  os << "]}\n";
  NOCEAS_REQUIRE(os.good(), "failed writing diff document");
}

// ---- human reports ---------------------------------------------------------

namespace {

std::string candidate_cell(bool present, const audit::CandidateRow& row) {
  if (!present) return "-";
  return "F=" + std::to_string(row.finish) + " E=" + format_double(row.energy, 2) +
         (row.feasible ? " ok" : " INFEASIBLE");
}

std::string route_str(const std::vector<std::int32_t>& route) {
  if (route.empty()) return "local";
  std::string s;
  for (std::size_t i = 0; i < route.size(); ++i) {
    if (i > 0) s += '>';
    s += std::to_string(route[i]);
  }
  return s;
}

std::string slot_str(bool present, const audit::CommRecord& c) {
  if (!present) return "-";
  return '[' + std::to_string(c.start) + ',' + std::to_string(c.start + c.duration) + ") " +
         route_str(c.route);
}

}  // namespace

void print_run_diff(std::ostream& os, const RunDiff& d, std::size_t top) {
  os << "diff: " << d.label_a << " vs " << d.label_b << '\n';
  if (d.identical()) {
    os << "runs are identical";
    if (d.has_streams) os << " (decision streams, schedules";
    else os << " (schedules";
    if (d.has_impact) os << ", analysis reports";
    os << " all match)\n";
    return;
  }

  if (d.has_streams && d.stream.found) {
    const StreamDivergence& s = d.stream;
    os << "first divergence at seq " << s.seq << " (event " << s.index << ", "
       << to_string(s.what) << "): " << s.detail << '\n';
    if (!s.candidates.empty()) {
      os << "\ncandidate table at seq " << s.seq << " (side by side):\n";
      // Rows that carry signal first (chosen / differing / one-sided), the
      // agreeing remainder after, everything capped at `top`.
      std::vector<std::size_t> order;
      for (std::size_t i = 0; i < s.candidates.size(); ++i) {
        const CandidateDelta& c = s.candidates[i];
        if (c.chosen_a || c.chosen_b || c.differs || c.in_a != c.in_b) order.push_back(i);
      }
      for (std::size_t i = 0; i < s.candidates.size(); ++i) {
        const CandidateDelta& c = s.candidates[i];
        if (!(c.chosen_a || c.chosen_b || c.differs || c.in_a != c.in_b)) order.push_back(i);
      }
      const std::size_t shown = std::min(top, order.size());
      AsciiTable table({"", "task", "pe", d.label_a, d.label_b});
      for (std::size_t i = 0; i < shown; ++i) {
        const CandidateDelta& c = s.candidates[order[i]];
        std::string mark;
        if (c.chosen_a) mark += "a*";
        if (c.chosen_b) mark += "b*";
        if (c.differs) mark += "!";
        table.add_row({mark, std::to_string(c.task), std::to_string(c.pe),
                       candidate_cell(c.in_a, c.a), candidate_cell(c.in_b, c.b)});
      }
      table.print(os);
      if (shown < order.size()) {
        os << "  (+" << order.size() - shown << " more rows)\n";
      }
      os << "  a*/b* = chosen on that side, ! = row differs\n";
    }
    bool any_comm_delta = false;
    for (const CommDelta& c : s.comms) any_comm_delta |= c.differs || c.in_a != c.in_b;
    if (any_comm_delta) {
      os << "\nlink reservations at seq " << s.seq << " (differing edges):\n";
      AsciiTable table({"edge", d.label_a, d.label_b});
      std::size_t shown = 0;
      for (const CommDelta& c : s.comms) {
        if (!(c.differs || c.in_a != c.in_b)) continue;
        if (shown++ >= top) break;
        table.add_row({std::to_string(c.edge), slot_str(c.in_a, c.a), slot_str(c.in_b, c.b)});
      }
      table.print(os);
    }
  } else if (d.schedule.found) {
    const ScheduleDivergence& s = d.schedule;
    switch (s.where) {
      case ScheduleDivergence::Where::TaskCount:
        os << "schedules differ in task count\n";
        break;
      case ScheduleDivergence::Where::CommCount:
        os << "schedules differ in transaction count\n";
        break;
      case ScheduleDivergence::Where::Task:
        os << "schedules first differ at task " << s.id << ": pe " << s.task_a.pe.value << " @["
           << s.task_a.start << ',' << s.task_a.finish << "] vs pe " << s.task_b.pe.value
           << " @[" << s.task_b.start << ',' << s.task_b.finish << "]\n";
        break;
      case ScheduleDivergence::Where::Comm:
        os << "schedules first differ at edge " << s.id << ": " << s.comm_a.src_pe.value << "->"
           << s.comm_a.dst_pe.value << " @[" << s.comm_a.start << ",+" << s.comm_a.duration
           << "] vs " << s.comm_b.src_pe.value << "->" << s.comm_b.dst_pe.value << " @["
           << s.comm_b.start << ",+" << s.comm_b.duration << "]\n";
        break;
    }
  }

  if (d.has_impact && !d.impact.empty()) {
    os << "\ndownstream impact (" << d.label_b << " - " << d.label_a << "):\n";
    AsciiTable table({"metric", d.label_a, d.label_b, "delta"});
    auto row = [&table](const std::string& name, double va, double vb, int digits = 0) {
      table.add_row({name, format_double(va, digits), format_double(vb, digits),
                     format_double(vb - va, digits)});
    };
    const RunSummary& a = d.summary_a;
    const RunSummary& b = d.summary_b;
    row("makespan", static_cast<double>(a.makespan), static_cast<double>(b.makespan));
    row("misses", static_cast<double>(a.misses), static_cast<double>(b.misses));
    row("tardiness", static_cast<double>(a.tardiness), static_cast<double>(b.tardiness));
    row("energy total", a.energy_total, b.energy_total, 4);
    row("energy comp", a.energy_comp, b.energy_comp, 4);
    row("energy comm", a.energy_comm, b.energy_comm, 4);
    row("wait dep", static_cast<double>(a.dep_wait), static_cast<double>(b.dep_wait));
    row("wait link", static_cast<double>(a.link_wait), static_cast<double>(b.link_wait));
    row("wait pe", static_cast<double>(a.pe_wait), static_cast<double>(b.pe_wait));
    row("cp length", static_cast<double>(a.cp_length), static_cast<double>(b.cp_length));
    row("cp pe-busy time", static_cast<double>(a.reasons.pe), static_cast<double>(b.reasons.pe));
    row("cp link-busy time", static_cast<double>(a.reasons.link),
        static_cast<double>(b.reasons.link));
    table.print(os);
    const analysis::ReportDelta& i = d.impact;
    os << "tasks on a different PE: " << i.moved_tasks.size()
       << ", retimed on the same PE: " << i.retimed_tasks.size() << '\n';
    if (!i.moved_tasks.empty()) {
      os << "  moved:";
      for (std::size_t k = 0; k < std::min(top, i.moved_tasks.size()); ++k)
        os << " task " << i.moved_tasks[k];
      if (i.moved_tasks.size() > top) os << " (+" << i.moved_tasks.size() - top << " more)";
      os << '\n';
    }
    if (i.cp_identical) {
      os << "critical paths traverse the same segments\n";
    } else {
      os << "critical paths diverge at segment " << i.cp_divergence << '\n';
    }
  }
}

void print_campaign_diff(std::ostream& os, const CampaignDiff& d, std::size_t top) {
  os << "campaign diff: " << d.units.size() << " units (" << d.unchanged << " unchanged, "
     << d.changed << " changed, " << d.only_a << " only-A, " << d.only_b << " only-B, "
     << d.newly_failed << " newly failed, " << d.newly_fixed << " newly fixed, "
     << d.both_failed << " failed differently)\n";
  if (d.identical()) {
    os << "campaigns are identical\n";
    return;
  }

  if (!d.schedulers.empty()) {
    os << "\nper-scheduler population deltas (B - A):\n";
    AsciiTable table({"scheduler", "runs", "energy mean A", "energy mean B", "d energy",
                      "d makespan", "d miss rate"});
    for (const SchedulerDelta& s : d.schedulers) {
      table.add_row({s.scheduler, std::to_string(s.runs_a) + "->" + std::to_string(s.runs_b),
                     format_double(s.mean_energy_a, 1), format_double(s.mean_energy_b, 1),
                     format_double(s.mean_energy_b - s.mean_energy_a, 1),
                     format_double(s.mean_makespan_b - s.mean_makespan_a, 1),
                     format_double(s.miss_rate_b - s.miss_rate_a, 3)});
    }
    table.print(os);
  }

  auto print_ranked = [&](const char* title, const std::vector<std::size_t>& xs) {
    if (xs.empty()) return;
    os << '\n' << title << " (ranked by |d energy|, |d makespan|):\n";
    AsciiTable table({"unit", "d energy", "d makespan", "d misses"});
    for (std::size_t i = 0; i < std::min(top, xs.size()); ++i) {
      const UnitDelta& u = d.units[xs[i]];
      table.add_row({u.id, format_double(u.d_energy, 2), std::to_string(u.d_makespan),
                     std::to_string(u.d_misses)});
    }
    table.print(os);
    if (xs.size() > top) os << "  (+" << xs.size() - top << " more)\n";
  };
  print_ranked("regressed units", d.regressed);
  print_ranked("improved units", d.improved);

  auto print_ids = [&](const char* title, UnitDelta::Status status, std::size_t count) {
    if (count == 0) return;
    os << '\n' << title << ':';
    std::size_t shown = 0;
    for (const UnitDelta& u : d.units) {
      if (u.status != status) continue;
      if (shown++ >= top) break;
      os << ' ' << u.id;
    }
    if (count > top) os << " (+" << count - top << " more)";
    os << '\n';
  };
  print_ids("units only in A", UnitDelta::Status::OnlyA, d.only_a);
  print_ids("units only in B", UnitDelta::Status::OnlyB, d.only_b);
  print_ids("newly failed", UnitDelta::Status::NewlyFailed, d.newly_failed);
  print_ids("newly fixed", UnitDelta::Status::NewlyFixed, d.newly_fixed);
  print_ids("failed differently", UnitDelta::Status::BothFailed, d.both_failed);

  if (!d.flips.empty()) {
    os << "\nwin-matrix flips:\n";
    for (const WinFlip& f : d.flips) {
      os << "  " << f.metric << ' ' << f.row << " vs " << f.col << ": " << f.a.wins << '-'
         << f.a.losses << '-' << f.a.ties << " -> " << f.b.wins << '-' << f.b.losses << '-'
         << f.b.ties << " (w-l-t)\n";
    }
  }
}

}  // namespace noceas::diff
