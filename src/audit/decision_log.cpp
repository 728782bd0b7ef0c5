#include "src/audit/decision_log.hpp"

#include <istream>
#include <ostream>

#include "src/util/error.hpp"
#include "src/util/json.hpp"

namespace noceas::audit {

namespace {

// ---- JSON writing ----------------------------------------------------------

template <typename T>
void write_int_array(std::ostream& os, const std::vector<T>& xs) {
  os << '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) os << ',';
    os << xs[i];
  }
  os << ']';
}

/// kNoDeadline round-trips as -1 (same convention as the trace args).
std::int64_t budget_repr(Time t) { return t == kNoDeadline ? -1 : t; }
Time budget_parse(std::int64_t v) { return v < 0 ? kNoDeadline : v; }

void write_place(std::ostream& os, const DecisionEvent& e) {
  const PlacementDecision& d = e.place;
  os << "{\"type\":\"place\",\"seq\":" << e.seq << ",\"task\":" << d.task << ",\"pe\":" << d.pe
     << ",\"start\":" << d.start << ",\"finish\":" << d.finish
     << ",\"bd\":" << budget_repr(d.budget) << ",\"rule\":";
  json::write_string(os, d.rule);
  os << ",\"ready\":";
  write_int_array(os, d.ready);
  os << ",\"candidates\":[";
  for (std::size_t i = 0; i < d.candidates.size(); ++i) {
    const CandidateRow& c = d.candidates[i];
    if (i > 0) os << ',';
    os << "{\"task\":" << c.task << ",\"pe\":" << c.pe << ",\"f\":" << c.finish
       << ",\"e\":" << json::number(c.energy) << ",\"feasible\":" << (c.feasible ? "true" : "false")
       << ",\"score\":" << json::number(c.score) << '}';
  }
  os << "],\"comms\":[";
  for (std::size_t i = 0; i < d.comms.size(); ++i) {
    const CommRecord& c = d.comms[i];
    if (i > 0) os << ',';
    os << "{\"edge\":" << c.edge << ",\"src_task\":" << c.src_task << ",\"src_pe\":" << c.src_pe
       << ",\"dst_pe\":" << c.dst_pe << ",\"src_finish\":" << c.src_finish
       << ",\"start\":" << c.start << ",\"dur\":" << c.duration << ",\"route\":";
    write_int_array(os, c.route);
    os << '}';
  }
  os << "]}\n";
}

void write_move(std::ostream& os, const DecisionEvent& e) {
  const RepairMoveRecord& m = e.move;
  os << "{\"type\":\"repair_move\",\"seq\":" << e.seq << ",\"kind\":";
  json::write_string(os, m.kind);
  os << ",\"task\":" << m.task;
  if (m.kind == "lts") {
    os << ",\"pe\":" << m.pe << ",\"pos_a\":" << m.pos_a << ",\"pos_b\":" << m.pos_b
       << ",\"swap_with\":" << m.swap_with;
  } else {
    os << ",\"from_pe\":" << m.from_pe << ",\"to_pe\":" << m.to_pe
       << ",\"insert_index\":" << m.insert_index << ",\"delta_e\":" << json::number(m.delta_energy);
  }
  os << ",\"accepted\":" << (m.accepted ? "true" : "false")
     << ",\"misses_before\":" << m.misses_before << ",\"misses_after\":" << m.misses_after
     << ",\"tardiness_before\":" << m.tardiness_before
     << ",\"tardiness_after\":" << m.tardiness_after << "}\n";
}

void write_final(std::ostream& os, const FinalRecord& f) {
  os << "{\"type\":\"final\",\"tasks\":[";
  for (std::size_t i = 0; i < f.tasks.size(); ++i) {
    if (i > 0) os << ',';
    os << '[' << f.tasks[i].pe << ',' << f.tasks[i].start << ',' << f.tasks[i].finish << ']';
  }
  os << "],\"comms\":[";
  for (std::size_t i = 0; i < f.comms.size(); ++i) {
    if (i > 0) os << ',';
    os << '[' << f.comms[i].src_pe << ',' << f.comms[i].dst_pe << ',' << f.comms[i].start << ','
       << f.comms[i].duration << ']';
  }
  os << "],\"comp_energy\":" << json::number(f.computation_energy)
     << ",\"comm_energy\":" << json::number(f.communication_energy)
     << ",\"misses\":" << f.miss_count << ",\"tardiness\":" << f.total_tardiness << "}\n";
}

// ---- JSON parsing ----------------------------------------------------------
// The subset parser is shared repo-wide (src/util/json.hpp); this file only
// maps parsed values back onto the decision-event structs.

using Json = json::Value;

std::vector<std::int32_t> parse_int_array(const Json& j) {
  NOCEAS_REQUIRE(j.kind == Json::Kind::Arr, "decision stream: expected an array");
  std::vector<std::int32_t> out;
  out.reserve(j.arr.size());
  for (const Json& v : j.arr) out.push_back(v.i32());
  return out;
}

DecisionEvent parse_place(const Json& j) {
  DecisionEvent e;
  e.kind = DecisionEvent::Kind::Place;
  e.seq = static_cast<std::uint64_t>(j.at("seq").i64());
  PlacementDecision& d = e.place;
  d.task = j.at("task").i32();
  d.pe = j.at("pe").i32();
  d.start = j.at("start").i64();
  d.finish = j.at("finish").i64();
  d.budget = budget_parse(j.at("bd").i64());
  d.rule = j.at("rule").str;
  d.ready = parse_int_array(j.at("ready"));
  for (const Json& c : j.at("candidates").arr) {
    CandidateRow row;
    row.task = c.at("task").i32();
    row.pe = c.at("pe").i32();
    row.finish = c.at("f").i64();
    row.energy = c.at("e").num;
    row.feasible = c.at("feasible").b;
    row.score = c.at("score").num;
    d.candidates.push_back(row);
  }
  for (const Json& c : j.at("comms").arr) {
    CommRecord comm;
    comm.edge = c.at("edge").i32();
    comm.src_task = c.at("src_task").i32();
    comm.src_pe = c.at("src_pe").i32();
    comm.dst_pe = c.at("dst_pe").i32();
    comm.src_finish = c.at("src_finish").i64();
    comm.start = c.at("start").i64();
    comm.duration = c.at("dur").i64();
    comm.route = parse_int_array(c.at("route"));
    d.comms.push_back(std::move(comm));
  }
  return e;
}

DecisionEvent parse_move(const Json& j) {
  DecisionEvent e;
  e.kind = DecisionEvent::Kind::RepairMove;
  e.seq = static_cast<std::uint64_t>(j.at("seq").i64());
  RepairMoveRecord& m = e.move;
  m.kind = j.at("kind").str;
  m.task = j.at("task").i32();
  if (m.kind == "lts") {
    m.pe = j.at("pe").i32();
    m.pos_a = j.at("pos_a").i32();
    m.pos_b = j.at("pos_b").i32();
    m.swap_with = j.at("swap_with").i32();
  } else if (m.kind == "gtm") {
    m.from_pe = j.at("from_pe").i32();
    m.to_pe = j.at("to_pe").i32();
    m.insert_index = j.at("insert_index").i32();
    m.delta_energy = j.at("delta_e").num;
  } else {
    NOCEAS_REQUIRE(false, "decision stream: unknown repair move kind '" << m.kind << '\'');
  }
  m.accepted = j.at("accepted").b;
  m.misses_before = static_cast<std::uint64_t>(j.at("misses_before").i64());
  m.misses_after = static_cast<std::uint64_t>(j.at("misses_after").i64());
  m.tardiness_before = j.at("tardiness_before").i64();
  m.tardiness_after = j.at("tardiness_after").i64();
  return e;
}

FinalRecord parse_final(const Json& j) {
  FinalRecord f;
  for (const Json& t : j.at("tasks").arr) {
    NOCEAS_REQUIRE(t.arr.size() == 3, "decision stream: final task row needs [pe,start,finish]");
    f.tasks.push_back(FinalTask{t.arr[0].i32(), t.arr[1].i64(), t.arr[2].i64()});
  }
  for (const Json& c : j.at("comms").arr) {
    NOCEAS_REQUIRE(c.arr.size() == 4,
                   "decision stream: final comm row needs [src,dst,start,dur]");
    f.comms.push_back(FinalComm{c.arr[0].i32(), c.arr[1].i32(), c.arr[2].i64(), c.arr[3].i64()});
  }
  f.computation_energy = j.at("comp_energy").num;
  f.communication_energy = j.at("comm_energy").num;
  f.miss_count = static_cast<std::uint64_t>(j.at("misses").i64());
  f.total_tardiness = j.at("tardiness").i64();
  return f;
}

}  // namespace

// ---- DecisionLog -----------------------------------------------------------

void DecisionLog::begin_run(const std::string& scheduler, std::size_t num_tasks,
                            std::size_t num_edges, std::size_t num_pes) {
  stream_ = DecisionStream{};
  next_seq_ = 0;
  stream_.scheduler = scheduler;
  stream_.num_tasks = num_tasks;
  stream_.num_edges = num_edges;
  stream_.num_pes = num_pes;
}

DecisionEvent& DecisionLog::push(DecisionEvent::Kind kind) {
  DecisionEvent e;
  e.kind = kind;
  e.seq = next_seq_++;
  stream_.events.push_back(std::move(e));
  return stream_.events.back();
}

void DecisionLog::begin_attempt(int index) { push(DecisionEvent::Kind::BeginAttempt).attempt = index; }

void DecisionLog::record_placement(PlacementDecision decision) {
  push(DecisionEvent::Kind::Place).place = std::move(decision);
}

void DecisionLog::record_repair_begin(std::uint64_t misses, Time tardiness) {
  DecisionEvent& e = push(DecisionEvent::Kind::RepairBegin);
  e.repair_misses = misses;
  e.repair_tardiness = tardiness;
}

void DecisionLog::record_repair_move(RepairMoveRecord move) {
  push(DecisionEvent::Kind::RepairMove).move = std::move(move);
}

void DecisionLog::record_repair_end(std::uint64_t misses, Time tardiness) {
  DecisionEvent& e = push(DecisionEvent::Kind::RepairEnd);
  e.repair_misses = misses;
  e.repair_tardiness = tardiness;
}

void DecisionLog::record_final(FinalRecord final) {
  stream_.has_final = true;
  stream_.final = std::move(final);
}

void DecisionLog::write_jsonl(std::ostream& os) const { write_decision_jsonl(os, stream_); }

void write_decision_jsonl(std::ostream& os, const DecisionStream& stream) {
  os << "{\"schema\":\"noceas.decisions.v1\",\"scheduler\":";
  json::write_string(os, stream.scheduler);
  os << ",\"tasks\":" << stream.num_tasks << ",\"edges\":" << stream.num_edges
     << ",\"pes\":" << stream.num_pes << "}\n";
  for (const DecisionEvent& e : stream.events) {
    switch (e.kind) {
      case DecisionEvent::Kind::BeginAttempt:
        os << "{\"type\":\"attempt\",\"seq\":" << e.seq << ",\"index\":" << e.attempt << "}\n";
        break;
      case DecisionEvent::Kind::Place: write_place(os, e); break;
      case DecisionEvent::Kind::RepairBegin:
      case DecisionEvent::Kind::RepairEnd:
        os << "{\"type\":"
           << (e.kind == DecisionEvent::Kind::RepairBegin ? "\"repair_begin\"" : "\"repair_end\"")
           << ",\"seq\":" << e.seq << ",\"misses\":" << e.repair_misses
           << ",\"tardiness\":" << e.repair_tardiness << "}\n";
        break;
      case DecisionEvent::Kind::RepairMove: write_move(os, e); break;
    }
  }
  if (stream.has_final) write_final(os, stream.final);
  NOCEAS_REQUIRE(os.good(), "failed writing decision stream");
}

DecisionStream read_decision_stream(std::istream& is) {
  DecisionStream stream;
  std::string line;
  bool saw_header = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const Json j = json::parse(line, "decision stream");
    if (!saw_header) {
      NOCEAS_REQUIRE(j.at("schema").str == "noceas.decisions.v1",
                     "unknown decision stream schema '" << j.at("schema").str << '\'');
      stream.scheduler = j.at("scheduler").str;
      stream.num_tasks = static_cast<std::size_t>(j.at("tasks").i64());
      stream.num_edges = static_cast<std::size_t>(j.at("edges").i64());
      stream.num_pes = static_cast<std::size_t>(j.at("pes").i64());
      saw_header = true;
      continue;
    }
    const std::string& type = j.at("type").str;
    if (type == "attempt") {
      DecisionEvent e;
      e.kind = DecisionEvent::Kind::BeginAttempt;
      e.seq = static_cast<std::uint64_t>(j.at("seq").i64());
      e.attempt = j.at("index").i32();
      stream.events.push_back(std::move(e));
    } else if (type == "place") {
      stream.events.push_back(parse_place(j));
    } else if (type == "repair_begin" || type == "repair_end") {
      DecisionEvent e;
      e.kind = type == "repair_begin" ? DecisionEvent::Kind::RepairBegin
                                      : DecisionEvent::Kind::RepairEnd;
      e.seq = static_cast<std::uint64_t>(j.at("seq").i64());
      e.repair_misses = static_cast<std::uint64_t>(j.at("misses").i64());
      e.repair_tardiness = j.at("tardiness").i64();
      stream.events.push_back(std::move(e));
    } else if (type == "repair_move") {
      stream.events.push_back(parse_move(j));
    } else if (type == "final") {
      NOCEAS_REQUIRE(!stream.has_final, "decision stream: duplicate final record");
      stream.has_final = true;
      stream.final = parse_final(j);
    } else {
      NOCEAS_REQUIRE(false, "decision stream: unknown record type '" << type << '\'');
    }
  }
  NOCEAS_REQUIRE(saw_header, "decision stream: missing header line");
  return stream;
}

}  // namespace noceas::audit
