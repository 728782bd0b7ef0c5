#include "src/obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "src/obs/profile.hpp"
#include "src/util/json.hpp"

namespace noceas::obs {

namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void write_args(std::ostream& os, const TraceEvent& e) {
  os << "\"args\":{";
  for (int a = 0; a < e.num_args; ++a) {
    if (a > 0) os << ',';
    json::write_string(os, e.args[a].key ? e.args[a].key : "");
    os << ':';
    switch (e.args[a].kind) {
      case Arg::Kind::Int: os << e.args[a].i; break;
      case Arg::Kind::Dbl: os << json::number(e.args[a].d); break;
      case Arg::Kind::Str: json::write_string(os, e.args[a].s ? e.args[a].s : ""); break;
      case Arg::Kind::None: os << "null"; break;
    }
  }
  os << '}';
}

}  // namespace

Tracer::Tracer(TracerOptions options)
    : options_(options), tracer_id_(next_tracer_id()), t0_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              t0_)
      .count();
}

Tracer::Lane& Tracer::this_lane() {
  // Per-thread cache keyed by the process-unique tracer id, so a thread
  // that outlives one tracer and emits into another never dereferences a
  // stale lane through a recycled `this` address.
  thread_local std::uint64_t cached_id = 0;
  thread_local Lane* cached_lane = nullptr;
  if (cached_id == tracer_id_ && cached_lane != nullptr) return *cached_lane;

  std::lock_guard<std::mutex> lk(lanes_m_);
  Lane*& slot = lane_of_thread_[std::this_thread::get_id()];
  if (slot == nullptr) {
    lanes_.emplace_back();
    lanes_.back().id = static_cast<std::uint32_t>(lanes_.size() - 1);
    slot = &lanes_.back();
  }
  cached_id = tracer_id_;
  cached_lane = slot;
  return *slot;
}

void Tracer::push(const TraceEvent& e) {
  if (!options_.record_events) return;  // profile-only spine: no ring storage
  Lane& lane = this_lane();
  TraceEvent stamped = e;
  stamped.lane = lane.id;
  if (lane.ring.size() < options_.max_events_per_lane) {
    lane.ring.push_back(stamped);
  } else {
    lane.ring[lane.head] = stamped;
    lane.head = (lane.head + 1) % options_.max_events_per_lane;
    ++lane.dropped;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Tracer::span_open(const char* name) {
  Lane& lane = this_lane();
  const int d = lane.open_depth.load(std::memory_order_relaxed);
  if (d < kMaxOpenDepth) lane.open_names[static_cast<std::size_t>(d)].store(name, std::memory_order_relaxed);
  // Release so a watchdog thread that acquire-loads the new depth also
  // sees the name written above.
  lane.open_depth.store(d + 1, std::memory_order_release);
  if (options_.profiler != nullptr) options_.profiler->open(name);
}

void Tracer::span_close(std::int64_t dur_ns) {
  Lane& lane = this_lane();
  const int d = lane.open_depth.load(std::memory_order_relaxed);
  if (d > 0) lane.open_depth.store(d - 1, std::memory_order_release);
  if (options_.profiler != nullptr) options_.profiler->close(dur_ns);
}

std::vector<std::string> Tracer::open_span_paths() const {
  std::lock_guard<std::mutex> lk(lanes_m_);
  std::vector<std::string> out;
  for (const Lane& lane : lanes_) {
    const int depth = lane.open_depth.load(std::memory_order_acquire);
    if (depth <= 0) continue;
    std::string path;
    const int named = depth < kMaxOpenDepth ? depth : kMaxOpenDepth;
    for (int i = 0; i < named; ++i) {
      const char* name = lane.open_names[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
      if (name == nullptr) continue;  // racing close/open: slot momentarily empty
      if (!path.empty()) path += ';';
      path += name;
    }
    if (depth > kMaxOpenDepth) path += ";...";
    if (!path.empty()) out.push_back(std::move(path));
  }
  return out;
}

std::vector<std::uint64_t> Tracer::dropped_per_lane() const {
  std::lock_guard<std::mutex> lk(lanes_m_);
  std::vector<std::uint64_t> out(lanes_.size(), 0);
  for (const Lane& lane : lanes_) out[lane.id] = lane.dropped;
  return out;
}

void Tracer::complete(const char* name, std::uint64_t seq, std::int64_t ts_ns, std::int64_t dur_ns,
                      const Arg* args, int num_args) {
  TraceEvent e;
  e.seq = seq;
  e.phase = 'X';
  e.name = name;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.num_args = num_args < kMaxArgs ? num_args : kMaxArgs;
  for (int a = 0; a < e.num_args; ++a) e.args[a] = args[a];
  push(e);
}

void Tracer::instant(const char* name, std::initializer_list<Arg> args) {
  instant_seq(next_seq(), name, args);
}

void Tracer::instant_seq(std::uint64_t seq, const char* name, std::initializer_list<Arg> args) {
  TraceEvent e;
  e.seq = seq;
  e.phase = 'i';
  e.name = name;
  e.ts_ns = now_ns();
  for (const Arg& a : args) {
    if (e.num_args < kMaxArgs) e.args[e.num_args++] = a;
  }
  push(e);
}

std::vector<TraceEvent> Tracer::merged() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lk(lanes_m_);
    std::size_t total = 0;
    for (const Lane& lane : lanes_) total += lane.ring.size();
    out.reserve(total);
    for (const Lane& lane : lanes_) out.insert(out.end(), lane.ring.begin(), lane.ring.end());
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.lane < b.lane;
  });
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(lanes_m_);
  std::size_t total = 0;
  for (const Lane& lane : lanes_) total += lane.ring.size();
  return total;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  const std::vector<TraceEvent> events = merged();
  os << "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata rows so Perfetto labels the lanes.
  std::uint32_t max_lane = 0;
  for (const TraceEvent& e : events) max_lane = std::max(max_lane, e.lane);
  for (std::uint32_t lane = 0; lane <= max_lane && !events.empty(); ++lane) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << (lane + 1)
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"lane " << lane << "\"}}";
  }
  for (const TraceEvent& e : events) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":";
    json::write_string(os, e.name ? e.name : "");
    os << ",\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << (e.lane + 1)
       << ",\"ts\":" << json::number(static_cast<double>(e.ts_ns) / 1000.0);
    if (e.phase == 'X') {
      os << ",\"dur\":" << json::number(static_cast<double>(e.dur_ns) / 1000.0);
    }
    if (e.phase == 'i') os << ",\"s\":\"t\"";
    os << ",";
    write_args(os, e);
    os << '}';
  }
  os << "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"schema\":\"noceas.trace.v1\",\"dropped\":"
     << dropped() << ",\"dropped_per_lane\":[";
  const std::vector<std::uint64_t> per_lane = dropped_per_lane();
  for (std::size_t i = 0; i < per_lane.size(); ++i) {
    if (i > 0) os << ',';
    os << per_lane[i];
  }
  os << "]}}\n";
}

}  // namespace noceas::obs
