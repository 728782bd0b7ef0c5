#include "src/obs/profile.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <limits>
#include <ostream>

#include "src/util/error.hpp"
#include "src/util/json.hpp"

namespace noceas::obs {

namespace {

std::uint64_t next_profiler_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// log2 bucket of a duration: floor(log2(ns)), durations <= 1 ns in bucket 0.
int bucket_of(std::int64_t dur_ns) {
  if (dur_ns <= 1) return 0;
  return std::bit_width(static_cast<std::uint64_t>(dur_ns)) - 1;
}

}  // namespace

double ProfileRecord::percentile_ns(double q) const {
  if (count == 0) return 0.0;
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (const auto& [idx, c] : buckets) {
    cum += c;
    if (static_cast<double>(cum) >= rank) {
      // Interpolate inside [2^idx, 2^(idx+1)) by the fraction of the
      // bucket's population below the rank.
      const double lo = idx == 0 ? 0.0 : std::ldexp(1.0, idx);
      const double hi = std::ldexp(1.0, idx + 1);
      const double into = (rank - static_cast<double>(cum - c)) / static_cast<double>(c);
      const double est = lo + into * (hi - lo);
      return std::clamp(est, static_cast<double>(min_ns), static_cast<double>(max_ns));
    }
  }
  return static_cast<double>(max_ns);
}

void ProfileRecord::merge(const ProfileRecord& o) {
  NOCEAS_REQUIRE(path == o.path, "merging profile records of different paths: '"
                                     << path << "' vs '" << o.path << '\'');
  if (count == 0) {
    min_ns = o.min_ns;
    max_ns = o.max_ns;
  } else if (o.count > 0) {
    min_ns = std::min(min_ns, o.min_ns);
    max_ns = std::max(max_ns, o.max_ns);
  }
  count += o.count;
  total_ns += o.total_ns;
  self_ns += o.self_ns;
  // Merge the sparse bucket lists (both ascending by index).
  std::vector<std::pair<int, std::uint64_t>> merged;
  merged.reserve(buckets.size() + o.buckets.size());
  std::size_t i = 0, j = 0;
  while (i < buckets.size() || j < o.buckets.size()) {
    if (j >= o.buckets.size() || (i < buckets.size() && buckets[i].first < o.buckets[j].first)) {
      merged.push_back(buckets[i++]);
    } else if (i >= buckets.size() || o.buckets[j].first < buckets[i].first) {
      merged.push_back(o.buckets[j++]);
    } else {
      merged.emplace_back(buckets[i].first, buckets[i].second + o.buckets[j].second);
      ++i;
      ++j;
    }
  }
  buckets = std::move(merged);
}

void ProfileSnapshot::merge(const ProfileSnapshot& o) {
  lanes += o.lanes;
  wall_ns += o.wall_ns;
  // Both record lists are sorted by path; merge like a sorted union.
  std::vector<ProfileRecord> merged;
  merged.reserve(records.size() + o.records.size());
  std::size_t i = 0, j = 0;
  while (i < records.size() || j < o.records.size()) {
    if (j >= o.records.size() ||
        (i < records.size() && records[i].path < o.records[j].path)) {
      merged.push_back(std::move(records[i++]));
    } else if (i >= records.size() || o.records[j].path < records[i].path) {
      merged.push_back(o.records[j++]);
    } else {
      records[i].merge(o.records[j]);
      merged.push_back(std::move(records[i]));
      ++i;
      ++j;
    }
  }
  records = std::move(merged);
}

std::int64_t ProfileSnapshot::root_total_ns() const {
  std::int64_t total = 0;
  for (const ProfileRecord& r : records) {
    if (r.depth == 0) total += r.total_ns;
  }
  return total;
}

std::int64_t ProfileSnapshot::sum_self_ns() const {
  std::int64_t total = 0;
  for (const ProfileRecord& r : records) total += r.self_ns;
  return total;
}

Profiler::Profiler() : profiler_id_(next_profiler_id()) {}

Profiler::~Profiler() = default;

Profiler::Lane& Profiler::this_lane() {
  // Same pattern as Tracer::this_lane: a per-thread cache keyed by the
  // process-unique profiler id, so a thread that outlives one profiler and
  // emits into another never dereferences a stale lane.
  thread_local std::uint64_t cached_id = 0;
  thread_local Lane* cached_lane = nullptr;
  if (cached_id == profiler_id_ && cached_lane != nullptr) return *cached_lane;

  std::lock_guard<std::mutex> lk(lanes_m_);
  Lane*& slot = lane_of_thread_[std::this_thread::get_id()];
  if (slot == nullptr) {
    lanes_.emplace_back();
    slot = &lanes_.back();
  }
  cached_id = profiler_id_;
  cached_lane = slot;
  return *slot;
}

void Profiler::open(const char* name) {
  Lane& lane = this_lane();
  Node* parent = lane.stack.empty() ? &lane.root : lane.stack.back().node;
  Node* node = nullptr;
  for (const auto& child : parent->children) {
    // Names are string literals; compare by content anyway so identical
    // names from different literal addresses share a node.
    if (child->name == name || std::strcmp(child->name, name) == 0) {
      node = child.get();
      break;
    }
  }
  if (node == nullptr) {
    parent->children.push_back(std::make_unique<Node>());
    node = parent->children.back().get();
    node->name = name;
    node->parent = parent;
    node->min_ns = std::numeric_limits<std::int64_t>::max();
  }
  lane.stack.push_back(Frame{node, 0});
}

void Profiler::close(std::int64_t dur_ns) {
  Lane& lane = this_lane();
  if (lane.stack.empty()) return;  // unmatched close: ignore
  const Frame frame = lane.stack.back();
  lane.stack.pop_back();
  Node& n = *frame.node;
  ++n.count;
  n.total_ns += dur_ns;
  n.min_ns = std::min(n.min_ns, dur_ns);
  n.max_ns = std::max(n.max_ns, dur_ns);
  ++n.buckets[static_cast<std::size_t>(bucket_of(dur_ns))];
  const std::int64_t self = dur_ns - frame.child_ns;
  n.self_ns += self > 0 ? self : 0;
  if (!lane.stack.empty()) lane.stack.back().child_ns += dur_ns;
}

ProfileSnapshot Profiler::snapshot(std::int64_t wall_ns) const {
  std::lock_guard<std::mutex> lk(lanes_m_);
  std::map<std::string, ProfileRecord> by_path;

  // Depth-first over each lane's tree, folding lanes together per path.
  struct Item {
    const Node* node;
    std::string path;
    int depth;
  };
  for (const Lane& lane : lanes_) {
    std::vector<Item> work;
    for (auto it = lane.root.children.rbegin(); it != lane.root.children.rend(); ++it) {
      work.push_back(Item{it->get(), it->get()->name, 0});
    }
    while (!work.empty()) {
      const Item item = work.back();
      work.pop_back();
      const Node& n = *item.node;
      ProfileRecord rec;
      rec.path = item.path;
      rec.name = n.name;
      rec.depth = item.depth;
      rec.count = n.count;
      rec.total_ns = n.total_ns;
      rec.self_ns = n.self_ns;
      rec.min_ns = n.count > 0 ? n.min_ns : 0;
      rec.max_ns = n.max_ns;
      for (int b = 0; b < kProfileBuckets; ++b) {
        if (n.buckets[static_cast<std::size_t>(b)] > 0) {
          rec.buckets.emplace_back(b, n.buckets[static_cast<std::size_t>(b)]);
        }
      }
      auto [it, inserted] = by_path.emplace(rec.path, rec);
      if (!inserted) it->second.merge(rec);
      for (auto cit = n.children.rbegin(); cit != n.children.rend(); ++cit) {
        work.push_back(
            Item{cit->get(), item.path + ';' + cit->get()->name, item.depth + 1});
      }
    }
  }

  ProfileSnapshot snap;
  snap.lanes = static_cast<std::uint32_t>(lanes_.size());
  snap.wall_ns = wall_ns;
  snap.records.reserve(by_path.size());
  for (auto& [path, rec] : by_path) snap.records.push_back(std::move(rec));
  return snap;
}

void write_profile_json(std::ostream& os, const ProfileSnapshot& snapshot,
                        bool include_timings) {
  // Deterministic section: the set of call paths and their counts — a pure
  // function of the span stream's control flow, byte-identical for any
  // thread count (the campaign merge contract).
  os << "{\"schema\":\"noceas.profile.v1\",\"lanes\":" << snapshot.lanes << ",\"records\":[";
  for (std::size_t i = 0; i < snapshot.records.size(); ++i) {
    const ProfileRecord& r = snapshot.records[i];
    if (i > 0) os << ',';
    os << "\n{\"path\":";
    json::write_string(os, r.path);
    os << ",\"name\":";
    json::write_string(os, r.name);
    os << ",\"depth\":" << r.depth << ",\"count\":" << r.count << '}';
  }
  os << "\n]";
  if (include_timings) {
    // Non-deterministic section: wall-clock durations (the resources.json
    // precedent — never under the byte-identity contract).
    os << ",\"timings\":{\"wall_ns\":" << snapshot.wall_ns << ",\"records\":[";
    for (std::size_t i = 0; i < snapshot.records.size(); ++i) {
      const ProfileRecord& r = snapshot.records[i];
      if (i > 0) os << ',';
      os << "\n{\"path\":";
      json::write_string(os, r.path);
      os << ",\"total_ns\":" << r.total_ns << ",\"self_ns\":" << r.self_ns
         << ",\"min_ns\":" << r.min_ns << ",\"max_ns\":" << r.max_ns
         << ",\"p50_ns\":" << json::number(r.percentile_ns(0.50))
         << ",\"p95_ns\":" << json::number(r.percentile_ns(0.95))
         << ",\"p99_ns\":" << json::number(r.percentile_ns(0.99)) << ",\"buckets\":[";
      for (std::size_t b = 0; b < r.buckets.size(); ++b) {
        if (b > 0) os << ',';
        os << '[' << r.buckets[b].first << ',' << r.buckets[b].second << ']';
      }
      os << "]}";
    }
    os << "\n]}";
  }
  os << "}\n";
}

void write_profile_folded(std::ostream& os, const ProfileSnapshot& snapshot) {
  for (const ProfileRecord& r : snapshot.records) {
    if (r.self_ns <= 0) continue;
    os << r.path << ' ' << r.self_ns << '\n';
  }
}

}  // namespace noceas::obs
