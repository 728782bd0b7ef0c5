// Span recorder owned by the benchmark.  The benchmark wraps each call into
// a layer's public function in a span; nothing is handed to the library, so
// the scheduler runs exactly the path a user runs (no tracer, registry or
// decision sink is ever attached on its behalf).  Spans are kept in memory
// and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    const char* name = "";  ///< string literal
    std::int32_t parent = -1;
    std::int32_t round = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Spans opened from now on belong to round `r` (spans of one round share
  /// this identifier).
  void begin_round(std::int32_t r) { round_ = r; }

  std::int32_t open(const char* name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), round_, now_ns(), 0});
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Self time (duration minus the part covered by child spans) summed per
  /// span name over the spans of round `r`, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms(std::int32_t r) const {
    std::vector<std::int64_t> self(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.round != r) continue;
      self[i] += s.end_ns - s.start_ns;
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].round == r) out[spans_[i].name] += static_cast<double>(self[i]) / 1e6;
    }
    return out;
  }

  /// One JSON object per span: name, round, parent, start and end (ns).
  void write_jsonl(std::ostream& os) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"round\":" << s.round
         << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int32_t round_ = -1;
};

/// Opens a span for its lifetime; does nothing when the log is null (the
/// untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, const char* name) : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// Runs `f` inside a span named `name` and returns its result.
template <class F>
auto in_span(SpanLog* log, const char* name, F&& f) {
  const Scope scope(log, name);
  return f();
}

}  // namespace perfbench
