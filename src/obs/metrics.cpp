#include "src/obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "src/util/error.hpp"
#include "src/util/json.hpp"

namespace noceas::obs {

namespace {

/// Relaxed fetch-add for atomic<double> (no hardware fetch_add pre-C++20
/// everywhere; CAS loop is fine off the hot path).
void atomic_add(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur && !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur && !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    NOCEAS_REQUIRE(bounds_[i - 1] < bounds_[i],
                   "histogram bounds not strictly increasing at index " << i);
  }
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  atomic_min(min_, x);
  atomic_max(max_, x);
}

double Histogram::percentile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double lo_clamp = min();
  const double hi_clamp = max();
  const double rank = q * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t c = bucket_count(i);
    cum += c;
    if (c > 0 && static_cast<double>(cum) >= rank) {
      // Interpolate inside (lo, hi] by the fraction of the bucket's
      // population below the rank.  The first bucket's lower edge and the
      // overflow bucket's upper edge are unbounded; the min/max clamp
      // supplies the real stream extremes there.
      const double lo = i == 0 ? lo_clamp : bounds_[i - 1];
      const double hi = i == bounds_.size() ? hi_clamp : bounds_[i];
      const double into = (rank - static_cast<double>(cum - c)) / static_cast<double>(c);
      return std::clamp(lo + into * (hi - lo), lo_clamp, hi_clamp);
    }
  }
  return hi_clamp;
}

double Histogram::min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return count() == 0 ? 0.0 : v;
}

double Histogram::max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return count() == 0 ? 0.0 : v;
}

std::vector<double> exp_buckets(double start, double factor, std::size_t count) {
  NOCEAS_REQUIRE(start > 0.0 && factor > 1.0, "exp_buckets needs start > 0 and factor > 1");
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i, b *= factor) bounds.push_back(b);
  return bounds;
}

std::vector<double> linear_buckets(double start, double step, std::size_t count) {
  NOCEAS_REQUIRE(step > 0.0, "linear_buckets needs step > 0");
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i, b += step) bounds.push_back(b);
  return bounds;
}

Counter& Registry::counter(const std::string& name, const std::string& unit) {
  std::lock_guard<std::mutex> lk(m_);
  NOCEAS_REQUIRE(!gauges_.count(name) && !histograms_.count(name),
                 "metric name '" << name << "' already used by another kind");
  auto& slot = counters_[name];
  if (!slot.metric) {
    slot.unit = unit;
    slot.metric = std::make_unique<Counter>();
  }
  return *slot.metric;
}

Gauge& Registry::gauge(const std::string& name, const std::string& unit) {
  std::lock_guard<std::mutex> lk(m_);
  NOCEAS_REQUIRE(!counters_.count(name) && !histograms_.count(name),
                 "metric name '" << name << "' already used by another kind");
  auto& slot = gauges_[name];
  if (!slot.metric) {
    slot.unit = unit;
    slot.metric = std::make_unique<Gauge>();
  }
  return *slot.metric;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> upper_bounds,
                               const std::string& unit) {
  std::lock_guard<std::mutex> lk(m_);
  NOCEAS_REQUIRE(!counters_.count(name) && !gauges_.count(name),
                 "metric name '" << name << "' already used by another kind");
  auto& slot = histograms_[name];
  if (!slot.metric) {
    slot.unit = unit;
    slot.metric = std::make_unique<Histogram>(std::move(upper_bounds));
  } else {
    NOCEAS_REQUIRE(slot.metric->bounds() == upper_bounds,
                   "histogram '" << name << "' re-registered with different bounds");
  }
  return *slot.metric;
}

std::map<std::string, double> Registry::values() const {
  std::lock_guard<std::mutex> lk(m_);
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) out[name] = static_cast<double>(c.metric->value());
  for (const auto& [name, g] : gauges_) out[name] = g.metric->value();
  for (const auto& [name, h] : histograms_) {
    const Histogram& hist = *h.metric;
    out[name + ".count"] = static_cast<double>(hist.count());
    out[name + ".sum"] = hist.sum();
    out[name + ".mean"] = hist.count() ? hist.sum() / static_cast<double>(hist.count()) : 0.0;
    out[name + ".max"] = hist.max();
  }
  return out;
}

void Registry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(m_);
  os << "{\"schema\":\"noceas.metrics.v1.2\",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    json::write_string(os, name);
    os << ":{\"unit\":";
    json::write_string(os, c.unit);
    os << ",\"value\":" << c.metric->value() << '}';
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    json::write_string(os, name);
    os << ":{\"unit\":";
    json::write_string(os, g.unit);
    os << ",\"value\":" << json::number(g.metric->value()) << '}';
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    const Histogram& hist = *h.metric;
    json::write_string(os, name);
    os << ":{\"unit\":";
    json::write_string(os, h.unit);
    const double mean = hist.count() ? hist.sum() / static_cast<double>(hist.count()) : 0.0;
    os << ",\"count\":" << hist.count() << ",\"sum\":" << json::number(hist.sum())
       << ",\"mean\":" << json::number(mean) << ",\"min\":" << json::number(hist.min())
       << ",\"max\":" << json::number(hist.max())
       << ",\"p50\":" << json::number(hist.percentile(0.50))
       << ",\"p95\":" << json::number(hist.percentile(0.95))
       << ",\"p99\":" << json::number(hist.percentile(0.99)) << ",\"buckets\":[";
    for (std::size_t i = 0; i < hist.bounds().size(); ++i) {
      if (i > 0) os << ',';
      os << "{\"le\":" << json::number(hist.bounds()[i]) << ",\"count\":" << hist.bucket_count(i)
         << '}';
    }
    if (!hist.bounds().empty()) os << ',';
    os << "{\"le\":\"+inf\",\"count\":" << hist.bucket_count(hist.bounds().size()) << "}]}";
  }
  os << "}}\n";
}

}  // namespace noceas::obs
