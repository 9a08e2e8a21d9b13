#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

namespace ucudnn::telemetry {

namespace {

struct EnvConfig {
  bool enabled = false;
  std::string snapshot_path;  // empty when UCUDNN_TELEMETRY is boolean-ish
};

// std::getenv (not common/env.h): telemetry is a leaf and includes nothing
// project-local.
const EnvConfig& env_config() {
  static const EnvConfig config = [] {
    EnvConfig c;
    if (const char* raw = std::getenv("UCUDNN_TELEMETRY");
        raw != nullptr && raw[0] != '\0') {
      if (std::strcmp(raw, "0") == 0 || std::strcmp(raw, "false") == 0 ||
          std::strcmp(raw, "off") == 0 || std::strcmp(raw, "no") == 0) {
        c.enabled = false;
      } else {
        c.enabled = true;
        if (std::strcmp(raw, "1") != 0 && std::strcmp(raw, "true") != 0 &&
            std::strcmp(raw, "on") != 0 && std::strcmp(raw, "yes") != 0) {
          c.snapshot_path = raw;
        }
      }
    }
    if (const char* trace = std::getenv("UCUDNN_TRACE_FILE");
        trace != nullptr && trace[0] != '\0') {
      c.enabled = true;
    }
    return c;
  }();
  return config;
}

}  // namespace

namespace detail {

/// Registry entry of one named counter, double counter or gauge. `cell` is
/// what the registry's handles update, and where owned cells fold their
/// final value when destroyed; `owned` lists the live OwnedCells of the
/// name. The list is guarded by the registry's mutex.
template <typename T>
struct MetricEntry {
  std::atomic<T> cell{};
  std::vector<const std::atomic<T>*> owned;
};

}  // namespace detail

bool telemetry_enabled() noexcept { return env_config().enabled; }

const std::string& metrics_snapshot_path() noexcept {
  return env_config().snapshot_path;
}

double histogram_bucket_upper_ms(int i) noexcept {
  if (i < 0) return 0.0;
  if (i >= kHistogramBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return 1e-3 * std::pow(10.0, i);
}

double histogram_percentile_ms(const HistogramData& data,
                               double quantile) noexcept {
  if (data.count == 0) return 0.0;
  quantile = std::clamp(quantile, 0.0, 1.0);
  const double target = quantile * static_cast<double>(data.count);
  double cumulative = 0.0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    const double in_bucket = static_cast<double>(data.buckets[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= target) {
      const double lower = i == 0 ? 0.0 : histogram_bucket_upper_ms(i - 1);
      const double upper = histogram_bucket_upper_ms(i);
      if (!std::isfinite(upper)) return lower;  // open-ended overflow bucket
      const double fraction =
          std::clamp((target - cumulative) / in_bucket, 0.0, 1.0);
      return lower + (upper - lower) * fraction;
    }
    cumulative += in_bucket;
  }
  // count > 0 guarantees some bucket satisfied cumulative + n >= target.
  return histogram_bucket_upper_ms(kHistogramBuckets - 2);
}

void Histogram::observe_ms(double ms) noexcept {
  if (cells_ == nullptr) return;
  int bucket = kHistogramBuckets - 1;
  for (int i = 0; i < kHistogramBuckets - 1; ++i) {
    if (ms <= histogram_bucket_upper_ms(i)) {
      bucket = i;
      break;
    }
  }
  cells_->buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  cells_->count.fetch_add(1, std::memory_order_relaxed);
  cells_->sum_ms.fetch_add(ms, std::memory_order_relaxed);
}

HistogramData Histogram::data() const noexcept {
  HistogramData d;
  if (cells_ == nullptr) return d;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    d.buckets[i] = cells_->buckets[i].load(std::memory_order_relaxed);
  }
  d.count = cells_->count.load(std::memory_order_relaxed);
  d.sum_ms = cells_->sum_ms.load(std::memory_order_relaxed);
  return d;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::MetricsRegistry() {
  if (telemetry_enabled()) exit_snapshot_path_ = metrics_snapshot_path();
}

MetricsRegistry::~MetricsRegistry() {
  // Exit-time plain-text export, gated by UCUDNN_TELEMETRY=<path>. stdio
  // only: iostreams may already be torn down during static destruction.
  if (exit_snapshot_path_.empty()) return;
  sync_lock_order_metrics();
  if (std::FILE* f = std::fopen(exit_snapshot_path_.c_str(), "w")) {
    const std::string text = to_text();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
}

template <typename T>
detail::MetricEntry<T>& MetricsRegistry::entry(const std::string& name) {
  auto& slot = std::get<EntryMap<T>>(entries_)[name];
  if (!slot) slot = std::make_unique<detail::MetricEntry<T>>();
  return *slot;
}

Counter MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  return Counter(&entry<std::uint64_t>(name).cell);
}

DoubleCounter MetricsRegistry::double_counter(const std::string& name) {
  MutexLock lock(mutex_);
  return DoubleCounter(&entry<double>(name).cell);
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  return Gauge(&entry<std::int64_t>(name).cell);
}

Histogram MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(mutex_);
  auto& cells = histograms_[name];
  if (!cells) cells = std::make_unique<Histogram::Cells>();
  return Histogram(cells.get());
}

template <typename T>
OwnedCell<T>::OwnedCell(const std::string& name) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  MutexLock lock(registry.mutex_);
  entry_ = &registry.entry<T>(name);
  entry_->owned.push_back(&value_);
}

template <typename T>
OwnedCell<T>::~OwnedCell() {
  MetricsRegistry& registry = MetricsRegistry::instance();
  MutexLock lock(registry.mutex_);
  // Fold and unlist under one lock: a snapshot sees the value exactly once.
  entry_->cell.fetch_add(value_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  std::erase(entry_->owned, &value_);
}

template class OwnedCell<std::uint64_t>;
template class OwnedCell<double>;
template class OwnedCell<std::int64_t>;

namespace {

/// Reports each entry as its registry cell plus every live owned cell.
void add_totals(const auto& entries, auto& out) {
  for (const auto& [name, entry] : entries) {
    auto sum = entry->cell.load(std::memory_order_relaxed);
    for (const auto* owned : entry->owned) {
      sum += owned->load(std::memory_order_relaxed);
    }
    out[name] = sum;
  }
}

void zero_cells(auto& entries) {
  for (auto& [name, entry] : entries) entry->cell.store({});
}

}  // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mutex_);
  add_totals(std::get<EntryMap<std::uint64_t>>(entries_), snap.counters);
  add_totals(std::get<EntryMap<double>>(entries_), snap.double_counters);
  add_totals(std::get<EntryMap<std::int64_t>>(entries_), snap.gauges);
  for (const auto& [name, cells] : histograms_) {
    snap.histograms[name] = Histogram(cells.get()).data();
  }
  return snap;
}

std::string MetricsRegistry::to_text() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, value] : snap.counters) {
    os << name << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.double_counters) {
    os << name << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    os << name << " " << value << "\n";
  }
  for (const auto& [name, data] : snap.histograms) {
    os << name << ".count " << data.count << "\n";
    os << name << ".sum_ms " << data.sum_ms << "\n";
    os << name << ".p50_ms " << histogram_percentile_ms(data, 0.50) << "\n";
    os << name << ".p95_ms " << histogram_percentile_ms(data, 0.95) << "\n";
    os << name << ".p99_ms " << histogram_percentile_ms(data, 0.99) << "\n";
    for (int i = 0; i < kHistogramBuckets; ++i) {
      // %g keeps the decade bounds readable ("0.1", not the full 17-digit
      // round-trip form the value stream uses).
      char bound[32];
      std::snprintf(bound, sizeof(bound), "%g", histogram_bucket_upper_ms(i));
      os << name << ".le_" << bound << "ms " << data.buckets[i] << "\n";
    }
  }
  return os.str();
}

void sync_lock_order_metrics() {
  if (!lockorder::kCompiledIn) return;
  if (!lockorder::enabled()) return;
  const std::vector<lockorder::Edge> edges = lockorder::edges();
  MetricsRegistry& registry = MetricsRegistry::instance();
  // Always published while the detector is on — a 0 means "detector ran,
  // no nested acquisitions observed", distinct from "detector off".
  registry.gauge("ucudnn.lockorder.edges")
      .set(static_cast<std::int64_t>(edges.size()));
  for (const lockorder::Edge& edge : edges) {
    registry.gauge("ucudnn.lockorder.edge." + edge.from + "->" + edge.to)
        .set(static_cast<std::int64_t>(edge.count));
  }
}

void MetricsRegistry::reset() {
  MutexLock lock(mutex_);
  zero_cells(std::get<EntryMap<std::uint64_t>>(entries_));
  zero_cells(std::get<EntryMap<double>>(entries_));
  zero_cells(std::get<EntryMap<std::int64_t>>(entries_));
  for (auto& [name, cells] : histograms_) {
    for (auto& bucket : cells->buckets) bucket.store(0);
    cells->count.store(0);
    cells->sum_ms.store(0.0);
  }
}

}  // namespace ucudnn::telemetry
