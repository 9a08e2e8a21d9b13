// Process-wide metrics registry: named atomic counters, gauges, and
// fixed-bucket latency histograms, cheap enough for hot paths. Handles are
// value types wrapping a registry-owned cell; creating one takes a lock,
// updating one is a single relaxed atomic RMW. A fact an instance also
// reports through its own accessors lives in an OwnedCell instead: one cell,
// held by the instance, that the registry finds by name and sums into its
// snapshots. See docs/observability.md for the naming scheme and the catalog
// of metrics the library emits.
//
// Layering contract (tools/check_layering.py): telemetry is a leaf — every
// library may include it, it includes nothing project-local except the
// common/thread_annotations.h locking leaf. Environment gating
// (UCUDNN_TELEMETRY) is therefore read with std::getenv directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "common/thread_annotations.h"

namespace ucudnn::telemetry {

/// Monotonic event counter.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) noexcept {
    if (cell_) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Monotonic accumulator for wall-clock totals (milliseconds).
class DoubleCounter {
 public:
  DoubleCounter() = default;
  void add(double v) noexcept {
    if (cell_) cell_->fetch_add(v, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class MetricsRegistry;
  explicit DoubleCounter(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Last-writer-wins level (also supports relative adjustment).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) noexcept {
    if (cell_) cell_->store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) noexcept {
    if (cell_) cell_->fetch_add(v, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Fixed decade buckets for millisecond latencies: the i-th bucket counts
/// observations <= 1e-3 * 10^i ms (1us, 10us, ... 10s), the last is +inf.
inline constexpr int kHistogramBuckets = 9;

/// Upper bound of bucket `i` in ms; +inf for the overflow bucket.
double histogram_bucket_upper_ms(int i) noexcept;

struct HistogramData {
  std::uint64_t buckets[kHistogramBuckets] = {};
  std::uint64_t count = 0;
  double sum_ms = 0.0;
};

/// Interpolated percentile estimate (`quantile` in [0,1], clamped). The rank
/// `quantile * count` is located in the cumulative bucket counts, then
/// interpolated linearly within that decade bucket between its bounds (the
/// first bucket's lower bound is 0). Ranks landing in the open-ended
/// overflow bucket return its lower bound (10 s) — the histogram carries no
/// upper bound to interpolate toward. Returns 0 for an empty histogram.
double histogram_percentile_ms(const HistogramData& data,
                               double quantile) noexcept;

class Histogram {
 public:
  Histogram() = default;
  void observe_ms(double ms) noexcept;
  HistogramData data() const noexcept;

 private:
  friend class MetricsRegistry;
  struct Cells {
    std::atomic<std::uint64_t> buckets[kHistogramBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum_ms{0.0};
  };
  explicit Histogram(Cells* cells) : cells_(cells) {}
  Cells* cells_ = nullptr;
};

namespace detail {
template <typename T>
struct MetricEntry;  // metrics.cc
}  // namespace detail

/// The single store of a fact that an instance reports through its own
/// accessors (Server::counters(), PlanCache::hits(), ...). The instance
/// holds the cell and reads it directly; the registry finds it by `name`
/// and reports, under that name, the sum of every live cell plus the final
/// values of destroyed ones, which fold into the registry's own cell at
/// destruction. Construction and destruction take the registry lock;
/// add() and value() are one atomic operation each. Neither copyable nor
/// movable: the registry holds the cell's address.
template <typename T>
class OwnedCell {
 public:
  explicit OwnedCell(const std::string& name);
  ~OwnedCell();
  OwnedCell(const OwnedCell&) = delete;
  OwnedCell& operator=(const OwnedCell&) = delete;

  void add(T v = T{1},
           std::memory_order order = std::memory_order_relaxed) noexcept {
    value_.fetch_add(v, order);
  }
  T value(std::memory_order order = std::memory_order_relaxed) const noexcept {
    return value_.load(order);
  }

 private:
  std::atomic<T> value_{};
  detail::MetricEntry<T>* entry_ = nullptr;
};

/// Instance-owned forms of Counter, DoubleCounter and Gauge: they appear in
/// the snapshot's counters, double_counters and gauges respectively.
using OwnedCounter = OwnedCell<std::uint64_t>;
using OwnedDoubleCounter = OwnedCell<double>;
using OwnedGauge = OwnedCell<std::int64_t>;

/// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> double_counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramData> histograms;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Handle factories: idempotent per name, safe from any thread. A handle
  /// reads only the registry's own cell; for a name with OwnedCells that
  /// is the folded total of destroyed owners, and snapshot() adds the live
  /// ones.
  Counter counter(const std::string& name);
  DoubleCounter double_counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  MetricsSnapshot snapshot() const;
  /// Plain-text form, one "name value" line per metric, sorted by name.
  /// Histograms add `.count`, `.sum_ms`, interpolated `.p50_ms`/`.p95_ms`/
  /// `.p99_ms` estimates, and one `.le_<bound>ms` line per bucket.
  std::string to_text() const;
  /// Zeroes every registry-owned cell, including the folded totals of
  /// destroyed OwnedCell owners; existing handles stay valid. Cells owned
  /// by live instances are left as they are: they are those instances'
  /// own accessors. So right after reset() each owned name reports the sum
  /// of its live owners, and a clean baseline needs none alive. Intended
  /// for tests.
  void reset();

 private:
  template <typename T>
  friend class OwnedCell;
  template <typename T>
  using EntryMap =
      std::map<std::string, std::unique_ptr<detail::MetricEntry<T>>>;

  /// The entry for `name` in the map of T's kind, created on first use.
  template <typename T>
  detail::MetricEntry<T>& entry(const std::string& name) REQUIRES(mutex_);

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Captured at construction: the destructor must not call back into the
  // env-config function-local static, which — depending on which singleton
  // was touched first — may already be destroyed during static teardown.
  std::string exit_snapshot_path_;

  mutable Mutex mutex_{"MetricsRegistry"};
  // Heap entries: cell addresses are stable for the registry's lifetime.
  // Counters, double counters and gauges, selected by value type.
  std::tuple<EntryMap<std::uint64_t>, EntryMap<double>, EntryMap<std::int64_t>>
      entries_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram::Cells>> histograms_
      GUARDED_BY(mutex_);
};

/// True when UCUDNN_TELEMETRY is set truthy (or to a snapshot path) or
/// UCUDNN_TRACE_FILE names a trace output file. Read once per process.
bool telemetry_enabled() noexcept;

/// The file path form of UCUDNN_TELEMETRY ("" when unset or boolean): the
/// registry writes its plain-text snapshot there at process exit.
const std::string& metrics_snapshot_path() noexcept;

/// Mirrors the runtime lock-order detector's observed acquired-after edge
/// graph into the registry: gauge `ucudnn.lockorder.edges` (distinct edges)
/// and one `ucudnn.lockorder.edge.<held>-><acquired>` gauge per edge with
/// its observation count. A no-op when the detector is compiled out or
/// disabled (docs/analysis.md). Called automatically before the exit-time
/// metrics snapshot; tests and tools may call it at any quiescent point.
void sync_lock_order_metrics();

}  // namespace ucudnn::telemetry
