// Scoped trace spans with thread ids, nesting, and request-scoped trace ids,
// exported as Chrome chrome://tracing JSON ("traceEvents" with ph:"X"
// complete events; each span's trace id is its "trace" argument, which
// tools/request_timelines.py groups into per-request timelines). The span
// catalog lives in docs/observability.md.
//
// Recording is gated by a single relaxed atomic (the FaultInjector::armed
// idiom): a disabled ScopedSpan costs one load and allocates nothing — the
// detail callback of the two-argument constructor is never invoked. Enable
// via UCUDNN_TRACE_FILE=<path> (written at process exit), UCUDNN_TELEMETRY,
// or programmatically with TraceRecorder::set_enabled for tests. When the
// flight recorder is armed, spans additionally emit compact open/close
// events into its ring buffers even with the trace recorder off.
//
// Request scoping: next_trace_id() mints a process-unique id, TraceContext
// installs it as the calling thread's ambient id, and every span opened
// while it is installed carries it — existing call sites pick this up with
// no signature changes. The recorder caps retained spans at
// UCUDNN_TRACE_MAX_SPANS (drop-oldest; dropped count exported as
// `ucudnn.trace.dropped`) so a long serving run cannot OOM the recorder.
//
// Layering contract (tools/check_layering.py): telemetry is a leaf — it may
// include only other telemetry headers.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace ucudnn::telemetry {

/// One completed span. Timestamps are microseconds on the steady clock,
/// relative to the recorder's construction.
struct SpanEvent {
  std::string name;    // catalog name, e.g. "segment_exec"
  std::string detail;  // free-form annotation ("" = none)
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;        // compact per-process thread ordinal
  std::uint32_t depth = 0;      // nesting depth on that thread (0 = top level)
  std::uint64_t trace_id = 0;   // ambient request trace id (0 = unscoped)
};

/// Mints a process-unique request trace id. Never returns 0 (0 = unscoped).
std::uint64_t next_trace_id() noexcept;

/// The calling thread's ambient trace id (0 when no TraceContext is active).
std::uint64_t current_trace_id() noexcept;

/// RAII ambient trace scope: spans opened (and flight events recorded) on
/// this thread while the context is alive carry `trace_id`. Nests; the
/// previous id is restored on destruction.
class TraceContext {
 public:
  explicit TraceContext(std::uint64_t trace_id) noexcept;
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  std::uint64_t prev_ = 0;
};

class TraceRecorder {
 public:
  static TraceRecorder& instance();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  void clear();
  std::vector<SpanEvent> events() const;

  /// Chrome trace-event JSON:
  /// {"traceEvents":[...],"otherData":{"dropped_spans":N}}.
  std::string to_json() const;
  void write_chrome_trace(const std::string& path) const;

  /// Appends a completed span (called by ScopedSpan). Evicts the oldest
  /// spans beyond max_spans(), counting them in dropped_spans().
  void record(SpanEvent event);

  /// Retention cap (UCUDNN_TRACE_MAX_SPANS, default 1M) and the number of
  /// spans evicted by it so far. The count is the `ucudnn.trace.dropped`
  /// registry cell itself, so MetricsRegistry::reset() zeroes it.
  std::size_t max_spans() const;
  void set_max_spans(std::size_t cap);  // clamped to >= 1; for tests
  std::uint64_t dropped_spans() const { return m_dropped_.value(); }

  /// Microseconds since the recorder's epoch.
  double now_us() const noexcept;
  /// Compact ordinal of the calling thread (stable for its lifetime).
  static std::uint32_t thread_ordinal() noexcept;

 private:
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  std::atomic<bool> enabled_{false};
  std::string trace_path_;  // UCUDNN_TRACE_FILE; written at destruction
  std::int64_t epoch_ns_ = 0;
  mutable Mutex mutex_{"TraceRecorder"};
  std::deque<SpanEvent> events_ GUARDED_BY(mutex_);
  std::size_t max_spans_ GUARDED_BY(mutex_);
  Counter m_dropped_;  // ucudnn.trace.dropped; the only store of the count
};

/// RAII span. When both the trace recorder and the flight recorder are
/// disabled the constructor is a single relaxed load (each) and the
/// destructor a null check; nothing is allocated and the detail callback is
/// not invoked. With only the flight recorder armed, the span emits compact
/// ring events but allocates nothing and retains nothing.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept {
    if (TraceRecorder::instance().enabled() || FlightRecorder::armed()) {
      open(name);
    }
  }

  /// `detail_fn() -> std::string` is evaluated only when the trace recorder
  /// itself records (flight events carry no detail string).
  template <typename DetailFn>
  ScopedSpan(const char* name, DetailFn&& detail_fn) {
    if (TraceRecorder::instance().enabled() || FlightRecorder::armed()) {
      open(name);
      if (to_recorder_) detail_ = std::forward<DetailFn>(detail_fn)();
    }
  }

  ~ScopedSpan() {
    if (name_ != nullptr) close();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const noexcept { return name_ != nullptr; }

 private:
  void open(const char* name) noexcept;
  void close() noexcept;

  const char* name_ = nullptr;  // nullptr = inactive
  bool to_recorder_ = false;    // trace recorder was enabled at open
  std::string detail_;
  double start_us_ = 0.0;
  std::uint32_t depth_ = 0;
  std::uint64_t trace_id_ = 0;
};

}  // namespace ucudnn::telemetry
