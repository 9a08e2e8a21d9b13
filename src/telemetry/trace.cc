#include "telemetry/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "telemetry/json_writer.h"

namespace ucudnn::telemetry {

namespace {

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-thread nesting depth of active spans.
thread_local std::uint32_t t_span_depth = 0;

// Ambient request trace id installed by TraceContext (0 = unscoped).
thread_local std::uint64_t t_trace_id = 0;

constexpr std::size_t kDefaultMaxSpans = 1'000'000;

std::size_t env_max_spans() {
  // std::getenv, not common/env.h: telemetry is a leaf.
  const char* raw = std::getenv("UCUDNN_TRACE_MAX_SPANS");
  if (raw == nullptr || raw[0] == '\0') return kDefaultMaxSpans;
  char* end = nullptr;
  const long long parsed = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || parsed <= 0) return kDefaultMaxSpans;
  return static_cast<std::size_t>(parsed);
}

void append_span_args(JsonWriter& w, const SpanEvent& e) {
  w.key("args").begin_object();
  w.key("depth").value(static_cast<std::int64_t>(e.depth));
  if (e.trace_id != 0) w.key("trace").value(e.trace_id);
  if (!e.detail.empty()) w.key("detail").value(e.detail);
  w.end_object();
}

// Chrome trace-event rendering, shared between to_json (snapshot copy) and
// the destructor (events under the already-held lock). The dropped-span
// count rides in "otherData", which Chrome and Perfetto ignore. JsonWriter
// is stdio-only, so this is safe during static destruction.
template <typename Events>
std::string events_to_json(const Events& events, std::uint64_t dropped) {
  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (const SpanEvent& e : events) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("cat").value("ucudnn");
    w.key("ph").value("X");
    w.key("ts").value(e.ts_us);
    w.key("dur").value(e.dur_us);
    w.key("pid").value(1);
    w.key("tid").value(static_cast<std::int64_t>(e.tid));
    append_span_args(w, e);
    w.end_object();
  }
  w.end_array();
  w.key("otherData").begin_object();
  w.key("dropped_spans").value(dropped);
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

void write_text_file(const std::string& path, const std::string& text) {
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
}

}  // namespace

std::uint64_t next_trace_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t current_trace_id() noexcept { return t_trace_id; }

TraceContext::TraceContext(std::uint64_t trace_id) noexcept
    : prev_(t_trace_id) {
  t_trace_id = trace_id;
}

TraceContext::~TraceContext() { t_trace_id = prev_; }

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

TraceRecorder::TraceRecorder()
    : epoch_ns_(steady_ns()), max_spans_(env_max_spans()) {
  // std::getenv, not common/env.h: telemetry is a leaf.
  if (const char* path = std::getenv("UCUDNN_TRACE_FILE");
      path != nullptr && path[0] != '\0') {
    trace_path_ = path;
  }
  // Pins the registry's construction before ours so the dropped-span
  // counter's cell outlives this recorder during static teardown.
  m_dropped_ = MetricsRegistry::instance().counter("ucudnn.trace.dropped");
  set_enabled(!trace_path_.empty() || telemetry_enabled());
}

TraceRecorder::~TraceRecorder() {
  if (trace_path_.empty()) return;
  MutexLock lock(mutex_);
  if (events_.empty()) return;
  // Renders from events_ directly (rather than via write_chrome_trace) to
  // avoid re-locking during static destruction.
  write_text_file(trace_path_, events_to_json(events_, dropped_spans()));
}

void TraceRecorder::clear() {
  MutexLock lock(mutex_);
  events_.clear();
}

std::vector<SpanEvent> TraceRecorder::events() const {
  MutexLock lock(mutex_);
  return std::vector<SpanEvent>(events_.begin(), events_.end());
}

std::string TraceRecorder::to_json() const {
  return events_to_json(events(), dropped_spans());
}

void TraceRecorder::write_chrome_trace(const std::string& path) const {
  write_text_file(path, to_json());
}

void TraceRecorder::record(SpanEvent event) {
  std::uint64_t evicted = 0;
  {
    MutexLock lock(mutex_);
    while (events_.size() >= max_spans_) {
      events_.pop_front();
      ++evicted;
    }
    events_.push_back(std::move(event));
  }
  if (evicted > 0) m_dropped_.add(evicted);
}

std::size_t TraceRecorder::max_spans() const {
  MutexLock lock(mutex_);
  return max_spans_;
}

void TraceRecorder::set_max_spans(std::size_t cap) {
  MutexLock lock(mutex_);
  max_spans_ = std::max<std::size_t>(cap, 1);
}

double TraceRecorder::now_us() const noexcept {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-3;
}

std::uint32_t TraceRecorder::thread_ordinal() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

void ScopedSpan::open(const char* name) noexcept {
  name_ = name;
  TraceRecorder& recorder = TraceRecorder::instance();
  // A span that outlives a set_enabled(false) still records, and one opened
  // for the flight recorder alone never retroactively records: the decision
  // is latched here. Depth accounting stays balanced because open/close pair
  // on name_ either way.
  to_recorder_ = recorder.enabled();
  trace_id_ = t_trace_id;
  start_us_ = recorder.now_us();
  depth_ = t_span_depth++;
  FlightRecorder::note(FlightEventKind::kSpanOpen, name, trace_id_,
                       static_cast<std::int64_t>(depth_), 0);
}

void ScopedSpan::close() noexcept {
  --t_span_depth;
  TraceRecorder& recorder = TraceRecorder::instance();
  const double dur_us = recorder.now_us() - start_us_;
  FlightRecorder::note(FlightEventKind::kSpanClose, name_, trace_id_,
                       static_cast<std::int64_t>(depth_),
                       static_cast<std::int64_t>(std::llround(dur_us)));
  if (!to_recorder_) return;
  SpanEvent event;
  event.name = name_;
  event.detail = std::move(detail_);
  event.ts_us = start_us_;
  event.dur_us = dur_us;
  event.tid = TraceRecorder::thread_ordinal();
  event.depth = depth_;
  event.trace_id = trace_id_;
  recorder.record(std::move(event));
}

}  // namespace ucudnn::telemetry
