// End-to-end request-tracing tests over the serving stack
// (docs/observability.md): every admitted request gets a process-unique
// trace id at submit(), and the spans it leaves behind — serve_admit,
// serve_queue, serve_exec_request, serve_resolve — reconstruct its full
// admit -> queue -> batch -> exec -> resolve timeline even when the request
// was coalesced into a merged batch executed on the server's exec thread.
// An env-enabled serve run leaves the Chrome trace that the
// request_trace_export ctest fixture checks with tools/request_timelines.py.
// Also covers the flight recorder's dump-on-fault path: an armed singleton
// with a dump file configured writes a ucudnn-flight-v1 dump the moment a
// fault-injector site fires.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/fault_injection.h"
#include "json_validator.h"
#include "serve/server.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace.h"
#include "tensor/tensor.h"

namespace ucudnn {
namespace {

using serve::ServeOptions;
using serve::ServeRequest;
using serve::Server;
using serve::TicketPtr;

std::shared_ptr<device::Device> cpu() {
  return std::make_shared<device::Device>(device::host_cpu_spec());
}

core::Options core_opts() {
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.workspace_limit = std::size_t{4} << 20;
  return opts;
}

kernels::ConvProblem sample_problem(std::int64_t batch = 1) {
  return kernels::ConvProblem({batch, 2, 6, 6}, {4, 2, 3, 3},
                              {.pad_h = 1, .pad_w = 1});
}

/// One client-side request: owns its operand buffers.
struct Client {
  explicit Client(std::uint64_t seed, const AlignedBuffer<float>& weights)
      : problem(sample_problem()),
        input(static_cast<std::size_t>(problem.x.count())),
        output(static_cast<std::size_t>(problem.y.count()), true),
        weights_(weights.data()) {
    fill_random(input.data(), problem.x.count(), seed);
  }

  ServeRequest request() {
    ServeRequest req;
    req.problem = problem;
    req.input = input.data();
    req.weights = weights_;
    req.output = output.data();
    return req;
  }

  kernels::ConvProblem problem;
  AlignedBuffer<float> input;
  AlignedBuffer<float> output;
  const float* weights_;
};

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  return std::string(dir) + "/" + stem + "_" +
         std::to_string(static_cast<unsigned long long>(::getpid()));
}

class RequestTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::TraceRecorder::instance().set_enabled(true);
    telemetry::TraceRecorder::instance().clear();
  }
  void TearDown() override {
    telemetry::TraceRecorder::instance().set_enabled(false);
    telemetry::TraceRecorder::instance().clear();
    FaultInjector::instance().configure("");
  }
};

/// Serves `requests` same-shape requests through a server that holds its
/// batch window open, so they coalesce, and returns their tickets once the
/// server has drained.
std::vector<TicketPtr> serve_coalesced(int requests) {
  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions opts;
  opts.queue_capacity = 64;
  opts.batch_window_us = 300;  // hold batches open: force coalescing
  opts.max_batch = 8;
  Server server(handle, opts);

  AlignedBuffer<float> weights(
      static_cast<std::size_t>(sample_problem().w.count()));
  fill_random(weights.data(), sample_problem().w.count(), 7);

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < requests; ++i) {
    clients.push_back(
        std::make_unique<Client>(static_cast<std::uint64_t>(i) + 1, weights));
    tickets.push_back(server.submit(clients.back()->request()));
  }
  for (const TicketPtr& ticket : tickets) {
    EXPECT_EQ(ticket->wait(), Status::kSuccess);
  }
  server.drain();
  return tickets;
}

TEST_F(RequestTraceTest, CoalescedRunYieldsCompleteTimelinePerRequest) {
  constexpr int kRequests = 24;
  const std::vector<TicketPtr> tickets = serve_coalesced(kRequests);

  // Every ticket got a distinct non-zero trace id.
  std::map<std::uint64_t, int> ids;
  for (const TicketPtr& ticket : tickets) {
    ASSERT_NE(ticket->trace_id(), 0u);
    ++ids[ticket->trace_id()];
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kRequests));

  // Reconstruct each request's timeline from the recorded spans.
  const std::vector<telemetry::SpanEvent> events =
      telemetry::TraceRecorder::instance().events();
  struct Timeline {
    const telemetry::SpanEvent* admit = nullptr;
    const telemetry::SpanEvent* queue = nullptr;
    const telemetry::SpanEvent* exec = nullptr;
    const telemetry::SpanEvent* resolve = nullptr;
  };
  std::map<std::uint64_t, Timeline> timelines;
  std::vector<const telemetry::SpanEvent*> batch_spans;
  for (const telemetry::SpanEvent& event : events) {
    if (event.name == "serve_batch") batch_spans.push_back(&event);
    if (event.trace_id == 0 || ids.find(event.trace_id) == ids.end()) continue;
    Timeline& tl = timelines[event.trace_id];
    if (event.name == "serve_admit") tl.admit = &event;
    if (event.name == "serve_queue") tl.queue = &event;
    if (event.name == "serve_exec_request") tl.exec = &event;
    if (event.name == "serve_resolve") tl.resolve = &event;
  }

  ASSERT_EQ(timelines.size(), static_cast<std::size_t>(kRequests));
  for (const TicketPtr& ticket : tickets) {
    const std::uint64_t id = ticket->trace_id();
    SCOPED_TRACE("trace id " + std::to_string(id));
    const Timeline& tl = timelines[id];
    ASSERT_NE(tl.admit, nullptr);
    ASSERT_NE(tl.queue, nullptr);
    ASSERT_NE(tl.exec, nullptr);
    ASSERT_NE(tl.resolve, nullptr);
    // The queue span starts at submit time and ends at batch pickup; the
    // exec window starts at or after pickup; resolution comes last.
    EXPECT_LE(tl.queue->ts_us, tl.admit->ts_us + 1.0);
    EXPECT_GE(tl.exec->ts_us + 1e-3, tl.queue->ts_us);
    EXPECT_GE(tl.resolve->ts_us + 1e-3, tl.exec->ts_us);
    EXPECT_EQ(tl.resolve->detail, "UCUDNN_STATUS_SUCCESS");
  }

  // The merged-batch spans carry their member trace ids, and with a held
  // batch window at least one batch actually coalesced several requests.
  ASSERT_FALSE(batch_spans.empty());
  std::size_t members_seen = 0;
  for (const TicketPtr& ticket : tickets) {
    const std::string needle = std::to_string(ticket->trace_id());
    bool found = false;
    for (const telemetry::SpanEvent* span : batch_spans) {
      ASSERT_NE(span->detail.find("members=["), std::string::npos);
      const std::size_t list = span->detail.find("members=[");
      if (span->detail.find(needle, list) != std::string::npos) {
        found = true;
        break;
      }
    }
    if (found) ++members_seen;
  }
  EXPECT_EQ(members_seen, static_cast<std::size_t>(kRequests));
  EXPECT_LT(batch_spans.size(), static_cast<std::size_t>(kRequests))
      << "batch window held open should coalesce at least once";

  // The Chrome export is valid JSON and carries every request's trace id as
  // a span argument, which is what tools/request_timelines.py groups by.
  const std::string json = telemetry::TraceRecorder::instance().to_json();
  EXPECT_TRUE(ucudnn::test::JsonValidator(json).validate());
  for (const TicketPtr& ticket : tickets) {
    EXPECT_NE(json.find("\"trace\":" + std::to_string(ticket->trace_id())),
              std::string::npos);
  }
}

TEST_F(RequestTraceTest, FaultFireDumpsFlightRecorder) {
  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::instance();
  const std::string path = temp_path("fault_flight_dump");
  const std::string old_path = flight.dump_path();
  const bool was_armed = flight.is_armed();
  flight.set_dump_path(path);
  flight.set_armed(true);
  const std::uint64_t dumps_before = flight.dump_count();

  // One transient execution fault; the serve retry ladder absorbs it.
  FaultInjector::instance().configure("serve.exec:every=1,count=1");

  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions opts;
  opts.queue_capacity = 8;
  opts.retry_backoff_us = 10;
  Server server(handle, opts);
  AlignedBuffer<float> weights(
      static_cast<std::size_t>(sample_problem().w.count()));
  fill_random(weights.data(), sample_problem().w.count(), 7);
  Client client(3, weights);
  EXPECT_EQ(server.submit(client.request())->wait(), Status::kSuccess);
  server.drain();

  EXPECT_GT(flight.dump_count(), dumps_before);
  const Server::Counters counters = server.counters();
  EXPECT_EQ(counters.retried, 1u);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "fault fire should have dumped " << path;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  EXPECT_TRUE(ucudnn::test::JsonValidator(text).validate());
  EXPECT_NE(text.find("\"schema\":\"ucudnn-flight-v1\""), std::string::npos);
  EXPECT_NE(text.find("serve.exec"), std::string::npos);  // the fault event

  flight.set_armed(was_armed);
  flight.set_dump_path(old_path);
  std::remove(path.c_str());
}

// Run by the request_trace_export_run ctest with UCUDNN_TRACE_FILE set: the
// recorder enables itself from the env and writes the Chrome trace at exit,
// and request_trace_export_check runs tools/request_timelines.py over it to
// check that every admitted request left a complete timeline. A plain TEST,
// not the fixture: its TearDown clears the recorder before exit.
TEST(RequestTraceExportScenario, ServesThroughTheEnvEnabledRecorder) {
  const char* trace_file = std::getenv("UCUDNN_TRACE_FILE");
  if (trace_file == nullptr) {
    GTEST_SKIP() << "UCUDNN_TRACE_FILE not set; exercised by the "
                    "request_trace_export_run ctest";
  }
  // A trace left by an earlier run must not stand in for this one's.
  std::remove(trace_file);
  ASSERT_TRUE(telemetry::TraceRecorder::instance().enabled());
  serve_coalesced(12);
}

// Run by the obs_fault_dump_env ctest with UCUDNN_FAULTS and
// UCUDNN_FLIGHT_FILE in the environment: the singleton arms itself from the
// env, the fault schedule fires mid-serve, and the automatic dump lands
// without any programmatic arming — the path a production incident takes.
TEST_F(RequestTraceTest, DumpOnFaultEnv) {
  const char* faults = std::getenv("UCUDNN_FAULTS");
  const char* flight_file = std::getenv("UCUDNN_FLIGHT_FILE");
  if (faults == nullptr || flight_file == nullptr) {
    GTEST_SKIP() << "UCUDNN_FAULTS/UCUDNN_FLIGHT_FILE not set; exercised by "
                    "the obs_fault_dump_env ctest";
  }
  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::instance();
  ASSERT_TRUE(flight.is_armed());
  const std::uint64_t dumps_before = flight.dump_count();

  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions opts;
  opts.queue_capacity = 8;
  opts.retry_backoff_us = 10;
  Server server(handle, opts);
  AlignedBuffer<float> weights(
      static_cast<std::size_t>(sample_problem().w.count()));
  fill_random(weights.data(), sample_problem().w.count(), 7);
  Client client(5, weights);
  const Status status = server.submit(client.request())->wait();
  server.drain();
  EXPECT_TRUE(status == Status::kSuccess || status == Status::kExecutionFailed);
  EXPECT_GT(flight.dump_count(), dumps_before);
  std::FILE* f = std::fopen(flight_file, "rb");
  EXPECT_NE(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

}  // namespace
}  // namespace ucudnn
