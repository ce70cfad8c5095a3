// Tests for the telemetry layer: metrics registry semantics, histogram
// percentile math and concurrent exactness, spans as flight-recorder events
// (nesting, thread attribution under the real-thread executor, trace ids,
// drop-when-frozen), Chrome-trace JSON validity, the predicted-vs-observed
// drift join, and the disabled-mode guarantee that instrumentation never
// perturbs numeric results.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "duet/engine.hpp"
#include "models/model_zoo.hpp"
#include "runtime/executor.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/drift.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"
#include "telemetry/trace_export.hpp"

namespace duet {
namespace {

// Fresh global state for every test: zeroed metrics, empty flight rings.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::MetricsRegistry::instance().reset();
    telemetry::FlightRecorder::instance().clear();
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::FlightRecorder::instance().unfreeze();
    telemetry::FlightRecorder::instance().clear();
    telemetry::MetricsRegistry::instance().reset();
  }
};

// One span decoded from its kSpan ring event.
struct CollectedSpan {
  telemetry::SpanLabel label;
  uint32_t tid = 0;
  int depth = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  uint64_t trace_id = 0;
};

// Every span in the rings, oldest start first.
std::vector<CollectedSpan> collect_spans() {
  std::vector<CollectedSpan> spans;
  for (const telemetry::FlightEvent& e :
       telemetry::FlightRecorder::instance().collect()) {
    if (e.kind != telemetry::FlightKind::kSpan) continue;
    spans.push_back({telemetry::span_label(e.arg1), e.tid, e.depth, e.t_us,
                     static_cast<double>(e.arg0) / 1e3, e.trace_id});
  }
  return spans;
}

size_t count_of(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// The "dur" of the first slice named `name` in a rendered trace.
double slice_duration(const std::string& trace, const std::string& name) {
  const size_t at = trace.find("{\"name\":\"" + name + "\"");
  if (at == std::string::npos) return -1.0;
  const size_t dur = trace.find("\"dur\":", at);
  return std::strtod(trace.c_str() + dur + 6, nullptr);
}

// A LogHistogram quantile is off by at most one bucket width: a quarter of
// the bucket's lower edge.
constexpr double kLogBucketRelErr =
    1.0 / telemetry::LogHistogram::kSubBucketsPerOctave;

TEST_F(TelemetryTest, DisabledByDefaultAndCountersAreGuarded) {
  EXPECT_FALSE(telemetry::enabled());
  telemetry::Counter& c = telemetry::counter("test.guarded");
  c.add(5);
  EXPECT_EQ(c.value(), 0u) << "disabled counter must not record";

  telemetry::ScopedTelemetry on(true);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, ResetPreservesRegisteredReferences) {
  telemetry::ScopedTelemetry on(true);
  telemetry::Counter& c = telemetry::counter("test.stable_ref");
  c.add(3);
  telemetry::MetricsRegistry::instance().reset();
  // The same reference stays valid and records again after reset.
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
  EXPECT_EQ(&telemetry::counter("test.stable_ref"), &c);
}

TEST_F(TelemetryTest, KindClashThrows) {
  telemetry::counter("test.kind_clash");
  EXPECT_THROW(telemetry::gauge("test.kind_clash"), std::runtime_error);
  EXPECT_THROW(telemetry::histogram("test.kind_clash"), std::runtime_error);
}

TEST_F(TelemetryTest, GaugeRecordMaxKeepsHighWatermark) {
  telemetry::ScopedTelemetry on(true);
  telemetry::Gauge& g = telemetry::gauge("test.watermark");
  g.record_max(10.0);
  g.record_max(4.0);
  g.record_max(25.0);
  EXPECT_DOUBLE_EQ(g.value(), 25.0);
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST_F(TelemetryTest, HistogramPercentilesOnKnownDistribution) {
  telemetry::ScopedTelemetry on(true);
  telemetry::SharedHistogram& shared = telemetry::histogram("test.uniform");
  for (int v = 1; v <= 100; ++v) shared.observe(static_cast<double>(v));
  const telemetry::LogHistogram h = shared.snapshot();

  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.observed_min(), 1.0);
  EXPECT_DOUBLE_EQ(h.observed_max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Quantiles land within one log bucket of the truth.
  EXPECT_NEAR(h.percentile(0.50), 50.0, 50.0 * kLogBucketRelErr);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 95.0 * kLogBucketRelErr);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 99.0 * kLogBucketRelErr);
  // Quantiles clamp to the observed range.
  EXPECT_GE(h.percentile(0.0), 1.0);
  EXPECT_LE(h.percentile(1.0), 100.0);
}

TEST_F(TelemetryTest, HistogramOverflowBucketAndReset) {
  telemetry::ScopedTelemetry on(true);
  telemetry::SharedHistogram& shared = telemetry::histogram("test.overflow");
  shared.observe(1e12);  // past the last finite bucket (2^38 us)
  const telemetry::LogHistogram h = shared.snapshot();
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket_count(telemetry::LogHistogram::kNumBuckets - 1), 1u);
  EXPECT_DOUBLE_EQ(h.observed_max(), 1e12);
  EXPECT_LE(h.percentile(0.99), 1e12);
  shared.reset();
  EXPECT_EQ(shared.snapshot().count(), 0u);
  EXPECT_DOUBLE_EQ(shared.snapshot().percentile(0.5), 0.0);
}

// Concurrent observers of one registry histogram: every sample lands, and
// min/max are exact even when the first samples race.
TEST_F(TelemetryTest, ConcurrentHistogramObserversAreExact) {
  telemetry::ScopedTelemetry on(true);
  telemetry::SharedHistogram& shared = telemetry::histogram("test.concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, t] {
      for (int i = 1; i <= kPerThread; ++i) {
        shared.observe(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const telemetry::LogHistogram h = shared.snapshot();
  constexpr double n = kThreads * kPerThread;
  EXPECT_EQ(h.count(), static_cast<uint64_t>(n));
  EXPECT_DOUBLE_EQ(h.sum(), n * (n + 1) / 2);  // integers: exact in any order
  EXPECT_DOUBLE_EQ(h.observed_min(), 1.0);
  EXPECT_DOUBLE_EQ(h.observed_max(), n);
}

TEST_F(TelemetryTest, SpanNestingDepthAndOrdering) {
  telemetry::ScopedTelemetry on(true);
  {
    telemetry::ScopedSpan outer("outer", "test");
    {
      telemetry::ScopedSpan inner("inner", "test", "annotation");
    }
  }
  std::vector<CollectedSpan> spans = collect_spans();
  ASSERT_EQ(spans.size(), 2u);
  // collect() sorts by start time: outer opened first.
  EXPECT_EQ(spans[0].label.name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].label.name, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].label.detail, "annotation");
  EXPECT_EQ(spans[1].label.category, "test");
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  EXPECT_GE(spans[0].dur_us, spans[1].dur_us);
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
  EXPECT_EQ(spans[0].trace_id, 0u) << "no request context, no trace id";
}

TEST_F(TelemetryTest, DisabledSpansRecordNothing) {
  {
    telemetry::ScopedSpan span("ghost", "test");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(telemetry::FlightRecorder::instance().recorded(), 0u);
}

TEST_F(TelemetryTest, FrozenRecorderDropsSpans) {
  telemetry::ScopedTelemetry on(true);
  telemetry::FlightRecorder& recorder = telemetry::FlightRecorder::instance();
  recorder.freeze();
  {
    telemetry::ScopedSpan span("frozen", "test");
    EXPECT_TRUE(span.active()) << "telemetry is on; the ring drops it";
  }
  recorder.unfreeze();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(collect_spans().empty());
}

// A span opened inside a request's TraceScope carries the request's trace
// id, so the renderer threads it onto the request's one flow arc.
TEST_F(TelemetryTest, SpanInsideTraceScopeJoinsTheRequestArc) {
  telemetry::ScopedTelemetry on(true);
  telemetry::FlightRecorder& recorder = telemetry::FlightRecorder::instance();
  constexpr uint64_t kTrace = 77;
  recorder.record(telemetry::FlightKind::kEnqueue, kTrace);
  std::thread worker([] {
    telemetry::TraceScope scope(kTrace);
    telemetry::ScopedSpan span("request", "serve", "model");
  });
  worker.join();
  recorder.record(telemetry::FlightKind::kComplete, kTrace);

  const std::vector<CollectedSpan> spans = collect_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].label.name, "request");
  EXPECT_EQ(spans[0].trace_id, kTrace);

  const std::string trace =
      telemetry::export_chrome_trace(recorder.collect(), nullptr);
  std::string err;
  EXPECT_TRUE(telemetry::validate_json(trace, &err)) << err;
  EXPECT_EQ(count_of(trace, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(count_of(trace, "\"ph\":\"t\""), 1u) << "the span is the step";
  EXPECT_EQ(count_of(trace, "\"ph\":\"f\""), 1u);
  EXPECT_EQ(count_of(trace, "\"id\":77,"), 3u);
}

// Spans and point events from two threads render into one valid document:
// spans keep their real durations and depths, point events are 1 us slices.
TEST_F(TelemetryTest, TwoThreadsRenderIntoOneDocument) {
  telemetry::ScopedTelemetry on(true);
  telemetry::FlightRecorder& recorder = telemetry::FlightRecorder::instance();
  const auto work = [&recorder](const std::string& name) {
    telemetry::ScopedSpan outer(name, "test");
    telemetry::ScopedSpan inner(name + "-inner", "test", "nested");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    recorder.record(telemetry::FlightKind::kSwap, 0, 1);
  };
  std::thread other(work, "other");
  work("main");
  other.join();

  const std::vector<CollectedSpan> spans = collect_spans();
  ASSERT_EQ(spans.size(), 4u);
  std::set<uint32_t> tids;
  for (const CollectedSpan& s : spans) {
    tids.insert(s.tid);
    const bool inner = s.label.name.find("-inner") != std::string::npos;
    EXPECT_EQ(s.depth, inner ? 1 : 0) << s.label.name;
    EXPECT_GE(s.dur_us, 2000.0) << s.label.name;
  }
  EXPECT_EQ(tids.size(), 2u);

  const std::vector<telemetry::FlightEvent> events = recorder.collect();
  const std::string trace = telemetry::export_chrome_trace(events, nullptr);
  std::string err;
  ASSERT_TRUE(telemetry::validate_json(trace, &err)) << err;
  EXPECT_EQ(count_of(trace, "\"cat\":\"test\""), 4u);
  EXPECT_EQ(count_of(trace, "\"name\":\"swap\""), 2u);
  EXPECT_EQ(count_of(trace, "\"depth\":1"), 2u);
  EXPECT_EQ(count_of(trace, "\"name\":\"thread_name\""), 2u);
  for (const CollectedSpan& s : spans) {
    EXPECT_NEAR(slice_duration(trace, s.label.name), s.dur_us,
                1e-5 * s.dur_us + 1e-3)
        << s.label.name;
  }
  EXPECT_DOUBLE_EQ(slice_duration(trace, "swap"), 1.0);
}

TEST_F(TelemetryTest, ThreadedExecutorSpansFromMultipleThreads) {
  telemetry::ScopedTelemetry on(true);
  Graph model = models::build_wide_deep(models::WideDeepConfig::tiny());
  DevicePair devices = make_default_device_pair(7);
  Partition partition = partition_phased(model);
  const size_t n = partition.subgraphs.size();
  ASSERT_GE(n, 2u);
  // Split placement so both workers execute subgraphs.
  Placement placement(n);
  for (size_t i = 0; i < n; ++i) {
    placement.set(static_cast<int>(i),
                  i % 2 == 0 ? DeviceKind::kCpu : DeviceKind::kGpu);
  }
  ExecutionPlan plan = ExecutionPlan::build(model, partition, placement,
                                            devices,
                                            CompileOptions::compiler_defaults());
  Rng rng(11);
  const auto feeds = models::make_random_feeds(model, rng);
  ThreadedExecutor executor(devices);
  ExecutionResult result = executor.run(plan, feeds);
  ASSERT_FALSE(result.outputs.empty());

  std::set<uint32_t> exec_tids;
  size_t exec_spans = 0;
  for (const CollectedSpan& s : collect_spans()) {
    if (s.label.category != "exec") continue;
    exec_tids.insert(s.tid);
    if (s.label.name.rfind("worker:", 0) != 0) ++exec_spans;
  }
  EXPECT_GE(exec_tids.size(), 2u) << "both workers should record spans";
  EXPECT_EQ(exec_spans, n) << "one exec span per planned subgraph";
  EXPECT_GT(telemetry::counter("executor.threaded.launches").value(), 0u);
  EXPECT_GT(telemetry::counter("executor.threaded.transfers").value(), 0u);
  EXPECT_GT(
      telemetry::histogram("executor.threaded.queue_wait_us").snapshot().count(),
      0u);
}

TEST_F(TelemetryTest, JsonEscapeAndNumber) {
  EXPECT_EQ(telemetry::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(telemetry::json_escape(std::string("x\x01y", 3)), "x\\u0001y");
  EXPECT_EQ(telemetry::json_number(1.5), "1.5");
  EXPECT_EQ(telemetry::json_number(0.0 / 0.0), "0");  // NaN stays valid JSON
}

TEST_F(TelemetryTest, ValidateJsonAcceptsAndRejects) {
  std::string err;
  EXPECT_TRUE(telemetry::validate_json("{\"a\":[1,2.5,\"x\",true,null]}", &err))
      << err;
  EXPECT_FALSE(telemetry::validate_json("{", &err));
  EXPECT_FALSE(telemetry::validate_json("[1,2,}", &err));
  EXPECT_FALSE(telemetry::validate_json("{} trailing", &err));
  EXPECT_FALSE(telemetry::validate_json("", &err));
}

TEST_F(TelemetryTest, ChromeTraceExportIsValidJson) {
  telemetry::ScopedTelemetry on(true);
  {
    // Hostile characters must survive the escaping path.
    telemetry::ScopedSpan span("quote\"back\\slash", "exec", "line\nbreak");
  }
  Graph model = models::build_wide_deep(models::WideDeepConfig::tiny());
  DevicePair devices = make_default_device_pair(7);
  Partition partition = partition_phased(model);
  Placement placement(partition.subgraphs.size(), DeviceKind::kCpu);
  ExecutionPlan plan = ExecutionPlan::build(model, partition, placement,
                                            devices,
                                            CompileOptions::compiler_defaults());
  Rng rng(3);
  const auto feeds = models::make_random_feeds(model, rng);
  SimExecutor executor(devices);
  ExecutionResult result = executor.run(plan, feeds, false);

  const std::vector<telemetry::FlightEvent> events =
      telemetry::FlightRecorder::instance().collect();
  ASSERT_FALSE(events.empty());
  const std::string merged =
      telemetry::export_chrome_trace(events, &result.timeline);
  std::string err;
  EXPECT_TRUE(telemetry::validate_json(merged, &err)) << err;
  // Both halves are present: wall-clock pid and the modeled CPU pid.
  EXPECT_NE(merged.find("\"pid\":10"), std::string::npos);
  EXPECT_NE(merged.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(merged.find("CPU (modeled)"), std::string::npos);

  // The standalone Timeline export rides the same writer and stays valid.
  EXPECT_TRUE(telemetry::validate_json(result.timeline.to_chrome_trace(), &err))
      << err;
}

TEST_F(TelemetryTest, DriftJoinMatchesSimObservation) {
  telemetry::ScopedTelemetry on(true);
  DuetOptions options;
  options.enable_fallback = false;
  DuetEngine engine(models::build_wide_deep(models::WideDeepConfig::tiny()),
                    options);
  Rng rng(5);
  const auto feeds = models::make_random_feeds(engine.model(), rng);
  ExecutionResult sim = engine.infer(feeds);

  const DriftReport report = compute_drift(
      "tiny-wd", "sim", engine.partition(), engine.plan().placement(),
      engine.report().profiles, sim.timeline,
      engine.report().schedule.est_latency_s, sim.latency_s);

  ASSERT_EQ(report.entries.size(), engine.partition().subgraphs.size());
  for (const DriftEntry& e : report.entries) {
    EXPECT_GT(e.est_s, 0.0);
    EXPECT_GT(e.observed_s, 0.0) << "subgraph " << e.subgraph
                                 << " has no exec event";
    // The sim executor replays the same modeled costs the scheduler used, so
    // per-subgraph skew must be small (noise-free run).
    EXPECT_LT(std::abs(e.rel_err()), 0.10) << report.to_string();
  }
  EXPECT_LT(std::abs(report.total_rel_err()), 0.10) << report.to_string();
  EXPECT_GE(report.max_abs_rel_err(), report.mean_abs_rel_err());

  std::string err;
  EXPECT_TRUE(telemetry::validate_json(report.to_json(), &err)) << err;
}

TEST_F(TelemetryTest, MetricsToJsonIsValid) {
  telemetry::ScopedTelemetry on(true);
  telemetry::counter("test.json_counter").add(2);
  telemetry::gauge("test.json_gauge").set(1.25);
  telemetry::histogram("test.json_hist").observe(42.0);
  const std::string doc = telemetry::MetricsRegistry::instance().to_json();
  std::string err;
  EXPECT_TRUE(telemetry::validate_json(doc, &err)) << err;
  EXPECT_NE(doc.find("test.json_counter"), std::string::npos);
}

TEST_F(TelemetryTest, DisabledModeLeavesExecutorOutputsIdentical) {
  Graph model = models::build_wide_deep(models::WideDeepConfig::tiny());
  DevicePair devices = make_default_device_pair(13);
  Partition partition = partition_phased(model);
  const size_t n = partition.subgraphs.size();
  Placement placement(n);
  for (size_t i = 0; i < n; ++i) {
    placement.set(static_cast<int>(i),
                  i % 2 == 0 ? DeviceKind::kGpu : DeviceKind::kCpu);
  }
  ExecutionPlan plan = ExecutionPlan::build(model, partition, placement,
                                            devices,
                                            CompileOptions::compiler_defaults());
  Rng rng(17);
  const auto feeds = models::make_random_feeds(model, rng);
  SimExecutor executor(devices);

  ExecutionResult off = executor.run(plan, feeds, false);
  ExecutionResult on_result;
  {
    telemetry::ScopedTelemetry on(true);
    on_result = executor.run(plan, feeds, false);
  }
  ASSERT_EQ(off.outputs.size(), on_result.outputs.size());
  for (size_t i = 0; i < off.outputs.size(); ++i) {
    // Bit-identical: telemetry must never touch the numeric path.
    EXPECT_TRUE(Tensor::allclose(off.outputs[i], on_result.outputs[i], 0.0f, 0.0f));
  }
  EXPECT_DOUBLE_EQ(off.latency_s, on_result.latency_s);
}

TEST_F(TelemetryTest, ParseLogLevelSpecs) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::kWarn), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO", LogLevel::kWarn), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warning", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error", LogLevel::kWarn), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off", LogLevel::kWarn), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("3", LogLevel::kWarn), LogLevel::kError);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("", LogLevel::kError), LogLevel::kError);
}

TEST_F(TelemetryTest, LogWarningsFeedCountersEvenWhenSilenced) {
  telemetry::ScopedTelemetry on(true);
  const LogLevel before = Logger::level();
  Logger::set_level(LogLevel::kOff);  // nothing printed...
  DUET_LOG_WARN << "synthetic warning";
  DUET_LOG_ERROR << "synthetic error";
  DUET_LOG_INFO << "info is not counted";
  Logger::set_level(before);
  // ...but the counters still saw both.
  EXPECT_EQ(telemetry::counter("log.warnings").value(), 1u);
  EXPECT_EQ(telemetry::counter("log.errors").value(), 1u);
}

}  // namespace
}  // namespace duet
