// Tests for the serving observability layer: the always-on flight recorder
// (ring semantics, ring reuse across threads, freeze handshake, dump
// artifacts and dump failures), dump triggers, the log-scale histogram +
// sliding-window SLO monitor, request trace context, and the Prometheus text
// exposition.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "telemetry/chrome_trace.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/slo_monitor.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"
#include "telemetry/trace_export.hpp"

namespace duet::telemetry {
namespace {

using Kind = FlightKind;

// The recorder is process-global; tests reset it around themselves so they
// stay order-independent within this binary.
struct RecorderReset {
  RecorderReset() {
    FlightRecorder::instance().set_recording_enabled(true);
    FlightRecorder::instance().unfreeze();
    FlightRecorder::instance().set_ring_capacity(4096);
    FlightRecorder::instance().clear();
  }
  ~RecorderReset() {
    FlightRecorder::instance().set_recording_enabled(true);
    FlightRecorder::instance().unfreeze();
    FlightRecorder::instance().set_ring_capacity(4096);
    FlightRecorder::instance().clear();
  }
};

// ---------------------------------------------------------------------------
// Flight recorder rings

TEST(FlightRecorder, RingOverwritesOldestWhenFull) {
  RecorderReset reset;
  FlightRecorder& rec = FlightRecorder::instance();
  rec.set_ring_capacity(8);
  for (uint64_t i = 1; i <= 20; ++i) {
    rec.record(Kind::kLaunch, /*trace_id=*/i, /*arg0=*/i);
  }
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);
  const std::vector<FlightEvent> events = rec.collect();
  ASSERT_EQ(events.size(), 8u) << "only the newest capacity-many survive";
  for (const FlightEvent& e : events) {
    EXPECT_GE(e.trace_id, 13u) << "the oldest events must be the ones lost";
  }
}

TEST(FlightRecorder, FrozenRecorderDropsEvents) {
  RecorderReset reset;
  FlightRecorder& rec = FlightRecorder::instance();
  rec.record(Kind::kEnqueue, 1);
  EXPECT_EQ(rec.recorded(), 1u);
  rec.freeze();
  EXPECT_TRUE(rec.frozen());
  rec.record(Kind::kEnqueue, 2);
  EXPECT_EQ(rec.recorded(), 1u) << "a frozen ring must not move";
  rec.unfreeze();
  rec.record(Kind::kEnqueue, 3);
  EXPECT_EQ(rec.recorded(), 2u);
}

TEST(FlightRecorder, DisabledRecorderDropsEvents) {
  RecorderReset reset;
  FlightRecorder& rec = FlightRecorder::instance();
  EXPECT_TRUE(rec.recording_enabled()) << "always-on is the default";
  rec.set_recording_enabled(false);
  rec.record(Kind::kEnqueue, 1);
  EXPECT_EQ(rec.recorded(), 0u);
  rec.set_recording_enabled(true);
  rec.record(Kind::kEnqueue, 1);
  EXPECT_EQ(rec.recorded(), 1u);
}

TEST(FlightRecorder, CollectMergesThreadsOldestFirst) {
  RecorderReset reset;
  FlightRecorder& rec = FlightRecorder::instance();
  rec.record(Kind::kEnqueue, 7);
  std::thread worker([&rec] { rec.record(Kind::kPickup, 7); });
  worker.join();
  rec.record(Kind::kComplete, 7);
  const std::vector<FlightEvent> events = rec.collect();
  ASSERT_GE(events.size(), 3u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t_us, events[i - 1].t_us);
  }
  FlightDumpSummary summary;
  summarize_flight_events(events, &summary);
  EXPECT_GE(summary.threads, 2u) << "the worker's ring must be collected too";
}

TEST(FlightRecorder, DumpWritesValidatedArtifacts) {
  RecorderReset reset;
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "duet-flight-dump";
  fs::remove_all(dir);

  FlightRecorder& rec = FlightRecorder::instance();
  // One full request path plus an unrelated swap.
  rec.record(Kind::kEnqueue, 42, /*arg0=*/0);
  rec.record(Kind::kPickup, 42, /*arg0=*/5);
  rec.record(Kind::kLaunch, 42, /*arg0=*/0, /*arg1=*/1000, /*device=*/0);
  rec.record(Kind::kComplete, 42, /*arg0=*/1, /*arg1=*/250);
  rec.record(Kind::kSwap, 0, /*arg0=*/2);

  const FlightDumpSummary summary = rec.dump(dir.string(), "test-reason");
  EXPECT_FALSE(rec.frozen()) << "dump must unfreeze on the way out";
  EXPECT_EQ(summary.reason, "test-reason");
  EXPECT_EQ(summary.events, 5u);
  EXPECT_EQ(summary.complete_paths, 1u);
  EXPECT_EQ(summary.kind_counts[static_cast<int>(Kind::kLaunch)], 1u);
  EXPECT_EQ(summary.kind_counts[static_cast<int>(Kind::kSwap)], 1u);
  ASSERT_TRUE(fs::exists(summary.trace_path));
  ASSERT_TRUE(fs::exists(summary.summary_path));

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  std::string err;
  const std::string trace = slurp(summary.trace_path);
  EXPECT_TRUE(validate_json(trace, &err)) << err;
  EXPECT_NE(trace.find("duet (wall clock)"), std::string::npos);
  const std::string summary_text = slurp(summary.summary_path);
  EXPECT_TRUE(validate_json(summary_text, &err)) << err;
  EXPECT_NE(summary_text.find("\"complete_paths\":1"), std::string::npos);
  EXPECT_NE(summary_text.find("\"example_path\":[{"), std::string::npos);
  fs::remove_all(dir);
}

// A dump that cannot be written reports no files and leaves none behind.
TEST(FlightRecorder, DumpUnderARegularFileReportsNoFiles) {
  RecorderReset reset;
  namespace fs = std::filesystem;
  const fs::path file = fs::path(::testing::TempDir()) / "duet-flight-not-a-dir";
  fs::remove_all(file);
  std::ofstream(file) << "x";
  FlightRecorder& rec = FlightRecorder::instance();
  rec.record(Kind::kEnqueue, 1);

  const FlightDumpSummary summary = rec.dump((file / "sub").string(), "r");
  EXPECT_TRUE(summary.trace_path.empty());
  EXPECT_TRUE(summary.summary_path.empty());
  EXPECT_FALSE(rec.frozen()) << "a failed dump must unfreeze too";
  EXPECT_EQ(summary.events, 1u) << "the summary itself is still computed";
  fs::remove_all(file);
}

// A ring outlives its thread: an exited thread's ring goes to a LIFO free
// list and the next new recording thread takes it over, head and all. Eight
// threads joined one after another therefore share one ring of capacity 4.
TEST(FlightRecorder, ExitedThreadRingsAreReused) {
  RecorderReset reset;
  FlightRecorder& rec = FlightRecorder::instance();
  rec.set_ring_capacity(4);
  for (uint64_t i = 1; i <= 8; ++i) {
    std::thread([&rec, i] { rec.record(Kind::kLaunch, i); }).join();
  }
  EXPECT_EQ(rec.recorded(), 8u);
  EXPECT_EQ(rec.overwritten(), 4u) << "one shared ring wrapped";
  const std::vector<FlightEvent> events = rec.collect();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].trace_id, 5u + i) << "the newest four survive";
  }
  EXPECT_NE(events.front().tid, events.back().tid)
      << "each event keeps the id of the thread that wrote it";
}

TEST(FlightTrace, FlowEventsConnectTheRequestArc) {
  // Two events for one request on different threads: the trace must carry a
  // flow start ("s") and finish ("f") binding the arc, with bp:"e" on the
  // non-start step.
  std::vector<FlightEvent> events(2);
  events[0].t_us = 10.0;
  events[0].trace_id = 99;
  events[0].tid = 1;
  events[0].kind = Kind::kEnqueue;
  events[1].t_us = 20.0;
  events[1].trace_id = 99;
  events[1].tid = 2;
  events[1].kind = Kind::kComplete;
  const std::string trace = export_chrome_trace(events, nullptr);
  std::string err;
  EXPECT_TRUE(validate_json(trace, &err)) << err;
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(trace.find("\"bp\":\"e\""), std::string::npos);

  // A lone event has no arc: no flow phases at all.
  events.resize(1);
  const std::string lone = export_chrome_trace(events, nullptr);
  EXPECT_EQ(lone.find("\"ph\":\"s\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Dump triggers

TEST(DumpTrigger, MissBurstFiresOnceWithinWindow) {
  DumpTriggerConfig cfg;
  cfg.miss_burst = 3;
  cfg.miss_window_ms = 100.0;
  DumpTrigger trigger(cfg);
  EXPECT_FALSE(trigger.on_deadline_miss(0.0));
  EXPECT_FALSE(trigger.on_deadline_miss(10e3));
  EXPECT_TRUE(trigger.on_deadline_miss(20e3)) << "third miss inside 100 ms";
  EXPECT_TRUE(trigger.fired());
  EXPECT_FALSE(trigger.on_deadline_miss(21e3)) << "fire-once";
  trigger.reset();
  EXPECT_FALSE(trigger.fired());
}

TEST(DumpTrigger, SpreadOutMissesNeverFire) {
  DumpTriggerConfig cfg;
  cfg.miss_burst = 3;
  cfg.miss_window_ms = 100.0;
  DumpTrigger trigger(cfg);
  // One miss every 200 ms: the 100 ms window never holds more than one.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(trigger.on_deadline_miss(i * 200e3));
  }
  EXPECT_FALSE(trigger.fired());
}

TEST(DumpTrigger, ShedRateFiresOverRecentOutcomes) {
  DumpTriggerConfig cfg;
  cfg.shed_rate = 0.5;
  cfg.rate_window = 8;
  DumpTrigger trigger(cfg);
  bool fired = false;
  for (int i = 0; i < 4; ++i) fired |= trigger.on_outcome(/*shed=*/false);
  EXPECT_FALSE(fired) << "healthy traffic must not fire";
  for (int i = 0; i < 4; ++i) fired |= trigger.on_outcome(/*shed=*/true);
  EXPECT_TRUE(fired) << "4/8 recent outcomes shed reaches the 0.5 threshold";
}

TEST(DumpTrigger, DisabledConfigNeverFires) {
  DumpTrigger trigger;  // both thresholds zero
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(trigger.on_deadline_miss(i * 1e3));
    EXPECT_FALSE(trigger.on_outcome(true));
  }
  EXPECT_FALSE(trigger.fired());
}

TEST(FlightSignal, InstallRetargetsDumpDirectory) {
  install_signal_dump("/tmp/duet-signal-a");
  EXPECT_EQ(signal_dump_dir(), "/tmp/duet-signal-a");
  install_signal_dump("/tmp/duet-signal-b");
  EXPECT_EQ(signal_dump_dir(), "/tmp/duet-signal-b");
}

// ---------------------------------------------------------------------------
// Log-scale histogram

TEST(LogHistogram, PercentilesWithinBucketResolution) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.observed_min(), 1.0);
  EXPECT_DOUBLE_EQ(h.observed_max(), 1000.0);
  // 4 sub-buckets per octave bounds relative error to ~2^(1/4)-1 ≈ 19%,
  // interpolation does much better in practice; allow 20%.
  EXPECT_NEAR(h.percentile(0.5), 500.0, 100.0);
  EXPECT_NEAR(h.percentile(0.99), 990.0, 200.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
}

TEST(LogHistogram, MergeEqualsUnion) {
  LogHistogram a;
  LogHistogram b;
  LogHistogram both;
  for (int i = 1; i <= 100; ++i) {
    a.observe(static_cast<double>(i));
    both.observe(static_cast<double>(i));
  }
  for (int i = 1000; i <= 1100; ++i) {
    b.observe(static_cast<double>(i));
    both.observe(static_cast<double>(i));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  EXPECT_DOUBLE_EQ(a.percentile(0.5), both.percentile(0.5));
  EXPECT_DOUBLE_EQ(a.observed_max(), both.observed_max());
}

TEST(LogHistogram, BucketIndexIsMonotonic) {
  int prev = -1;
  for (double v : {1e-3, 0.5, 1.0, 2.0, 3.0, 1e3, 1e6, 1e9, 1e12}) {
    const int idx = LogHistogram::bucket_index(v);
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, LogHistogram::kNumBuckets);
    EXPECT_GE(idx, prev) << "bucket index must not decrease with v=" << v;
    prev = idx;
  }
  // Each value lands inside its bucket bounds.
  const int idx = LogHistogram::bucket_index(100.0);
  EXPECT_LE(LogHistogram::bucket_lower(idx), 100.0);
  EXPECT_GT(LogHistogram::bucket_upper(idx), 100.0);
}

TEST(LogHistogram, EmptyAndClear) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
  h.observe(5.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// Sliding-window SLO monitor (synthetic clock: microseconds)

TEST(SloMonitor, SnapshotAggregatesTheWindow) {
  SloMonitor mon(/*window_s=*/10.0, /*buckets=*/10);
  const double t0 = 1e6;
  mon.record_offered(t0);
  mon.record_offered(t0);
  mon.record_offered(t0);
  mon.record_completed(t0, /*latency_us=*/1000.0, /*breach=*/false);
  mon.record_completed(t0, /*latency_us=*/2000.0, /*breach=*/true);
  mon.record_shed(t0);
  mon.record_queue_wait(t0, 500.0);
  mon.record_queue_depth(t0, 4.0);
  mon.record_plan_version(t0, 3);

  const SloSnapshot s = mon.snapshot(t0);
  EXPECT_EQ(s.offered, 3u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.breaches, 2u) << "one breached completion + one shed";
  EXPECT_NEAR(s.shed_rate, 1.0 / 3.0, 1e-12);
  EXPECT_GT(s.latency_p50_us, 0.0);
  EXPECT_LE(s.latency_p50_us, s.latency_p99_us);
  EXPECT_NEAR(s.mean_queue_depth, 4.0, 1e-12);
  EXPECT_EQ(s.plan_version, 3u);
}

TEST(SloMonitor, WindowForgetsOldBuckets) {
  SloMonitor mon(/*window_s=*/10.0, /*buckets=*/10);
  mon.record_offered(1e6);
  mon.record_completed(1e6, 100.0, false);
  EXPECT_EQ(mon.snapshot(1e6).offered, 1u);
  // 5 seconds later the events are still inside the 10 s window...
  EXPECT_EQ(mon.snapshot(6e6).offered, 1u);
  // ...but 100 seconds later every bucket is stale.
  const SloSnapshot late = mon.snapshot(101e6);
  EXPECT_EQ(late.offered, 0u);
  EXPECT_EQ(late.completed, 0u);
  EXPECT_DOUBLE_EQ(late.latency_p50_us, 0.0);
}

TEST(SloMonitor, BucketReuseZeroesStaleCounts) {
  SloMonitor mon(/*window_s=*/2.0, /*buckets=*/2);  // 1 s buckets
  mon.record_offered(0.5e6);   // epoch 0
  mon.record_offered(1.5e6);   // epoch 1
  mon.record_offered(2.5e6);   // epoch 2 — reuses epoch-0's slot
  const SloSnapshot s = mon.snapshot(2.5e6);
  EXPECT_EQ(s.offered, 2u) << "epoch 0 left the window when its slot was "
                              "reused; epochs 1 and 2 remain";
}

// ---------------------------------------------------------------------------
// Trace context

TEST(TraceContext, ScopeSetsAndRestores) {
  EXPECT_EQ(current_trace_id(), 0u);
  {
    TraceScope outer(7);
    EXPECT_EQ(current_trace_id(), 7u);
    {
      TraceScope inner(9);
      EXPECT_EQ(current_trace_id(), 9u);
    }
    EXPECT_EQ(current_trace_id(), 7u) << "inner scope must restore outer id";
  }
  EXPECT_EQ(current_trace_id(), 0u);
}

TEST(TraceContext, IsPerThread) {
  TraceScope scope(11);
  uint64_t seen = 99;
  std::thread t([&seen] { seen = current_trace_id(); });
  t.join();
  EXPECT_EQ(seen, 0u) << "a new thread starts with no request context";
  EXPECT_EQ(current_trace_id(), 11u);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(prometheus_name("serve.shed"), "duet_serve_shed");
  EXPECT_EQ(prometheus_name("a-b.c d"), "duet_a_b_c_d");
  EXPECT_EQ(prometheus_name("ok_name"), "duet_ok_name");
}

TEST(Prometheus, ExposesCounterGaugeHistogram) {
  ScopedTelemetry on(true);
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.reset();
  counter("promtest.hits").add(3);
  gauge("promtest.depth").set(2.5);
  SharedHistogram& h = histogram("promtest.latency_us");
  h.observe(5.0);
  h.observe(50.0);
  h.observe(5000.0);

  const std::string text = to_prometheus_text(reg);
  EXPECT_NE(text.find("# TYPE duet_promtest_hits counter"), std::string::npos);
  EXPECT_NE(text.find("duet_promtest_hits 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE duet_promtest_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("duet_promtest_depth 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE duet_promtest_latency_us histogram"),
            std::string::npos);
  // Cumulative log buckets (le = bucket upper bounds): le="10" holds 1,
  // le="64" holds 2, le="1024" still 2, +Inf equals _count.
  EXPECT_NE(text.find("duet_promtest_latency_us_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("duet_promtest_latency_us_bucket{le=\"64\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("duet_promtest_latency_us_bucket{le=\"1024\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("duet_promtest_latency_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("duet_promtest_latency_us_count 3"), std::string::npos);
  // One fixed le set: every LogHistogram bucket, the overflow one as +Inf.
  size_t buckets = 0;
  for (size_t at = text.find("duet_promtest_latency_us_bucket{");
       at != std::string::npos;
       at = text.find("duet_promtest_latency_us_bucket{", at + 1)) {
    ++buckets;
  }
  EXPECT_EQ(buckets, static_cast<size_t>(LogHistogram::kNumBuckets));
  reg.reset();
}

// `le` is inclusive: a sample exactly on a bucket bound counts at that le.
TEST(Prometheus, SampleOnABoundCountsAtThatLe) {
  ScopedTelemetry on(true);
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.reset();
  SharedHistogram& h = histogram("promtest.batch");
  h.observe(1.0);
  h.observe(2.0);
  const std::string text = to_prometheus_text(reg);
  EXPECT_NE(text.find("duet_promtest_batch_bucket{le=\"0.875\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("duet_promtest_batch_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("duet_promtest_batch_bucket{le=\"1.75\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("duet_promtest_batch_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  reg.reset();
}

TEST(Prometheus, EveryLineIsWellFormed) {
  ScopedTelemetry on(true);
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.reset();
  counter("promtest.grammar").add(1);
  const std::string text = to_prometheus_text(reg);
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << "bad comment line: " << line;
    } else {
      // <name or name{labels}> SP <value>
      const size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      const std::string value = line.substr(space + 1);
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      EXPECT_EQ(*end, '\0') << "unparsable sample value in: " << line;
      EXPECT_EQ(line.rfind("duet_", 0), 0u)
          << "sample must carry the duet_ prefix: " << line;
    }
  }
  reg.reset();
}

}  // namespace
}  // namespace duet::telemetry
