// Telemetry layer: span recording and merging across threads, ring-overflow
// accounting, metric atomics under contention, exporter structure, and the
// end-to-end pins of registry metrics against pipeline ground truth
// (records parsed, shard events, dependency-replay counts, VM instructions).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/session.hpp"
#include "support/telemetry.hpp"
#include "trace/reader.hpp"

#include "helpers.hpp"

namespace ac::telemetry {
namespace {

/// Each test owns the process-wide telemetry state: start zeroed, leave
/// disabled so later tests (and the suite's other binaries) see the default.
struct TelemetryReset {
  TelemetryReset() {
    telemetry().disable();
    telemetry().reset();
    metrics().reset();
  }
  ~TelemetryReset() {
    telemetry().disable();
    telemetry().reset();
  }
};

// --- spans ------------------------------------------------------------------

TEST(TelemetrySpans, DisabledRecordsNothing) {
  TelemetryReset guard;
  {
    AC_SPAN("test.disabled");
  }
  EXPECT_TRUE(telemetry().collect().empty());
  EXPECT_EQ(telemetry().dropped(), 0u);
}

TEST(TelemetrySpans, NestingAndOrderingSurviveTheMerge) {
  TelemetryReset guard;
  telemetry().enable();

  const auto nested_work = [] {
    AC_SPAN("test.outer");
    for (int i = 0; i < 3; ++i) {
      AC_SPAN("test.inner");
    }
  };
  nested_work();  // main thread
  std::thread a(nested_work), b(nested_work);
  a.join();
  b.join();
  telemetry().disable();

  const std::vector<Span> spans = telemetry().collect();
  ASSERT_EQ(spans.size(), 12u);  // 3 threads x (1 outer + 3 inner)

  // Merged order is (tid, start_ns): grouped by thread, chronological within.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i - 1].tid == spans[i].tid) {
      EXPECT_LE(spans[i - 1].start_ns, spans[i].start_ns);
    } else {
      EXPECT_LT(spans[i - 1].tid, spans[i].tid);
    }
  }

  std::set<std::uint32_t> tids;
  for (const Span& s : spans) tids.insert(s.tid);
  EXPECT_EQ(tids.size(), 3u);

  // Per thread: the outer span encloses its three inners, one level deeper.
  for (const std::uint32_t tid : tids) {
    const Span* outer = nullptr;
    int inners = 0;
    for (const Span& s : spans) {
      if (s.tid == tid && std::string_view(s.name) == "test.outer") outer = &s;
    }
    ASSERT_NE(outer, nullptr);
    for (const Span& s : spans) {
      if (s.tid != tid || std::string_view(s.name) != "test.inner") continue;
      ++inners;
      EXPECT_EQ(s.depth, outer->depth + 1);
      EXPECT_GE(s.start_ns, outer->start_ns);
      EXPECT_LE(s.end_ns, outer->end_ns);
    }
    EXPECT_EQ(inners, 3);
  }
}

TEST(TelemetrySpans, RingOverflowIsAccountedNotSilent) {
  TelemetryReset guard;
  telemetry().enable();
  constexpr std::uint64_t kSpans = 10000;  // > the 8Ki per-thread ring
  for (std::uint64_t i = 0; i < kSpans; ++i) {
    AC_SPAN("test.overflow");
  }
  telemetry().disable();
  const std::uint64_t kept = telemetry().collect().size();
  EXPECT_EQ(kept, std::uint64_t{1} << 13);
  EXPECT_EQ(telemetry().dropped(), kSpans - kept);
}

// --- metrics ----------------------------------------------------------------

TEST(TelemetryMetrics, CountersHistogramsGaugesSumExactlyAcrossThreads) {
  TelemetryReset guard;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  Counter& c = metrics().counter("test.concurrent_counter");
  Histogram& h = metrics().histogram("test.concurrent_histogram");
  Gauge& g = metrics().gauge("test.concurrent_gauge");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        c.add(1);
        h.observe(7);
        g.add(1);
      }
      for (int i = 0; i < kIncrements; ++i) g.add(-1);
    });
  }
  for (auto& t : threads) t.join();

  const std::uint64_t n = std::uint64_t{kThreads} * kIncrements;
  EXPECT_EQ(c.value(), n);
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.sum(), 7 * n);
  EXPECT_EQ(g.value(), 0);  // every add(1) was matched by an add(-1)
  EXPECT_GE(g.max_value(), 1);
  EXPECT_LE(g.max_value(), static_cast<std::int64_t>(n));
}

TEST(TelemetryMetrics, GaugeSetMaxIsMonotone) {
  TelemetryReset guard;
  Gauge& g = metrics().gauge("test.monotone_gauge");
  g.set_max(10);
  g.set_max(5);  // stale out-of-order progress must not move it backwards
  EXPECT_EQ(g.value(), 10);
  g.set_max(20);
  EXPECT_EQ(g.value(), 20);
  EXPECT_EQ(g.max_value(), 20);
}

TEST(TelemetryMetrics, HistogramQuantileBoundsBracketByPowersOfTwo) {
  TelemetryReset guard;
  Histogram& h = metrics().histogram("test.quantile_histogram");
  for (int i = 0; i < 99; ++i) h.observe(100);  // bucket [64,128)
  h.observe(1000000);                           // one tail observation
  EXPECT_EQ(h.quantile_bound(0.5), 127u);
  EXPECT_GE(h.quantile_bound(1.0), 1000000u);
}

// --- exporters --------------------------------------------------------------

TEST(TelemetryExport, ChromeTraceAndMetricsJsonAreStructurallySound) {
  TelemetryReset guard;
  telemetry().enable();
  {
    AC_SPAN("parse.unit_test");
    AC_SPAN("classify.unit_test");
  }
  std::thread([] { AC_SPAN("ckpt.unit_test"); }).join();
  telemetry().disable();
  metrics().counter("test.export_counter").add(42);
  metrics().gauge("test.export_gauge").set(7);
  metrics().histogram("test.export_histogram").observe(1024);

  const auto balanced = [](const std::string& s) {
    int braces = 0, brackets = 0;
    for (char c : s) {
      braces += (c == '{') - (c == '}');
      brackets += (c == '[') - (c == ']');
    }
    return braces == 0 && brackets == 0;
  };

  const std::string trace = telemetry().chrome_trace_json();
  EXPECT_TRUE(balanced(trace));
  for (const char* needle :
       {"\"displayTimeUnit\": \"ms\"", "\"traceEvents\"", "\"ph\": \"M\"", "\"ph\": \"X\"",
        "\"name\": \"parse.unit_test\"", "\"name\": \"classify.unit_test\"",
        "\"name\": \"ckpt.unit_test\"", "\"cat\": \"parse\"", "\"cat\": \"ckpt\"",
        "\"ts\": ", "\"dur\": "}) {
    EXPECT_NE(trace.find(needle), std::string::npos) << needle;
  }

  const std::string mjson = metrics().to_json();
  EXPECT_TRUE(balanced(mjson));
  for (const char* needle :
       {"\"counters\"", "\"test.export_counter\": 42", "\"gauges\"", "\"test.export_gauge\"",
        "\"value\": 7", "\"histograms\"", "\"test.export_histogram\"", "\"count\": 1",
        "\"sum\": 1024", "\"p50_bound\""}) {
    EXPECT_NE(mjson.find(needle), std::string::npos) << needle;
  }
}

// --- pipeline ground-truth pins ---------------------------------------------

TEST(TelemetryPipeline, ParseAndClassifyMetricsPinToGroundTruth) {
  TelemetryReset guard;
  auto run = test::run_pipeline(test::fig4_source());

  std::string text;
  for (const auto& r : run.records) text += r.to_text();

  metrics().reset();  // isolate the parse below from the pipeline run above
  trace::TraceBuffer buf = trace::read_trace_buffer(text);
  EXPECT_EQ(metrics().counter_value("parse.records_parsed"), run.records.size());
  EXPECT_EQ(metrics().counter_value("parse.bytes_parsed"), text.size());

  const analysis::MclRegion region = analysis::find_mcl_region(test::fig4_source());
  analysis::AnalysisOptions opts;
  opts.threads = 4;
  opts.telemetry = true;
  const analysis::Report report =
      analysis::Session().buffer(std::move(buf)).region(region).options(opts).run();
  telemetry().disable();

  // The per-shard delivery counts must sum to exactly the event stream: no
  // event dropped by the routing sweep, none double-counted across shards.
  EXPECT_GT(report.dep.events.size(), 0u);
  EXPECT_EQ(metrics().counter_value("classify.shard_events"), report.dep.events.size());
  EXPECT_EQ(test::critical_map(report), test::critical_map(run.report));

  // The Session recorded spans under opts.telemetry.
  bool session_span = false;
  bool classify_span = false;
  for (const Span& s : telemetry().collect()) {
    if (std::string_view(s.name) == "analysis.session") session_span = true;
    if (std::string_view(s.name).substr(0, 9) == "classify.") classify_span = true;
  }
  EXPECT_TRUE(session_span);
  EXPECT_TRUE(classify_span);
}

TEST(TelemetryPipeline, DepCountersSumTheReplayResults) {
  TelemetryReset guard;
  auto run = test::run_pipeline(test::fig4_source());
  const analysis::MclRegion region = analysis::find_mcl_region(test::fig4_source());

  // One batch replay and one streaming replay of the same records: the
  // counters are bulk-added once per replay, so they must sum both results.
  metrics().reset();
  const analysis::Report batch =
      analysis::Session().buffer(trace::TraceBuffer(run.trace)).region(region).run();
  analysis::SessionStream stream(region, {});
  for (const auto& r : run.records) stream.pass1_add(r);
  stream.finish_pass1();
  for (const auto& r : run.records) stream.pass2_add(r);
  const analysis::Report streamed = stream.finish();

  EXPECT_GT(batch.dep.events.size(), 0u);
  EXPECT_EQ(metrics().counter_value("dep.events"),
            batch.dep.events.size() + streamed.dep.events.size());
  EXPECT_EQ(metrics().counter_value("dep.records"), 2 * run.records.size());
  EXPECT_EQ(metrics().counter_value("dep.ddg_edges"),
            batch.dep.complete.num_edges() + streamed.dep.complete.num_edges());
  // Every distinct edge was inserted at least once; loops re-add most of them.
  EXPECT_GT(metrics().counter_value("dep.edge_inserts"),
            metrics().counter_value("dep.ddg_edges"));
}

TEST(TelemetryPipeline, VmInstructionCounterMatchesRunResult) {
  TelemetryReset guard;
  const vm::RunResult run = test::run_source(test::fig4_source());
  EXPECT_GT(run.steps, 0u);
  EXPECT_EQ(metrics().counter_value("vm.instructions"),
            static_cast<std::uint64_t>(run.steps));
}

}  // namespace
}  // namespace ac::telemetry
