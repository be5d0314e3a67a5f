// Tests for the benchmark's own helpers: the order statistics it reports, the
// seeded operation plan, and the span coverage (untimed_s) computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "plan.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace pipebench {
namespace {

// Expected values are Python's statistics.quantiles(data, n=...) output.
TEST(Stats, QuantilesMatchPythonExclusiveMethod) {
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(quantiles(ten, 4), (std::vector<double>{2.75, 5.5, 8.25}));
  const std::vector<double> deciles = quantiles(ten, 10);
  const std::vector<double> want = {1.1, 2.2, 3.3, 4.4, 5.5, 6.6, 7.7, 8.8, 9.9};
  ASSERT_EQ(deciles.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_DOUBLE_EQ(deciles[i], want[i]) << i;

  // Unsorted input; odd length.
  EXPECT_EQ(quantiles({3.0, 1.0, 2.0}, 4), (std::vector<double>{1.0, 2.0, 3.0}));
  const std::vector<double> fifteen = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15};
  EXPECT_EQ(quantiles(fifteen, 4), (std::vector<double>{4.0, 8.0, 12.0}));
  // Two samples: the exclusive method extrapolates past both ends.
  EXPECT_EQ(quantiles({10, 20}, 4), (std::vector<double>{7.5, 15.0, 22.5}));
  // One sample: every cut is that sample.
  EXPECT_EQ(quantiles({4.5}, 4), (std::vector<double>{4.5, 4.5, 4.5}));
  EXPECT_THROW(quantiles({}, 4), std::invalid_argument);
}

TEST(Stats, MedianAndPercentile) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);

  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);  // 1..100
  EXPECT_DOUBLE_EQ(percentile(hundred, 50), 50.5);
  EXPECT_DOUBLE_EQ(percentile(hundred, 90), 90.9);
  EXPECT_THROW(percentile(hundred, 100), std::invalid_argument);
}

PlanShape shape() {
  PlanShape s;
  s.apps = 14;
  s.iterations = {6, 12, 3, 2, 40, 9, 10, 11, 5, 7, 8, 20, 4, 30};
  s.clients = 2;
  s.requests_per_app = 8;
  return s;
}

/// Requests per app over all clients — what fixes every per-pass total.
std::map<int, int> request_histogram(const Plan& p) {
  std::map<int, int> h;
  for (const auto& client : p.client_requests) {
    for (const int app : client) ++h[app];
  }
  return h;
}

TEST(Plan, SameSeedSamePlan) {
  EXPECT_EQ(make_plan(42, shape()), make_plan(42, shape()));
  PlanShape uneven = shape();
  uneven.requests_per_app = 7;  // does not divide among 2 clients
  EXPECT_THROW(make_plan(42, uneven), std::invalid_argument);
}

TEST(Plan, OtherSeedReordersTheSameWork) {
  const Plan a = make_plan(1, shape());
  const Plan b = make_plan(2, shape());
  EXPECT_NE(a.app_order, b.app_order);
  EXPECT_NE(a.client_requests, b.client_requests);

  // Same apps, same number of requests per app and per client: every
  // exact-count total of a pass is seed-independent.
  std::vector<int> sorted_a = a.app_order;
  std::vector<int> sorted_b = b.app_order;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  EXPECT_EQ(sorted_a, sorted_b);
  EXPECT_EQ(request_histogram(a), request_histogram(b));
  for (const auto& [app, n] : request_histogram(a)) EXPECT_EQ(n, 8) << app;
  // Every client carries the same work: each app 4 times.
  ASSERT_EQ(a.client_requests.size(), 2u);
  for (const auto& client : a.client_requests) {
    std::map<int, int> h;
    for (const int app : client) ++h[app];
    EXPECT_EQ(h.size(), 14u);
    for (const auto& [app, n] : h) EXPECT_EQ(n, 4) << app;
  }
  EXPECT_NE(a.client_requests[0], a.client_requests[1]);

  // Weighted totals (e.g. records per app) agree across seeds.
  const std::vector<std::uint64_t> weight = {5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53};
  auto total = [&](const Plan& p) {
    std::uint64_t t = 0;
    for (const auto& client : p.client_requests) {
      for (const int app : client) t += weight[static_cast<std::size_t>(app)];
    }
    return t;
  };
  EXPECT_EQ(total(a), total(b));
}

TEST(Plan, FailIterationsComeFromTheMiddleOfTheLoop) {
  const PlanShape s = shape();
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Plan p = make_plan(seed, s);
    ASSERT_EQ(p.fail_at.size(), s.iterations.size());
    for (std::size_t i = 0; i < s.iterations.size(); ++i) {
      const int n = s.iterations[i];
      for (const int k : p.fail_at[i]) {
        EXPECT_GE(k, 2) << "seed " << seed << " app " << i;
        EXPECT_LE(k, n) << "seed " << seed << " app " << i;
        if (n >= 9) {
          EXPECT_GE(k, n / 3) << "seed " << seed << " app " << i;
          EXPECT_LE(k, 2 * n / 3) << "seed " << seed << " app " << i;
        }
      }
    }
  }
  ac::SplitMix64 rng(7);
  EXPECT_THROW(fail_iterations(rng, 1), std::invalid_argument);
}

TEST(Plan, FailPairsVaryWithTheSeedButNotTheirSum) {
  std::map<int, int> seen;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Plan p = make_plan(seed, shape());
    const Plan base = make_plan(0, shape());
    ++seen[p.fail_at[4][0]];
    // Checkpoints written before the two failures: (k1 - 1) + (k2 - 1), the
    // same for every seed.
    for (std::size_t i = 0; i < p.fail_at.size(); ++i) {
      EXPECT_EQ(p.fail_at[i][0] + p.fail_at[i][1], base.fail_at[i][0] + base.fail_at[i][1])
          << "seed " << seed << " app " << i;
    }
  }
  EXPECT_GT(seen.size(), 3u);  // a 40-iteration loop: 14 candidate iterations
}

SpanRecord span(const char* name, double start_s, double end_s, int parent, int thread,
                int pass, bool track = false) {
  SpanRecord s;
  s.name = name;
  s.start_ns = static_cast<std::uint64_t>(start_s * 1e9);
  s.end_ns = static_cast<std::uint64_t>(end_s * 1e9);
  s.parent = parent;
  s.thread = thread;
  s.pass = pass;
  s.track = track;
  return s;
}

TEST(Spans, CoverageIsTrackTimeOutsideLayerSpans) {
  const std::vector<SpanRecord> spans = {
      span("pass", 0.0, 1.0, -1, 0, 0, true),     // 0: track on thread 0
      span("vm.run", 0.0, 0.4, 0, 0, 0),          // 1: layer
      span("vm.inner", 0.1, 0.2, 1, 0, 0),        // 2: inside a layer: not counted twice
      span("app:X", 0.4, 0.9, 0, 0, 0),           // 3: organizes only
      span("analysis.dep", 0.5, 0.8, 3, 0, 0),    // 4: layer under app:X
      span("client", 0.0, 0.5, 0, 1, 0, true),    // 5: track on thread 1
      span("net.append", 0.0, 0.2, 5, 1, 0),      // 6: layer
      span("pass", 2.0, 3.0, -1, 0, 1, true),     // 7: another pass
  };
  const Coverage cov = coverage(spans, 0);
  EXPECT_NEAR(cov.track_s, 1.5, 1e-9);
  EXPECT_NEAR(cov.untimed_s, (1.0 - 0.4 - 0.3) + (0.5 - 0.2), 1e-9);
  EXPECT_NEAR(span_seconds(spans, "pass", 1), 1.0, 1e-9);
  EXPECT_NEAR(coverage(spans, 1).untimed_s, 1.0, 1e-9);
}

}  // namespace
}  // namespace pipebench
