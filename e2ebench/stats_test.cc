#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace sesemi::e2ebench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> values;
  for (size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(PercentileRule, NearestRank) {
  const std::vector<double> sorted = Ramp(100);
  EXPECT_EQ(PercentileSorted(sorted, 50), 50);
  EXPECT_EQ(PercentileSorted(sorted, 99), 99);
  EXPECT_EQ(PercentileSorted(sorted, 100), 100);
  EXPECT_EQ(PercentileSorted(sorted, 0), 1);
  EXPECT_EQ(PercentileSorted({}, 50), 0);
  // 99% of 1000 is exact in decimal but not in binary.
  EXPECT_EQ(PercentileSorted(Ramp(1000), 99), 990);
}

TEST(PercentileRule, KeepsP99WithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SupportedPercentile(1000, 99), 99);
  EXPECT_EQ(SupportedPercentile(5000, 99), 99);
}

TEST(PercentileRule, LowersTheTailWhenSamplesAreFew) {
  // 500 samples support at most the 98th percentile (rank 490, 10 beyond).
  const double pct = SupportedPercentile(500, 99);
  EXPECT_DOUBLE_EQ(pct, 98.0);
  EXPECT_EQ(SamplesBeyond(500, pct), 10u);
  // 286 samples: rank 276 keeps exactly 10 beyond.
  EXPECT_EQ(SamplesBeyond(286, SupportedPercentile(286, 99)), 10u);
  // Ten samples or fewer support no tail percentile at all.
  EXPECT_EQ(SupportedPercentile(10, 99), 0);
  EXPECT_EQ(SupportedPercentile(0, 99), 0);
}

TEST(PercentileRule, SummaryReportsCounts) {
  const Summary s = Summarize(Ramp(500));
  EXPECT_EQ(s.count, 500u);
  EXPECT_EQ(s.p50, 250);
  EXPECT_DOUBLE_EQ(s.tail_pct, 98.0);
  EXPECT_EQ(s.tail, 490);
  EXPECT_EQ(s.beyond, 10u);
  const Summary few = Summarize({3, 1, 2});
  EXPECT_EQ(few.p50, 2);
  EXPECT_EQ(few.tail_pct, 0);
  EXPECT_EQ(few.beyond, 0u);
}

TEST(PercentileRule, WindowedMediansIgnoreOneOutlierWindow) {
  std::vector<std::vector<double>> windows(5, Ramp(1000));
  for (double& v : windows[2]) v *= 100;  // one stalled sub-window
  const WindowedSummary s = SummarizeWindows(windows);
  EXPECT_EQ(s.windows, 5u);
  EXPECT_EQ(s.count, 5000u);
  EXPECT_EQ(s.min_count, 1000u);
  EXPECT_EQ(s.tail_pct, 99);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.tail, 990);
}

TEST(PercentileRule, WindowedTailUsesThePercentileEveryWindowSupports) {
  const WindowedSummary s = SummarizeWindows({Ramp(1000), Ramp(500), Ramp(2000)});
  EXPECT_DOUBLE_EQ(s.tail_pct, 98.0);  // what 500 samples support
  EXPECT_EQ(s.min_count, 500u);
  EXPECT_EQ(s.tail, 980);  // median of 980, 490, 1960
  EXPECT_EQ(SummarizeWindows({Ramp(5)}).tail_pct, 0);
  EXPECT_EQ(SummarizeWindows({}).windows, 0u);
}

TEST(Attainment, CountsFailuresAsMisses) {
  // Four OK completions, two within the limit; six requests were sent, so
  // the two that failed or were refused are misses too.
  EXPECT_DOUBLE_EQ(Attainment({0.5, 1.0, 1.5, 9.0}, 6, 1.0), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(Attainment({0.5, 1.0}, 2, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Attainment({}, 3, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Attainment({}, 0, 1.0), 0.0);
}

Breakdown Request(int64_t e2e, int64_t seed) {
  Breakdown b;
  b.e2e = e2e;
  b.part[kSendLag] = seed % 7;
  b.part[kSeal] = 3 + seed % 5;
  b.part[kSubmit] = 2;
  b.part[kQueueWait] = seed % 11;
  b.part[kSemirt] = e2e / 2;
  b.part[kOpen] = 1;
  b.semirt[kKeyFetch] = seed % 3;
  b.semirt[kExecute] = e2e / 3;
  CloseBreakdown(&b);
  return b;
}

TEST(BandSums, ComponentsPlusUnattributedAddUpExactly) {
  std::vector<Breakdown> requests;
  for (int64_t i = 0; i < 1000; ++i) requests.push_back(Request(1000 + 37 * i % 991, i));
  for (const auto& [lo, hi] : {std::pair{0.0, 100.0}, {45.0, 55.0}, {99.0, 100.0}}) {
    const BandRow row = Band(requests, "band", lo, hi);
    ASSERT_GT(row.count, 0u);
    EXPECT_TRUE(row.Adds());
    double sum_us = 0;
    for (int c = 0; c < kNumComponents; ++c) sum_us += row.mean_us(static_cast<Component>(c));
    EXPECT_NEAR(sum_us, row.mean_e2e_us(), 1e-9);
  }
}

TEST(BandSums, ResidualMayBeNegativeAndStillAdds) {
  Breakdown b;
  b.e2e = 10;
  b.part[kQueueWait] = 8;  // overlaps the submit call
  b.part[kSubmit] = 5;
  CloseBreakdown(&b);
  EXPECT_EQ(b.part[kUnattributed], -3);
  const BandRow row = Band({b}, "one", 0, 100);
  EXPECT_TRUE(row.Adds());
}

TEST(BandSums, BandsSelectByEndToEndRank) {
  std::vector<Breakdown> requests;
  for (int64_t i = 1; i <= 200; ++i) requests.push_back(Request(i, i));
  EXPECT_EQ(Band(requests, "all", 0, 100).count, 200u);
  const BandRow median = Band(requests, "median", 45, 55);
  EXPECT_EQ(median.count, 21u);  // e2e 90..110
  EXPECT_EQ(median.e2e, (90 + 110) * 21 / 2);
  const BandRow tail = Band(requests, "tail", 99, 100);
  EXPECT_EQ(tail.count, 3u);  // e2e 198, 199, 200
}

TEST(RegistryDelta, ParsesPrometheusTextAndSumsLabels) {
  const std::string before =
      "# HELP ignored\n"
      "sesemi_platform_cold_starts_total{node=\"0\"} 3\n"
      "sesemi_platform_cold_starts_total{node=\"1\"} 4\n"
      "sesemi_sched_rejected_total{node=\"0\",reason=\"rate\"} 1\n"
      "sesemi_sched_rejected_total{node=\"0\",reason=\"depth\"} 0\n"
      "sesemi_router_routed_total 10\n"
      "\n"
      "malformed line\n";
  const std::string after =
      "sesemi_platform_cold_starts_total{node=\"0\"} 5\n"
      "sesemi_platform_cold_starts_total{node=\"1\"} 4\n"
      "sesemi_platform_cold_starts_total_extra 100\n"
      "sesemi_sched_rejected_total{node=\"0\",reason=\"rate\"} 2\n"
      "sesemi_sched_rejected_total{node=\"0\",reason=\"depth\"} 5\n"
      "sesemi_router_routed_total 1.5e1\n"
      "sesemi_label_spaces{path=\"a b\"} 2\n";
  const Series b = ParsePrometheus(before);
  const Series a = ParsePrometheus(after);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(SumSeries(a, "sesemi_label_spaces"), 2);
  EXPECT_EQ(Delta(b, a, "sesemi_platform_cold_starts_total"), 2);
  EXPECT_EQ(Delta(b, a, "sesemi_sched_rejected_total"), 6);
  EXPECT_EQ(Delta(b, a, "sesemi_router_routed_total"), 5);
  EXPECT_EQ(Delta(b, a, "sesemi_not_there_total"), 0);
}

}  // namespace
}  // namespace sesemi::e2ebench
