// Unit tests for src/stats: time series, aggregation, summaries.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "stats/aggregate.h"
#include "stats/quantiles.h"
#include "stats/summary.h"
#include "stats/time_series.h"
#include "two_sample.h"

namespace mvsim::stats {
namespace {

TEST(TimeSeries, EmptySeriesReturnsInitialValue) {
  TimeSeries s(3.0);
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.at(SimTime::zero()), 3.0);
  EXPECT_DOUBLE_EQ(s.at(SimTime::hours(100.0)), 3.0);
  EXPECT_DOUBLE_EQ(s.final_value(), 3.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 3.0);
}

TEST(TimeSeries, StepSemantics) {
  TimeSeries s;
  s.push(SimTime::minutes(10.0), 1.0);
  s.push(SimTime::minutes(20.0), 2.0);
  EXPECT_DOUBLE_EQ(s.at(SimTime::minutes(9.9)), 0.0);
  EXPECT_DOUBLE_EQ(s.at(SimTime::minutes(10.0)), 1.0);  // right-continuous
  EXPECT_DOUBLE_EQ(s.at(SimTime::minutes(15.0)), 1.0);
  EXPECT_DOUBLE_EQ(s.at(SimTime::minutes(20.0)), 2.0);
  EXPECT_DOUBLE_EQ(s.at(SimTime::minutes(99.0)), 2.0);
}

TEST(TimeSeries, EqualTimePushOverwrites) {
  TimeSeries s;
  s.push(SimTime::minutes(5.0), 1.0);
  s.push(SimTime::minutes(5.0), 2.0);
  EXPECT_EQ(s.points().size(), 1u);
  EXPECT_DOUBLE_EQ(s.at(SimTime::minutes(5.0)), 2.0);
}

TEST(TimeSeries, RejectsTimeTravel) {
  TimeSeries s;
  s.push(SimTime::minutes(10.0), 1.0);
  EXPECT_THROW(s.push(SimTime::minutes(9.0), 2.0), std::invalid_argument);
}

TEST(TimeSeries, ResampleOnUniformGrid) {
  TimeSeries s;
  s.push(SimTime::minutes(25.0), 10.0);
  auto grid = s.resample(SimTime::minutes(10.0), SimTime::minutes(50.0));
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_DOUBLE_EQ(grid[0].value, 0.0);   // t=0
  EXPECT_DOUBLE_EQ(grid[2].value, 0.0);   // t=20
  EXPECT_DOUBLE_EQ(grid[3].value, 10.0);  // t=30
  EXPECT_DOUBLE_EQ(grid[5].value, 10.0);  // t=50
  EXPECT_EQ(grid[5].time, SimTime::minutes(50.0));
}

TEST(TimeSeries, ResampleHorizonNotMultipleOfStep) {
  TimeSeries s;
  auto grid = s.resample(SimTime::minutes(7.0), SimTime::minutes(20.0));
  // 0, 7, 14 — 21 exceeds the horizon.
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_EQ(grid.back().time, SimTime::minutes(14.0));
}

TEST(TimeSeries, ResampleValidatesArguments) {
  TimeSeries s;
  EXPECT_THROW((void)s.resample(SimTime::zero(), SimTime::hours(1.0)), std::invalid_argument);
  EXPECT_THROW((void)s.resample(SimTime::minutes(1.0), SimTime::minutes(-5.0)),
               std::invalid_argument);
}

TEST(TimeSeries, MaxAndFirstCrossing) {
  TimeSeries s;
  s.push(SimTime::minutes(10.0), 5.0);
  s.push(SimTime::minutes(20.0), 3.0);
  s.push(SimTime::minutes(30.0), 8.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 8.0);
  EXPECT_EQ(s.first_time_at_or_above(4.0), SimTime::minutes(10.0));
  EXPECT_EQ(s.first_time_at_or_above(8.0), SimTime::minutes(30.0));
  EXPECT_EQ(s.first_time_at_or_above(9.0), SimTime::infinity());
  EXPECT_EQ(TimeSeries(5.0).first_time_at_or_above(4.0), SimTime::zero());
}

TEST(Accumulator, MeanVarianceMinMax) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_GT(acc.ci95_half_width(), 0.0);
}

TEST(Accumulator, SingleSampleHasZeroSpread) {
  Accumulator acc;
  acc.add(3.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.ci95_half_width(), 0.0);
}

TEST(AggregatedSeries, MeanOfTwoReplications) {
  AggregatedSeries agg(SimTime::minutes(10.0), SimTime::minutes(30.0));
  TimeSeries a;
  a.push(SimTime::minutes(5.0), 10.0);
  TimeSeries b;
  b.push(SimTime::minutes(15.0), 20.0);
  agg.add_replication(a);
  agg.add_replication(b);
  EXPECT_EQ(agg.replication_count(), 2u);
  auto grid = agg.grid();
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_DOUBLE_EQ(grid[0].mean, 0.0);           // t=0: 0, 0
  EXPECT_DOUBLE_EQ(grid[1].mean, 5.0);           // t=10: 10, 0
  EXPECT_DOUBLE_EQ(grid[2].mean, 15.0);          // t=20: 10, 20
  EXPECT_DOUBLE_EQ(grid[3].mean, 15.0);          // t=30
  EXPECT_DOUBLE_EQ(agg.final_mean(), 15.0);
  EXPECT_DOUBLE_EQ(grid[2].min, 10.0);
  EXPECT_DOUBLE_EQ(grid[2].max, 20.0);
}

TEST(AggregatedSeries, MeanAtRoundsToNearestCell) {
  AggregatedSeries agg(SimTime::minutes(10.0), SimTime::minutes(30.0));
  TimeSeries a;
  a.push(SimTime::minutes(10.0), 4.0);
  agg.add_replication(a);
  EXPECT_DOUBLE_EQ(agg.mean_at(SimTime::minutes(12.0)), 4.0);
  EXPECT_DOUBLE_EQ(agg.mean_at(SimTime::minutes(4.0)), 0.0);
  EXPECT_DOUBLE_EQ(agg.mean_at(SimTime::hours(99.0)), 4.0);  // clamps to last
}

TEST(AggregatedSeries, FirstTimeAtOrAbove) {
  AggregatedSeries agg(SimTime::minutes(10.0), SimTime::minutes(40.0));
  TimeSeries a;
  a.push(SimTime::minutes(20.0), 10.0);
  agg.add_replication(a);
  EXPECT_EQ(agg.mean_first_time_at_or_above(5.0), SimTime::minutes(20.0));
  EXPECT_EQ(agg.mean_first_time_at_or_above(11.0), SimTime::infinity());
}

TEST(AggregatedSeries, ValidatesConstruction) {
  EXPECT_THROW(AggregatedSeries(SimTime::zero(), SimTime::hours(1.0)), std::invalid_argument);
  EXPECT_THROW(AggregatedSeries(SimTime::minutes(1.0), SimTime::minutes(-1.0)),
               std::invalid_argument);
}

TEST(PrintFigureTable, EmitsHoursAndCurves) {
  AggregatedSeries base(SimTime::hours(1.0), SimTime::hours(2.0));
  TimeSeries a;
  a.push(SimTime::hours(1.0), 5.0);
  base.add_replication(a);
  AggregatedSeries other(SimTime::hours(1.0), SimTime::hours(2.0));
  other.add_replication(TimeSeries{});

  std::ostringstream out;
  print_figure_table(out, "Test Figure", {{"Baseline", &base}, {"Other", &other}},
                     SimTime::hours(1.0));
  std::string text = out.str();
  EXPECT_NE(text.find("== Test Figure =="), std::string::npos);
  EXPECT_NE(text.find("Hours,Baseline,Other"), std::string::npos);
  EXPECT_NE(text.find("1.0,5.0,0.0"), std::string::npos);
}

TEST(PrintFigureTable, RejectsMismatchedGrids) {
  AggregatedSeries a(SimTime::hours(1.0), SimTime::hours(2.0));
  AggregatedSeries b(SimTime::hours(1.0), SimTime::hours(3.0));
  std::ostringstream out;
  EXPECT_THROW(print_figure_table(out, "x", {{"a", &a}, {"b", &b}}, SimTime::hours(1.0)),
               std::invalid_argument);
  EXPECT_THROW(print_figure_table(out, "x", {}, SimTime::hours(1.0)), std::invalid_argument);
}

TEST(PrintCurveSummaries, MentionsEachCurve) {
  AggregatedSeries base(SimTime::hours(1.0), SimTime::hours(4.0));
  TimeSeries a;
  a.push(SimTime::hours(1.0), 2.0);
  a.push(SimTime::hours(3.0), 10.0);
  base.add_replication(a);
  std::ostringstream out;
  print_curve_summaries(out, {{"MyCurve", &base}});
  EXPECT_NE(out.str().find("MyCurve"), std::string::npos);
  EXPECT_NE(out.str().find("final=10.0"), std::string::npos);
}

TEST(FinalLevelRatio, ComputesAndHandlesZeroBaseline) {
  AggregatedSeries base(SimTime::hours(1.0), SimTime::hours(1.0));
  TimeSeries a;
  a.push(SimTime::hours(0.5), 100.0);
  base.add_replication(a);
  AggregatedSeries quarter(SimTime::hours(1.0), SimTime::hours(1.0));
  TimeSeries b;
  b.push(SimTime::hours(0.5), 25.0);
  quarter.add_replication(b);
  EXPECT_DOUBLE_EQ(final_level_ratio(quarter, base), 0.25);

  AggregatedSeries zero(SimTime::hours(1.0), SimTime::hours(1.0));
  zero.add_replication(TimeSeries{});
  EXPECT_DOUBLE_EQ(final_level_ratio(base, zero), 0.0);
}


TEST(QuantileSeries, MedianAndBandsOfKnownReplications) {
  QuantileSeries q(SimTime::minutes(10.0), SimTime::minutes(20.0));
  for (double level : {10.0, 20.0, 30.0, 40.0, 50.0}) {
    TimeSeries s;
    s.push(SimTime::minutes(5.0), level);
    q.add_replication(s);
  }
  EXPECT_EQ(q.replication_count(), 5u);
  EXPECT_DOUBLE_EQ(q.quantile_at(SimTime::minutes(10.0), 0.5), 30.0);
  EXPECT_DOUBLE_EQ(q.quantile_at(SimTime::minutes(10.0), 0.0), 10.0);
  EXPECT_DOUBLE_EQ(q.quantile_at(SimTime::minutes(10.0), 1.0), 50.0);
  EXPECT_DOUBLE_EQ(q.quantile_at(SimTime::minutes(10.0), 0.25), 20.0);
  EXPECT_DOUBLE_EQ(q.quantile_at(SimTime::zero(), 0.5), 0.0) << "before the step";
}

TEST(QuantileSeries, InterpolatesBetweenOrderStatistics) {
  QuantileSeries q(SimTime::minutes(10.0), SimTime::minutes(10.0));
  for (double level : {0.0, 100.0}) {
    TimeSeries s;
    s.push(SimTime::minutes(1.0), level);
    q.add_replication(s);
  }
  EXPECT_DOUBLE_EQ(q.quantile_at(SimTime::minutes(10.0), 0.5), 50.0);
  EXPECT_DOUBLE_EQ(q.quantile_at(SimTime::minutes(10.0), 0.75), 75.0);
}

TEST(QuantileSeries, BandCoversGridAndIsOrdered) {
  QuantileSeries q(SimTime::minutes(10.0), SimTime::minutes(30.0));
  for (int rep = 0; rep < 9; ++rep) {
    TimeSeries s;
    s.push(SimTime::minutes(5.0 + rep), 10.0 * rep);
    q.add_replication(s);
  }
  auto band = q.band(0.1, 0.9);
  ASSERT_EQ(band.size(), 4u);
  for (const auto& point : band) {
    EXPECT_LE(point.lower, point.median);
    EXPECT_LE(point.median, point.upper);
  }
  EXPECT_EQ(band.front().time, SimTime::zero());
  EXPECT_EQ(band.back().time, SimTime::minutes(30.0));
  auto median = q.median_curve();
  ASSERT_EQ(median.size(), 4u);
  EXPECT_DOUBLE_EQ(median[3].value, band[3].median);
}

TEST(QuantileSeries, FractionAtOrBelow) {
  QuantileSeries q(SimTime::minutes(10.0), SimTime::minutes(10.0));
  for (double level : {10.0, 20.0, 30.0, 40.0}) {
    TimeSeries s;
    s.push(SimTime::minutes(1.0), level);
    q.add_replication(s);
  }
  EXPECT_DOUBLE_EQ(q.fraction_at_or_below(SimTime::minutes(10.0), 20.0), 0.5);
  EXPECT_DOUBLE_EQ(q.fraction_at_or_below(SimTime::minutes(10.0), 5.0), 0.0);
  EXPECT_DOUBLE_EQ(q.fraction_at_or_below(SimTime::minutes(10.0), 100.0), 1.0);
}

TEST(QuantileSeries, Validation) {
  EXPECT_THROW(QuantileSeries(SimTime::zero(), SimTime::hours(1.0)), std::invalid_argument);
  QuantileSeries q(SimTime::minutes(10.0), SimTime::minutes(10.0));
  EXPECT_THROW((void)q.quantile_at(SimTime::zero(), 0.5), std::logic_error) << "no reps yet";
  TimeSeries s;
  q.add_replication(s);
  EXPECT_THROW((void)q.quantile_at(SimTime::zero(), 1.5), std::invalid_argument);
  EXPECT_THROW((void)q.band(0.9, 0.1), std::invalid_argument);
}

TEST(TwoSample, KsStatisticOnKnownSamples) {
  EXPECT_DOUBLE_EQ(ks_statistic({1, 2, 3, 4}, {3, 4, 5, 6}), 0.5);
  EXPECT_DOUBLE_EQ(ks_statistic({1, 2, 3}, {1, 2, 3}), 0.0);
  // Ties step both ECDFs together: F_a(1) = 2/3, F_b(1) = 1/3.
  EXPECT_DOUBLE_EQ(ks_statistic({1, 1, 2}, {1, 2, 2}), 1.0 / 3.0);
  // +infinity ("never happened") ties with itself, above every finite value.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(ks_statistic({1, inf}, {inf, inf}), 0.5);
  EXPECT_DOUBLE_EQ(ks_statistic({inf, inf}, {inf}), 0.0);
  EXPECT_THROW((void)ks_statistic({}, {1}), std::invalid_argument);
}

TEST(TwoSample, KsCriticalValueMatchesTheAsymptoticTable) {
  // c(0.01) = 1.628, c(0.05) = 1.358 (Smirnov's asymptotic table).
  EXPECT_NEAR(ks_critical_value(64, 64, 0.01), 1.6276 * std::sqrt(128.0 / 4096.0), 1e-4);
  EXPECT_NEAR(ks_critical_value(64, 64, 0.01), 0.2877, 1e-4);
  EXPECT_NEAR(ks_critical_value(100, 50, 0.05), 1.3581 * std::sqrt(150.0 / 5000.0), 1e-4);
}

TEST(TwoSample, WelchTOnKnownSamples) {
  // Means 3 and 6, variances 2.5 and 10: t = -3 / sqrt(0.5 + 2),
  // df = 2.5^2 / (0.5^2 / 4 + 2^2 / 4).
  WelchResult r = welch_t({1, 2, 3, 4, 5}, {2, 4, 6, 8, 10});
  EXPECT_NEAR(r.t, -3.0 / std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(r.df, 6.25 / 1.0625, 1e-12);
  EXPECT_DOUBLE_EQ(welch_t({1, 2, 3}, {1, 2, 3}).t, 0.0);
  EXPECT_THROW((void)welch_t({1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW((void)welch_t({2, 2}, {2, 2}), std::invalid_argument);
}

}  // namespace
}  // namespace mvsim::stats
