// Property-based (parameterized) suites: invariants that must hold
// across whole parameter grids, not just hand-picked points.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <tuple>

#include <memory>

#include "core/presets.h"
#include "core/runner.h"
#include "core/scenario.h"
#include "des/scheduler.h"
#include "net/gateway.h"
#include "phone/phone.h"
#include "phone/phone_table.h"
#include "virus/sender_table.h"
#include "virus/targeting.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/serialization.h"
#include "phone/consent.h"
#include "rng/seed.h"
#include "rng/stream.h"
#include "stats/time_series.h"
#include "virus/profile.h"

namespace mvsim {
namespace {

// ---- Graph generators: reciprocity, simplicity and degree targets
// must hold over sizes x densities x seeds. ----

using GraphParam = std::tuple<graph::PhoneId /*nodes*/, double /*mean degree*/,
                              std::uint64_t /*seed*/>;

class PowerLawProperties : public ::testing::TestWithParam<GraphParam> {};

TEST_P(PowerLawProperties, SimpleReciprocalAndOnTarget) {
  auto [nodes, mean_degree, seed] = GetParam();
  rng::Stream stream(seed);
  graph::PowerLawConfig config;
  config.node_count = nodes;
  config.target_mean_degree = mean_degree;
  graph::ContactGraph g = graph::generate_power_law(config, stream);

  EXPECT_EQ(g.node_count(), nodes);
  EXPECT_NEAR(g.average_degree(), mean_degree, mean_degree * 0.10);
  for (graph::PhoneId p = 0; p < nodes; ++p) {
    graph::PhoneId previous = 0;
    bool first = true;
    for (graph::PhoneId q : g.contacts(p)) {
      ASSERT_NE(q, p) << "self-loop";
      ASSERT_TRUE(first || q > previous) << "unsorted or duplicate contact";
      ASSERT_TRUE(g.connected(q, p)) << "non-reciprocal edge";
      previous = q;
      first = false;
    }
  }
}

TEST_P(PowerLawProperties, SerializationRoundTrips) {
  auto [nodes, mean_degree, seed] = GetParam();
  rng::Stream stream(seed ^ 0xF00D);
  graph::PowerLawConfig config;
  config.node_count = nodes;
  config.target_mean_degree = mean_degree;
  graph::ContactGraph g = graph::generate_power_law(config, stream);
  graph::ContactGraph round = graph::from_contact_list_string(graph::to_contact_list_string(g));
  EXPECT_EQ(round.edge_count(), g.edge_count());
  EXPECT_EQ(round.node_count(), g.node_count());
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDensities, PowerLawProperties,
    ::testing::Combine(::testing::Values<graph::PhoneId>(200, 500, 1000),
                       ::testing::Values(8.0, 40.0, 80.0),
                       ::testing::Values<std::uint64_t>(1, 2)),
    [](const auto& param_info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_d";
      name += std::to_string(static_cast<int>(std::get<1>(param_info.param)));
      name += "_s";
      name += std::to_string(std::get<2>(param_info.param));
      return name;
    });

class ErdosRenyiProperties : public ::testing::TestWithParam<GraphParam> {};

TEST_P(ErdosRenyiProperties, SimpleReciprocalAndOnTarget) {
  auto [nodes, mean_degree, seed] = GetParam();
  rng::Stream stream(seed);
  graph::ContactGraph g = graph::generate_erdos_renyi(nodes, mean_degree, stream);
  EXPECT_NEAR(g.average_degree(), mean_degree, std::max(1.0, mean_degree * 0.10));
  for (graph::PhoneId p = 0; p < nodes; ++p) {
    for (graph::PhoneId q : g.contacts(p)) {
      ASSERT_TRUE(g.connected(q, p));
      ASSERT_NE(q, p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDensities, ErdosRenyiProperties,
    ::testing::Combine(::testing::Values<graph::PhoneId>(300, 1000),
                       ::testing::Values(5.0, 40.0, 80.0),
                       ::testing::Values<std::uint64_t>(3, 4)),
    [](const auto& param_info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_d";
      name += std::to_string(static_cast<int>(std::get<1>(param_info.param)));
      name += "_s";
      name += std::to_string(std::get<2>(param_info.param));
      return name;
    });

// ---- Consent solver: round-trips across the feasible target range. ----

class ConsentSolverProperty : public ::testing::TestWithParam<double> {};

TEST_P(ConsentSolverProperty, SolveThenEvaluateRoundTrips) {
  double target = GetParam();
  double af = phone::ConsentModel::solve_acceptance_factor(target);
  EXPECT_GE(af, 0.0);
  EXPECT_LT(af, 1.0);
  phone::ConsentModel model(af);
  EXPECT_NEAR(model.eventual_acceptance_probability(), target, 1e-9);
}

TEST_P(ConsentSolverProperty, PerMessageCurveIsMonotoneDecreasing) {
  double target = GetParam();
  phone::ConsentModel model = phone::ConsentModel::for_eventual_acceptance(target);
  for (int n = 1; n < 40; ++n) {
    EXPECT_GE(model.acceptance_probability(n), model.acceptance_probability(n + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(TargetGrid, ConsentSolverProperty,
                         ::testing::Values(0.01, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70));

// ---- Scheduler: random workloads preserve order and lose no events. ----

class SchedulerFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzzProperty, RandomScheduleCancelWorkload) {
  rng::Stream stream(GetParam());
  des::Scheduler sched;
  int fired = 0;
  int expected = 0;
  std::vector<des::EventHandle> handles;
  SimTime last = SimTime::zero();
  bool monotone = true;

  for (int i = 0; i < 2000; ++i) {
    SimTime at = SimTime::minutes(stream.uniform(0.0, 10000.0));
    handles.push_back(sched.schedule_at(at, [&] {
      if (sched.now() < last) monotone = false;
      last = sched.now();
      ++fired;
    }));
    ++expected;
    if (stream.bernoulli(0.3) && !handles.empty()) {
      auto victim = handles[static_cast<std::size_t>(stream.uniform_index(handles.size()))];
      if (sched.cancel(victim)) --expected;
    }
  }
  sched.run_to_quiescence();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(fired, expected) << "every non-cancelled event fires exactly once";
  EXPECT_EQ(sched.pending_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzzProperty,
                         ::testing::Values<std::uint64_t>(11, 22, 33, 44, 55));

// ---- TimeSeries: resampling agrees with exact evaluation anywhere. ----

class TimeSeriesResampleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimeSeriesResampleProperty, ResampleMatchesAt) {
  rng::Stream stream(GetParam());
  stats::TimeSeries series;
  SimTime t = SimTime::zero();
  for (int i = 0; i < 200; ++i) {
    t += SimTime::minutes(stream.exponential(10.0));
    series.push(t, static_cast<double>(i + 1));
  }
  SimTime step = SimTime::minutes(stream.uniform(1.0, 60.0));
  SimTime horizon = SimTime::minutes(3000.0);
  auto grid = series.resample(step, horizon);
  for (const auto& point : grid) {
    ASSERT_DOUBLE_EQ(point.value, series.at(point.time));
  }
  ASSERT_EQ(grid.front().time, SimTime::zero());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimeSeriesResampleProperty,
                         ::testing::Values<std::uint64_t>(101, 202, 303, 404));

// ---- Virus budgets: no profile ever exceeds its allowance within a
// window, across the profile grid. ----

struct BudgetParam {
  virus::BudgetKind kind;
  std::uint32_t limit;
  double min_gap_minutes;
};

class VirusBudgetProperty : public ::testing::TestWithParam<BudgetParam> {};

TEST_P(VirusBudgetProperty, PerWindowSendsNeverExceedBudget) {
  const BudgetParam& param = GetParam();

  // Drive a single sending process in isolation and count its messages
  // per aligned 24-hour bucket through a gateway observer.
  des::Scheduler scheduler;
  rng::Stream virus_stream(777), net_stream(779);
  net::Gateway gateway(scheduler, net_stream, SimTime::minutes(1.0));
  std::vector<int> per_window(8, 0);
  class WindowCounter final : public net::GatewayObserver {
   public:
    explicit WindowCounter(std::vector<int>& buckets) : buckets_(&buckets) {}
    void on_submitted(const net::MmsMessage&, SimTime now) override {
      auto bucket = static_cast<std::size_t>(now.to_days());
      if (bucket < buckets_->size()) ++(*buckets_)[bucket];
    }
    std::vector<int>* buckets_;
  } counter(per_window);
  gateway.add_observer(counter);

  virus::VirusProfile profile = virus::virus1();
  profile.budget = param.kind;
  profile.budget_limit = param.limit == 0 ? 1 : param.limit;
  profile.min_message_gap = SimTime::minutes(param.min_gap_minutes);
  profile.align_first_burst = (param.kind == virus::BudgetKind::kPerDayAligned);

  virus::SendingEnvironment env;
  env.scheduler = &scheduler;
  env.virus_stream = &virus_stream;
  env.gateway = &gateway;
  std::vector<net::PhoneId> contacts{1, 2, 3, 4, 5, 6, 7, 8};
  virus::SenderTable senders(env, profile, 0, 1, 1);
  senders.start(0, contacts);
  scheduler.run_until(SimTime::days(6.0));

  for (std::size_t day = 0; day < 6; ++day) {
    switch (param.kind) {
      case virus::BudgetKind::kPerDayAligned:
        ASSERT_LE(per_window[day], static_cast<int>(param.limit)) << "day " << day;
        break;
      case virus::BudgetKind::kPerReboot:
        // Exponential reboots can refill within a day, but the count is
        // still bounded by (reboots that day + 1) x limit; with mean
        // 24 h, 4 refills in one day has probability < 1e-3.
        ASSERT_LE(per_window[day], static_cast<int>(param.limit) * 5) << "day " << day;
        break;
      case virus::BudgetKind::kUnlimited: {
        // Only the gap bounds the rate.
        double slots_per_day = 24.0 * 60.0 / param.min_gap_minutes;
        ASSERT_LE(per_window[day], static_cast<int>(slots_per_day) + 1) << "day " << day;
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BudgetGrid, VirusBudgetProperty,
    ::testing::Values(BudgetParam{virus::BudgetKind::kPerReboot, 10, 30.0},
                      BudgetParam{virus::BudgetKind::kPerReboot, 30, 30.0},
                      BudgetParam{virus::BudgetKind::kPerDayAligned, 10, 1.0},
                      BudgetParam{virus::BudgetKind::kPerDayAligned, 30, 1.0},
                      BudgetParam{virus::BudgetKind::kUnlimited, 0, 5.0}),
    [](const auto& param_info) { return "case" + std::to_string(param_info.index); });

// ---- Whole-simulation determinism across every virus preset. ----

class DeterminismProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismProperty, SameSeedSameTrajectory) {
  const auto suite = virus::paper_virus_suite();
  const auto& profile = suite[static_cast<std::size_t>(GetParam())];
  core::ScenarioConfig config;
  config.population = 150;
  config.topology.mean_degree = 15.0;
  config.virus = profile;
  config.horizon = min(core::paper_horizon_for(profile), SimTime::days(3.0));

  core::Simulation a(config, 4242), b(config, 4242);
  core::ReplicationResult ra = a.run(), rb = b.run();
  EXPECT_EQ(ra.total_infected, rb.total_infected) << profile.name;
  EXPECT_EQ(ra.gateway.messages_submitted, rb.gateway.messages_submitted) << profile.name;
  EXPECT_EQ(ra.gateway.recipients_delivered, rb.gateway.recipients_delivered) << profile.name;
}

INSTANTIATE_TEST_SUITE_P(AllViruses, DeterminismProperty, ::testing::Values(0, 1, 2, 3),
                         [](const auto& param_info) {
                           return "virus" + std::to_string(param_info.param + 1);
                         });

// ---- Infection count is monotone nondecreasing in every run. ----

class MonotoneInfectionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonotoneInfectionProperty, CurveNeverDecreases) {
  core::ScenarioConfig config;
  config.population = 200;
  config.topology.mean_degree = 20.0;
  config.virus = virus::virus3();
  config.horizon = SimTime::hours(25.0);
  core::Simulation sim(config, GetParam());
  core::ReplicationResult r = sim.run();
  double last = 0.0;
  for (const auto& point : r.infections.points()) {
    ASSERT_GE(point.value, last);
    ASSERT_GE(point.time, SimTime::zero());
    last = point.value;
  }
  EXPECT_LE(last, 200.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotoneInfectionProperty,
                         ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6));

// ---- Seed derivation: no collisions across a replication x component
// grid of realistic size. ----

TEST(SeedLattice, NoCollisionsOnReplicationComponentGrid) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t rep = 0; rep < 200; ++rep) {
    for (std::uint64_t component = 1; component <= 6; ++component) {
      seen.insert(rng::derive_seed(rng::derive_seed(0xBEEF, rep), component));
    }
  }
  EXPECT_EQ(seen.size(), 1200u);
}

}  // namespace
}  // namespace mvsim
