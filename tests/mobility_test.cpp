// Unit + integration tests for src/mobility: grid occupancy, movement,
// and the Bluetooth worm extension (the bluetooth-worm scenario on the
// engine core).
#include <gtest/gtest.h>

#include <numeric>

#include "core/presets.h"
#include "core/runner.h"
#include "core/simulation.h"
#include "mobility/grid.h"
#include "mobility/movement.h"

namespace mvsim::mobility {
namespace {

TEST(MobilityGrid, PlaceAndQuery) {
  MobilityGrid grid(4, 4, 10);
  EXPECT_EQ(grid.cell_count(), 16u);
  grid.place(3, 5);
  EXPECT_EQ(grid.cell_of(3), 5u);
  EXPECT_EQ(grid.occupancy(5), 1u);
  ASSERT_EQ(grid.phones_in(5).size(), 1u);
  EXPECT_EQ(grid.phones_in(5)[0], 3u);
}

TEST(MobilityGrid, RejectsBadArguments) {
  EXPECT_THROW(MobilityGrid(0, 4, 10), std::invalid_argument);
  MobilityGrid grid(4, 4, 10);
  EXPECT_THROW(grid.place(10, 0), std::out_of_range);
  EXPECT_THROW(grid.place(0, 16), std::out_of_range);
  grid.place(0, 0);
  EXPECT_THROW(grid.place(0, 1), std::logic_error);
  EXPECT_THROW((void)grid.cell_of(1), std::out_of_range) << "unplaced phone";
  EXPECT_THROW((void)grid.phones_in(99), std::out_of_range);
}

TEST(MobilityGrid, UniformPlacementCoversEveryPhone) {
  MobilityGrid grid(8, 8, 200);
  rng::Stream stream(1);
  grid.place_all_uniform(stream);
  std::size_t total = 0;
  for (CellId c = 0; c < grid.cell_count(); ++c) total += grid.occupancy(c);
  EXPECT_EQ(total, 200u);
  EXPECT_DOUBLE_EQ(grid.mean_occupancy(), 200.0 / 64.0);
  EXPECT_GE(grid.max_occupancy(), 4u);
}

TEST(MobilityGrid, MoveToNeighbourPreservesOccupancyInvariant) {
  MobilityGrid grid(5, 5, 50);
  rng::Stream stream(2);
  grid.place_all_uniform(stream);
  for (int step = 0; step < 2000; ++step) {
    PhoneId phone = static_cast<PhoneId>(stream.uniform_index(50));
    CellId before = grid.cell_of(phone);
    grid.move_to_random_neighbour(phone, stream);
    CellId after = grid.cell_of(phone);
    ASSERT_NE(before, after) << "a move always changes cell on a >1x1 grid";
    // Torus 4-neighbourhood: cells differ in exactly one coordinate by 1 (mod 5).
    std::uint32_t bx = before % 5, by = before / 5, ax = after % 5, ay = after / 5;
    std::uint32_t dx = std::min((bx - ax + 5) % 5, (ax - bx + 5) % 5);
    std::uint32_t dy = std::min((by - ay + 5) % 5, (ay - by + 5) % 5);
    ASSERT_EQ(dx + dy, 1u);
  }
  std::size_t total = 0;
  for (CellId c = 0; c < grid.cell_count(); ++c) total += grid.occupancy(c);
  EXPECT_EQ(total, 50u) << "no phone lost or duplicated across 2000 moves";
}

TEST(MobilityGrid, SampleCoLocatedExcludesSelf) {
  MobilityGrid grid(2, 2, 3);
  grid.place(0, 0);
  grid.place(1, 0);
  grid.place(2, 1);
  rng::Stream stream(3);
  PhoneId out = 99;
  ASSERT_TRUE(grid.sample_co_located(0, stream, out));
  EXPECT_EQ(out, 1u);
  EXPECT_FALSE(grid.sample_co_located(2, stream, out)) << "alone in its cell";
}

TEST(MovementProcess, PhonesActuallyMove) {
  des::Scheduler scheduler;
  MobilityGrid grid(6, 6, 30);
  rng::Stream stream(4);
  grid.place_all_uniform(stream);
  MovementProcess movement(scheduler, grid, stream, SimTime::minutes(30.0));
  scheduler.run_until(SimTime::hours(10.0));
  // 30 phones x ~20 moves expected in 10 h.
  EXPECT_GT(movement.moves_performed(), 300u);
  EXPECT_LT(movement.moves_performed(), 1500u);
}

TEST(MovementProcess, RejectsNonPositiveDwell) {
  des::Scheduler scheduler;
  MobilityGrid grid(2, 2, 1);
  rng::Stream stream(5);
  grid.place_all_uniform(stream);
  EXPECT_THROW(MovementProcess(scheduler, grid, stream, SimTime::zero()),
               std::invalid_argument);
}

// ---- Bluetooth worm (the bluetooth-worm preset on the engine core) ----

core::ScenarioConfig small_bluetooth() {
  core::ScenarioConfig config = core::bluetooth_worm_scenario();
  config.population = 200;
  config.topology.mean_degree = 8.0;  // the worm sends no MMS; keep the unused graph small
  config.proximity->grid_width = 7;
  config.proximity->grid_height = 7;
  config.horizon = SimTime::days(5.0);
  return config;
}

core::ExperimentResult run_bluetooth(const core::ScenarioConfig& config, int replications,
                                     std::uint64_t master_seed) {
  core::RunnerOptions options;
  options.replications = replications;
  options.master_seed = master_seed;
  return core::run_experiment(config, options);
}

TEST(BluetoothConfig, DefaultsValidate) {
  core::ScenarioConfig config = core::bluetooth_worm_scenario();
  EXPECT_TRUE(config.validate().ok());
  EXPECT_DOUBLE_EQ(config.expected_unrestrained_plateau(), 320.0);
  EXPECT_EQ(config.virus.trigger, virus::SendTrigger::kNone);
  EXPECT_EQ(config.responses.detectability_threshold, 0u);
}

TEST(BluetoothConfig, ValidationCatchesBadFields) {
  core::ScenarioConfig config = small_bluetooth();
  config.proximity->grid_width = 0;
  EXPECT_FALSE(config.validate().ok());
  config = small_bluetooth();
  config.proximity->scan_interval_mean = SimTime::zero();
  EXPECT_FALSE(config.validate().ok());
  config = small_bluetooth();
  config.eventual_acceptance = 0.9;
  EXPECT_FALSE(config.validate().ok());
  config = small_bluetooth();
  response::ImmunizationConfig immunization;
  immunization.development_time = SimTime::minutes(-1.0);
  config.responses.immunization = immunization;
  EXPECT_FALSE(config.validate().ok());
}

TEST(BluetoothWorm, TriggerNoneNeedsAProximityBlock) {
  core::ScenarioConfig config = core::bluetooth_worm_scenario();
  config.proximity.reset();
  ValidationErrors errors = config.validate();
  ASSERT_FALSE(errors.ok());
  EXPECT_NE(errors.to_string().find("trigger 'none'"), std::string::npos) << errors.to_string();
  EXPECT_NE(errors.to_string().find("proximity"), std::string::npos) << errors.to_string();
}

TEST(BluetoothWorm, WormSpreadsThroughProximity) {
  core::Simulation sim(small_bluetooth(), 77);
  core::ReplicationResult r = sim.run();
  EXPECT_GT(r.total_infected, 10u) << "the worm spreads";
  EXPECT_GT(r.bluetooth_push_attempts, r.total_infected) << "more offers than acceptances";
  EXPECT_EQ(r.gateway.messages_submitted, 0u) << "no MMS ever reaches a gateway";
  // Plateau bounded by the consent model: 200 x 0.8 x 0.40 = 64.
  EXPECT_LE(r.total_infected, 80u);
}

TEST(BluetoothWorm, DeterministicGivenSeed) {
  core::ScenarioConfig config = small_bluetooth();
  core::ReplicationResult a = core::Simulation(config, 42).run();
  core::ReplicationResult b = core::Simulation(config, 42).run();
  EXPECT_EQ(a.total_infected, b.total_infected);
  EXPECT_EQ(a.bluetooth_push_attempts, b.bluetooth_push_attempts);
  EXPECT_EQ(a.metrics.counter_value("des.events_executed"),
            b.metrics.counter_value("des.events_executed"));
}

TEST(BluetoothWorm, SparserWorldSpreadsSlower) {
  core::ScenarioConfig dense = small_bluetooth();  // 7x7: ~4 phones/cell
  core::ScenarioConfig sparse = small_bluetooth();
  sparse.proximity->grid_width = 25;
  sparse.proximity->grid_height = 25;  // 0.32 phones/cell: encounters are rare
  core::ExperimentResult dense_result = run_bluetooth(dense, 4, 9);
  core::ExperimentResult sparse_result = run_bluetooth(sparse, 4, 9);
  // Compare early-growth speed (time to half the consent plateau of
  // 64): the final levels converge once both saturate, but a sparse
  // world takes distinctly longer to get there.
  SimTime dense_half = dense_result.curve.mean_first_time_at_or_above(32.0);
  SimTime sparse_half = sparse_result.curve.mean_first_time_at_or_above(32.0);
  EXPECT_LT(dense_half + SimTime::hours(6.0), sparse_half)
      << "proximity spread is density-limited";
}

TEST(BluetoothWorm, EducationLowersThePlateau) {
  core::ScenarioConfig config = small_bluetooth();
  core::ExperimentResult base = run_bluetooth(config, 4, 10);
  config.responses.user_education = response::UserEducationConfig{0.10};
  core::ExperimentResult educated = run_bluetooth(config, 4, 10);
  EXPECT_LT(educated.final_infections.mean(), 0.6 * base.final_infections.mean());
}

TEST(BluetoothWorm, ImmunizationStopsTheWorm) {
  core::ScenarioConfig config = small_bluetooth();
  core::ExperimentResult base = run_bluetooth(config, 4, 11);
  // Known at t = 0 (threshold 0): 6 h to notice plus 6 h to build the
  // patch, then a 1 h rollout.
  response::ImmunizationConfig immunization;
  immunization.development_time = SimTime::hours(12.0);
  immunization.deployment_duration = SimTime::hours(1.0);
  config.responses.immunization = immunization;
  core::ExperimentResult patched = run_bluetooth(config, 4, 11);
  EXPECT_LT(patched.final_infections.mean(), 0.8 * base.final_infections.mean());
  // After the rollout the curve must be flat: compare day 3 to final.
  EXPECT_NEAR(patched.curve.mean_at(SimTime::days(3.0)), patched.curve.final_mean(), 1.0);
  for (const core::ReplicationResult& r : patched.replications) {
    EXPECT_EQ(r.detected_at, SimTime::zero());
  }
}

TEST(BluetoothExperiment, AggregatesReplications) {
  core::ExperimentResult result = run_bluetooth(small_bluetooth(), 3, 5);
  EXPECT_EQ(result.curve.replication_count(), 3u);
  EXPECT_EQ(result.final_infections.count(), 3u);
  EXPECT_GT(result.metrics.counter_value("des.events_executed"), 0u);
  EXPECT_THROW((void)run_bluetooth(small_bluetooth(), 0, 5), std::invalid_argument);
}

}  // namespace
}  // namespace mvsim::mobility
