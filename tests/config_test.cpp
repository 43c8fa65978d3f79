// Unit tests for src/config: durations, scenario JSON bindings,
// results export.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "config/results_io.h"
#include "config/scenario_io.h"
#include "core/presets.h"
#include "core/runner.h"
#include "util/duration.h"

namespace mvsim::config {
namespace {

TEST(Duration, ParsesEveryUnit) {
  EXPECT_EQ(util::parse_duration("90s"), SimTime::seconds(90.0));
  EXPECT_EQ(util::parse_duration("30min"), SimTime::minutes(30.0));
  EXPECT_EQ(util::parse_duration("30m"), SimTime::minutes(30.0));
  EXPECT_EQ(util::parse_duration("6h"), SimTime::hours(6.0));
  EXPECT_EQ(util::parse_duration("6hr"), SimTime::hours(6.0));
  EXPECT_EQ(util::parse_duration("1.5d"), SimTime::days(1.5));
  EXPECT_EQ(util::parse_duration("2 days"), SimTime::days(2.0));
  EXPECT_EQ(util::parse_duration("  45 min  "), SimTime::minutes(45.0));
  EXPECT_EQ(util::parse_duration("0h"), SimTime::zero());
}

TEST(Duration, RejectsGarbage) {
  EXPECT_THROW((void)util::parse_duration(""), std::invalid_argument);
  EXPECT_THROW((void)util::parse_duration("30"), std::invalid_argument);
  EXPECT_THROW((void)util::parse_duration("fast"), std::invalid_argument);
  EXPECT_THROW((void)util::parse_duration("30 fortnights"), std::invalid_argument);
  EXPECT_THROW((void)util::parse_duration("h30"), std::invalid_argument);
}

TEST(Duration, FormatsWithNaturalUnits) {
  EXPECT_EQ(util::format_duration(SimTime::days(2.0)), "2d");
  EXPECT_EQ(util::format_duration(SimTime::hours(6.0)), "6h");
  EXPECT_EQ(util::format_duration(SimTime::minutes(30.0)), "30min");
  EXPECT_EQ(util::format_duration(SimTime::seconds(90.0)), "90s");
  EXPECT_EQ(util::format_duration(SimTime::hours(36.0)), "36h") << "1.5d is not integral in days";
  EXPECT_EQ(util::format_duration(SimTime::zero()), "0min");
}

TEST(Duration, FormatParseRoundTrip) {
  for (SimTime t : {SimTime::minutes(1.0), SimTime::minutes(90.0), SimTime::hours(24.0),
                    SimTime::days(18.0), SimTime::seconds(10.0)}) {
    EXPECT_EQ(util::parse_duration(util::format_duration(t)), t);
  }
}

TEST(ScenarioIo, DefaultScenarioRoundTrips) {
  core::ScenarioConfig original;
  core::ScenarioConfig round = scenario_from_json(to_json(original));
  EXPECT_EQ(round.name, original.name);
  EXPECT_EQ(round.population, original.population);
  EXPECT_DOUBLE_EQ(round.susceptible_fraction, original.susceptible_fraction);
  EXPECT_EQ(round.horizon, original.horizon);
  EXPECT_EQ(round.virus.name, original.virus.name);
  EXPECT_EQ(round.virus.budget, original.virus.budget);
  EXPECT_EQ(round.responses.enabled_count(), 0);
}

TEST(ScenarioIo, EveryFigurePresetRoundTrips) {
  std::vector<core::ScenarioConfig> presets;
  for (const auto& profile : virus::paper_virus_suite()) {
    presets.push_back(core::baseline_scenario(profile));
  }
  presets.push_back(core::fig2_scan_scenario(SimTime::hours(6.0)));
  presets.push_back(core::fig3_detection_scenario(0.95));
  presets.push_back(core::fig4_education_scenario(virus::virus2(), 0.20));
  presets.push_back(core::fig5_immunization_scenario(SimTime::hours(24.0), SimTime::hours(6.0)));
  presets.push_back(core::fig6_monitoring_scenario(SimTime::minutes(15.0)));
  presets.push_back(core::fig7_blacklist_scenario(10));

  for (const auto& preset : presets) {
    core::ScenarioConfig round = scenario_from_json(to_json(preset));
    EXPECT_EQ(json::stringify(to_json(round), 0), json::stringify(to_json(preset), 0))
        << preset.name << ": JSON round-trip must be a fixed point";
    EXPECT_EQ(round.responses.enabled_count(), preset.responses.enabled_count());
    EXPECT_EQ(round.virus.targeting, preset.virus.targeting);
    EXPECT_EQ(round.horizon, preset.horizon);
  }
}

TEST(ScenarioIo, VirusPresetKeySeedsProfile) {
  core::ScenarioConfig config = scenario_from_text(R"({
    "virus": {"preset": "virus3"},
    "horizon": "25h",
    "sample_step": "15min"
  })");
  EXPECT_EQ(config.virus.name, "Virus 3");
  EXPECT_EQ(config.virus.targeting, virus::TargetingMode::kRandomDialing);
}

TEST(ScenarioIo, PresetWithOverrides) {
  core::ScenarioConfig config = scenario_from_text(R"({
    "virus": {"preset": "virus1", "min_message_gap": "45min", "budget_limit": 10}
  })");
  EXPECT_EQ(config.virus.min_message_gap, SimTime::minutes(45.0));
  EXPECT_EQ(config.virus.budget_limit, 10u);
  EXPECT_EQ(config.virus.budget, virus::BudgetKind::kPerReboot) << "non-overridden keys kept";
}

TEST(ScenarioIo, ResponsesDecodeFromJson) {
  core::ScenarioConfig config = scenario_from_text(R"({
    "responses": {
      "gateway_scan": {"activation_delay": "12h"},
      "monitoring": {"forced_wait": "15min", "window_message_threshold": 9},
      "user_education": {"eventual_acceptance": 0.1}
    }
  })");
  ASSERT_TRUE(config.responses.gateway_scan.has_value());
  EXPECT_EQ(config.responses.gateway_scan->activation_delay, SimTime::hours(12.0));
  ASSERT_TRUE(config.responses.monitoring.has_value());
  EXPECT_EQ(config.responses.monitoring->forced_wait, SimTime::minutes(15.0));
  EXPECT_EQ(config.responses.monitoring->window_message_threshold, 9u);
  ASSERT_TRUE(config.responses.user_education.has_value());
  EXPECT_DOUBLE_EQ(config.responses.user_education->eventual_acceptance, 0.1);
  EXPECT_FALSE(config.responses.blacklist.has_value());
}

TEST(ScenarioIo, ProximityChannelRoundTrips) {
  core::ScenarioConfig original;
  original.proximity = core::ProximityChannelConfig{};
  original.proximity->grid_width = 8;
  original.proximity->scan_interval_mean = SimTime::minutes(45.0);
  core::ScenarioConfig round = scenario_from_json(to_json(original));
  ASSERT_TRUE(round.proximity.has_value());
  EXPECT_EQ(round.proximity->grid_width, 8u);
  EXPECT_EQ(round.proximity->scan_interval_mean, SimTime::minutes(45.0));

  core::ScenarioConfig no_proximity = scenario_from_json(to_json(core::ScenarioConfig{}));
  EXPECT_FALSE(no_proximity.proximity.has_value());

  core::ScenarioConfig from_text = scenario_from_text(
      R"({"proximity": {"grid_width": 4, "grid_height": 4, "dwell_mean": "20min"}})");
  ASSERT_TRUE(from_text.proximity.has_value());
  EXPECT_EQ(from_text.proximity->dwell_mean, SimTime::minutes(20.0));
  EXPECT_THROW(
      (void)scenario_from_text(R"({"proximity": {"cell_count": 9}})"),
      std::invalid_argument);
}

TEST(ScenarioIo, UnknownKeysAreRejectedWithPath) {
  try {
    (void)scenario_from_text(R"({"populaton": 500})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("$.populaton"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos);
  }
  EXPECT_THROW((void)scenario_from_text(R"({"virus": {"presset": "virus1"}})"),
               std::invalid_argument);
  EXPECT_THROW((void)scenario_from_text(R"({"responses": {"gateway_scan": {"delay": "6h"}}})"),
               std::invalid_argument);
}

TEST(ScenarioIo, TypeErrorsCarryPath) {
  try {
    (void)scenario_from_text(R"({"population": "lots"})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("$.population"), std::string::npos);
  }
  EXPECT_THROW((void)scenario_from_text(R"({"read_delay_mean": 60})"), std::invalid_argument)
      << "durations must be unit-tagged strings";
  EXPECT_THROW((void)scenario_from_text(R"({"virus": {"targeting": "telepathy"}})"),
               std::invalid_argument);
  EXPECT_THROW((void)scenario_from_text(R"({"virus": {"preset": "virus9"}})"),
               std::invalid_argument);
  EXPECT_THROW((void)scenario_from_text(R"({"population": 12.5})"), std::invalid_argument);
}

TEST(ScenarioIo, DecodedScenarioIsValidated) {
  // Structurally fine JSON, semantically invalid config.
  EXPECT_THROW((void)scenario_from_text(R"({"population": 1})"), std::invalid_argument);
  EXPECT_THROW((void)scenario_from_text(R"({"eventual_acceptance": 0.9})"),
               std::invalid_argument);
}

TEST(ScenarioIo, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/mvsim_scenario_test.json";
  core::ScenarioConfig original = core::fig6_monitoring_scenario(SimTime::minutes(30.0));
  save_scenario_file(original, path);
  core::ScenarioConfig loaded = load_scenario_file(path);
  EXPECT_EQ(json::stringify(to_json(loaded), 0), json::stringify(to_json(original), 0));
  std::remove(path.c_str());
}

TEST(ScenarioIo, MissingFileThrows) {
  EXPECT_THROW((void)load_scenario_file("/nonexistent/path/scenario.json"),
               std::runtime_error);
}

TEST(ScenarioIo, SharedSeedRoundTrips) {
  core::ScenarioConfig config;
  config.topology.shared_seed = 0xFEED;
  json::Value encoded = to_json(config);
  core::ScenarioConfig decoded = scenario_from_json(encoded);
  ASSERT_TRUE(decoded.topology.shared_seed.has_value());
  EXPECT_EQ(*decoded.topology.shared_seed, 0xFEEDu);

  core::ScenarioConfig plain;
  json::Value plain_encoded = to_json(plain);
  EXPECT_FALSE(scenario_from_json(plain_encoded).topology.shared_seed.has_value())
      << "unset shared_seed must stay unset through a round trip";
}

TEST(ScenarioIo, TriggerNoneAndThresholdZeroRoundTrip) {
  core::ScenarioConfig original = core::bluetooth_worm_scenario();
  json::Value encoded = to_json(original);
  const std::string text = json::stringify(encoded, 0);
  EXPECT_NE(text.find(R"("trigger":"none")"), std::string::npos) << text;
  EXPECT_NE(text.find(R"("detectability_threshold":0)"), std::string::npos) << text;
  core::ScenarioConfig round = scenario_from_json(encoded);
  EXPECT_EQ(round.virus.trigger, virus::SendTrigger::kNone);
  EXPECT_EQ(round.responses.detectability_threshold, 0u);
  EXPECT_EQ(json::stringify(to_json(round), 0), text) << "round-trip must be a fixed point";
}

TEST(ScenarioIo, UnknownTriggerListsEveryChoice) {
  try {
    (void)scenario_from_text(R"({"virus": {"trigger": "psychic"}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("$.virus.trigger"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("(active | piggyback | none)"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioIo, ShippedScenarioFilesLoadValidateAndRoundTrip) {
#ifndef MVSIM_SOURCE_DIR
  GTEST_SKIP() << "MVSIM_SOURCE_DIR not defined";
#else
  int files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(MVSIM_SOURCE_DIR) + "/scenarios")) {
    if (entry.path().extension() != ".json") continue;
    ++files;
    const std::string path = entry.path().string();
    core::ScenarioConfig loaded;
    ASSERT_NO_THROW(loaded = load_scenario_file(path)) << path;
    EXPECT_TRUE(loaded.validate().ok()) << path << ": " << loaded.validate().to_string();
    const std::string text = json::stringify(to_json(loaded), 0);
    EXPECT_EQ(json::stringify(to_json(scenario_from_json(to_json(loaded))), 0), text)
        << path << ": JSON round-trip must be a fixed point";
  }
  EXPECT_GE(files, 3) << "scenarios/ should ship at least the three documented examples";
#endif
}

TEST(ResultsIo, SummaryJsonHasTheHeadlineNumbers) {
  core::ScenarioConfig config = core::baseline_scenario(virus::virus1());
  config.population = 150;
  config.topology.mean_degree = 15.0;
  config.horizon = SimTime::days(3.0);
  core::RunnerOptions options;
  options.replications = 3;
  core::ExperimentResult result = core::run_experiment(config, options);

  json::Value summary = results_to_json(config, result);
  const json::Object& o = summary.as_object();
  EXPECT_EQ(o.at("replications").as_number(), 3.0);
  EXPECT_GT(o.at("final_infections").as_object().at("mean").as_number(), 0.0);
  EXPECT_TRUE(o.at("hours_to_plateau_fraction").is_object());
  EXPECT_DOUBLE_EQ(o.at("expected_unrestrained_plateau").as_number(), 48.0);
  // The summary must itself be valid JSON end-to-end.
  EXPECT_NO_THROW((void)json::parse(json::stringify(summary, 2)));
}

TEST(ResultsIo, CurveCsvHasHeaderAndGridRows) {
  core::ScenarioConfig config = core::baseline_scenario(virus::virus1());
  config.population = 120;
  config.topology.mean_degree = 12.0;
  config.horizon = SimTime::hours(10.0);
  core::RunnerOptions options;
  options.replications = 2;
  core::ExperimentResult result = core::run_experiment(config, options);

  std::ostringstream out;
  write_curve_csv(result, out);
  std::istringstream lines(out.str());
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header, "hours,mean_infected,stddev,ci95,min,max");
  int rows = 0;
  for (std::string line; std::getline(lines, line);) ++rows;
  EXPECT_EQ(rows, 11) << "grid 0..10h at 1h step";
}

}  // namespace
}  // namespace mvsim::config
