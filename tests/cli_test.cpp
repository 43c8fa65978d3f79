// Unit tests for src/cli: argument handling, preset registry, and the
// run/preset/validate commands end to end (through the library entry
// point, no subprocesses).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "cli/preset_registry.h"
#include "config/scenario_io.h"
#include "metrics/report.h"
#include "obs/manifest.h"
#include "util/json.h"

namespace mvsim::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult invoke(std::vector<std::string> args) {
  std::ostringstream out, err;
  int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

/// Writes a small, fast scenario file and returns its path. The name is
/// unique per process: ctest registers each TEST as its own process and
/// may run them concurrently, so a shared path would race with the
/// std::remove() each test ends with.
std::string write_small_scenario() {
  static const std::string unique =
      std::to_string(static_cast<long long>(::getpid()));
  std::string path = ::testing::TempDir() + "/mvsim_cli_scenario_" + unique + ".json";
  std::ofstream file(path);
  file << R"({
    "name": "cli-test",
    "population": 120,
    "topology": {"mean_degree": 12},
    "virus": {"preset": "virus1"},
    "horizon": "24h"
  })";
  return path;
}

TEST(PresetRegistry, ListsAllPresets) {
  auto presets = list_presets();
  EXPECT_EQ(presets.size(), 12u);
  EXPECT_EQ(presets[0].name, "virus1-baseline");
  for (const auto& entry : presets) {
    EXPECT_FALSE(entry.description.empty()) << entry.name;
    EXPECT_TRUE(find_preset(entry.name).has_value()) << entry.name;
  }
}

TEST(PresetRegistry, UnknownNameIsNullopt) {
  EXPECT_FALSE(find_preset("virus9-baseline").has_value());
  EXPECT_FALSE(find_preset("").has_value());
}

TEST(PresetRegistry, PresetsAreValidScenarios) {
  for (const auto& entry : list_presets()) {
    auto preset = find_preset(entry.name);
    ASSERT_TRUE(preset.has_value());
    EXPECT_TRUE(preset->validate().ok()) << entry.name;
  }
}

TEST(Cli, NoArgsPrintsUsageAndFails) {
  CliResult r = invoke({});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  EXPECT_EQ(invoke({"help"}).code, 0);
  EXPECT_EQ(invoke({"--help"}).code, 0);
  EXPECT_NE(invoke({"-h"}).out.find("mvsim run"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  CliResult r = invoke({"launch-missiles"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, PresetsCommandListsNames) {
  CliResult r = invoke({"presets"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("virus3-baseline"), std::string::npos);
  EXPECT_NE(r.out.find("fig6-monitoring"), std::string::npos);
}

TEST(Cli, PresetCommandEmitsLoadableJson) {
  CliResult r = invoke({"preset", "fig7-blacklist"});
  ASSERT_EQ(r.code, 0) << r.err;
  core::ScenarioConfig config = config::scenario_from_text(r.out);
  EXPECT_TRUE(config.responses.blacklist.has_value());
  EXPECT_EQ(config.virus.name, "Virus 3");
}

TEST(Cli, MarketSharePresetRoundTripsSharedSeed) {
  CliResult r = invoke({"preset", "market-share"});
  ASSERT_EQ(r.code, 0) << r.err;
  core::ScenarioConfig config = config::scenario_from_text(r.out);
  ASSERT_TRUE(config.topology.shared_seed.has_value());
  EXPECT_EQ(*config.topology.shared_seed, 0x6d61726b6574ull);
  EXPECT_DOUBLE_EQ(config.susceptible_fraction, 0.30);
  EXPECT_DOUBLE_EQ(config.topology.mean_degree, 8.0);
}

TEST(Cli, PresetCommandRejectsUnknown) {
  CliResult r = invoke({"preset", "nope"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown preset"), std::string::npos);
}

TEST(Cli, PresetCommandWantsExactlyOneArg) {
  EXPECT_EQ(invoke({"preset"}).code, 1);
  EXPECT_EQ(invoke({"preset", "a", "b"}).code, 1);
}

TEST(Cli, RunScenarioFileProducesSummary) {
  std::string path = write_small_scenario();
  CliResult r = invoke({"run", path, "--reps", "2", "--seed", "7"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scenario: cli-test"), std::string::npos);
  EXPECT_NE(r.out.find("final infections:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, RunIsDeterministicGivenSeed) {
  std::string path = write_small_scenario();
  CliResult a = invoke({"run", path, "--reps", "2", "--seed", "55"});
  CliResult b = invoke({"run", path, "--reps", "2", "--seed", "55"});
  EXPECT_EQ(a.out, b.out);
  CliResult c = invoke({"run", path, "--reps", "2", "--seed", "56"});
  EXPECT_NE(a.out, c.out);
  std::remove(path.c_str());
}

TEST(Cli, RunEmitsCsvAndJsonToStdout) {
  std::string path = write_small_scenario();
  CliResult r = invoke(
      {"run", path, "--reps", "2", "--quiet", "--curve-csv", "-", "--summary-json", "-"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("hours,mean_infected"), std::string::npos);
  EXPECT_NE(r.out.find("\"final_infections\""), std::string::npos);
  EXPECT_EQ(r.out.find("scenario: cli-test"), std::string::npos) << "--quiet suppresses prose";
  std::remove(path.c_str());
}

TEST(Cli, RunWritesOutputFiles) {
  std::string scenario_path = write_small_scenario();
  std::string csv_path = ::testing::TempDir() + "/mvsim_cli_curve.csv";
  std::string json_path = ::testing::TempDir() + "/mvsim_cli_summary.json";
  CliResult r = invoke({"run", scenario_path, "--reps", "2", "--quiet", "--curve-csv", csv_path,
                        "--summary-json", json_path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "hours,mean_infected,stddev,ci95,min,max");
  std::ifstream json_file(json_path);
  ASSERT_TRUE(json_file.good());
  std::remove(scenario_path.c_str());
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
}

TEST(Cli, RunAcceptsPresetNames) {
  // Use the fastest preset at reduced reps to keep the test snappy.
  CliResult r = invoke({"run", "virus3-baseline", "--reps", "1", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(Cli, RunRejectsBadFlags) {
  std::string path = write_small_scenario();
  EXPECT_EQ(invoke({"run"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--reps"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--reps", "0"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--reps", "many"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--seed", "xyz"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--frobnicate"}).code, 1);
  std::remove(path.c_str());
}

TEST(Cli, RunUnknownPresetMentionsPresets) {
  CliResult r = invoke({"run", "virus9-baseline"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("mvsim presets"), std::string::npos);
}

TEST(Cli, RunMissingFileFails) {
  CliResult r = invoke({"run", "/no/such/scenario.json"});
  EXPECT_EQ(r.code, 2);
  EXPECT_FALSE(r.err.empty());
}

TEST(Cli, CompareRunsMultipleTargets) {
  std::string path = write_small_scenario();
  CliResult r = invoke({"compare", path, path, "--reps", "2", "--seed", "3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scenario,final_infected"), std::string::npos);
  // Two identical targets at the same seed produce identical rows.
  EXPECT_NE(r.out.find("100.0%"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, CompareNeedsTwoTargets) {
  EXPECT_EQ(invoke({"compare"}).code, 1);
  EXPECT_EQ(invoke({"compare", "virus1-baseline"}).code, 1);
  EXPECT_EQ(invoke({"compare", "a", "b", "--reps"}).code, 1);
  EXPECT_EQ(invoke({"compare", "a", "b", "--reps", "0"}).code, 1);
}

TEST(Cli, RunThreadsFlagParses) {
  std::string path = write_small_scenario();
  EXPECT_EQ(invoke({"run", path, "--reps", "2", "--threads", "2", "--quiet"}).code, 0);
  EXPECT_EQ(invoke({"run", path, "--threads", "many"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--threads", "9999"}).code, 1);
  std::remove(path.c_str());
}

TEST(Cli, RunShardsFlagIsWorkerCountInvariant) {
  // The sharded engine's determinism contract: for a fixed seed and shard
  // count, the worker-thread count never changes the curves.
  std::string path = write_small_scenario();
  CliResult one = invoke({"run", path, "--reps", "2", "--seed", "9", "--shards", "2",
                          "--shard-workers", "1", "--quiet", "--summary-json", "-"});
  CliResult two = invoke({"run", path, "--reps", "2", "--seed", "9", "--shards", "2",
                          "--shard-workers", "2", "--quiet", "--summary-json", "-"});
  ASSERT_EQ(one.code, 0) << one.err;
  ASSERT_EQ(two.code, 0) << two.err;
  EXPECT_EQ(one.out, two.out);
  std::remove(path.c_str());
}

TEST(Cli, RunShardsOneMatchesSerialEngine) {
  // --shards 1 routes to the serial engine, so it must be byte-identical
  // to omitting the flag entirely.
  std::string path = write_small_scenario();
  CliResult serial = invoke({"run", path, "--reps", "2", "--seed", "4", "--quiet",
                             "--summary-json", "-"});
  CliResult one = invoke({"run", path, "--reps", "2", "--seed", "4", "--shards", "1",
                          "--quiet", "--summary-json", "-"});
  ASSERT_EQ(serial.code, 0) << serial.err;
  ASSERT_EQ(one.code, 0) << one.err;
  EXPECT_EQ(serial.out, one.out);
  std::remove(path.c_str());
}

TEST(Cli, RunRejectsBadShardFlags) {
  std::string path = write_small_scenario();
  EXPECT_EQ(invoke({"run", path, "--shards"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--shards", "0"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--shards", "many"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--shards", "9999"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--shard-window", "0"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--shard-window", "-5"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--shard-workers", "many"}).code, 1);
  std::remove(path.c_str());
}

TEST(Cli, ShardWindowReadsScenarioDurations) {
  // --shard-window takes the units scenario JSON uses; a bare number
  // still means minutes. The manifest records the parsed window.
  std::string path = write_small_scenario();
  std::string manifest_path = ::testing::TempDir() + "/mvsim_cli_window_" +
                              std::to_string(static_cast<long long>(::getpid())) + ".json";
  auto window_minutes = [&](const char* window) {
    CliResult r = invoke({"run", path, "--reps", "1", "--seed", "3", "--shards", "2",
                          "--shard-workers", "1", "--shard-window", window, "--quiet",
                          "--manifest", manifest_path});
    EXPECT_EQ(r.code, 0) << window << ": " << r.err;
    return obs::read_manifest_file(manifest_path).shard_window_min;
  };
  EXPECT_DOUBLE_EQ(window_minutes("5"), 5.0);
  EXPECT_DOUBLE_EQ(window_minutes("5min"), 5.0);
  EXPECT_DOUBLE_EQ(window_minutes("0.5h"), 30.0);
  for (const char* bad : {"0", "-1", "abc", "0min", "-2h", "5 fortnights"}) {
    CliResult r = invoke({"run", path, "--shards", "2", "--shard-window", bad});
    EXPECT_EQ(r.code, 1) << bad;
    EXPECT_NE(r.err.find("--shard-window"), std::string::npos) << bad << ": " << r.err;
  }
  std::remove(manifest_path.c_str());
  std::remove(path.c_str());
}

TEST(Cli, StatsPeriodReadsScenarioDurations) {
  std::string path = write_small_scenario();
  auto samples = [&](const char* period) {
    CliResult r = invoke({"run", path, "--reps", "1", "--quiet", "--stats-stream", "-",
                          "--stats-period", period});
    EXPECT_EQ(r.code, 0) << period << ": " << r.err;
    std::size_t count = 0;
    for (std::size_t at = r.out.find("\"type\":\"sample\""); at != std::string::npos;
         at = r.out.find("\"type\":\"sample\"", at + 1)) {
      ++count;
    }
    return count;
  };
  const std::size_t bare = samples("120");
  EXPECT_GT(bare, 0u);
  EXPECT_EQ(samples("2h"), bare);
  EXPECT_EQ(samples("120min"), bare);
  EXPECT_EQ(invoke({"run", path, "--stats-stream", "-", "--stats-period", "-1h"}).code, 1);
  std::remove(path.c_str());
}

TEST(Cli, RunBluetoothWormWithEveryObservabilitySurface) {
  // The Bluetooth worm runs on the engine core, so every observability
  // flag applies to it; its trace names the bluetooth infection channel.
  const std::string dir = ::testing::TempDir() + "/mvsim_cli_bt_";
  CliResult r = invoke({"run", "bluetooth-worm", "--reps", "2", "--quiet", "--metrics",
                        dir + "metrics.json", "--trace", dir + "trace.jsonl", "--profile",
                        dir + "profile.json", "--stats-stream", dir + "stats.ndjson",
                        "--manifest", dir + "manifest.json"});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream trace_file(dir + "trace.jsonl");
  std::ostringstream trace_text;
  trace_text << trace_file.rdbuf();
  EXPECT_NE(trace_text.str().find("\"bluetooth\""), std::string::npos)
      << "infections must be traced on the bluetooth channel";
  CliResult analyzed = invoke({"trace-analyze", dir + "trace.jsonl"});
  ASSERT_EQ(analyzed.code, 0) << analyzed.err;
  EXPECT_NE(analyzed.out.find("bluetooth"), std::string::npos) << analyzed.out;
  EXPECT_EQ(invoke({"report", dir + "manifest.json"}).code, 0);
  for (const char* file :
       {"metrics.json", "trace.jsonl", "profile.json", "stats.ndjson", "manifest.json"}) {
    std::ifstream written(dir + file);
    EXPECT_TRUE(written.good()) << file;
    std::remove((dir + file).c_str());
  }
}

TEST(Cli, RunShardsComposesWithTraceProfileAndStatsStream) {
  // The full shard observability stack in one invocation: merged
  // shard-stamped trace, merged profile with the shard-window series,
  // and an NDJSON stats stream — all from the same run.
  std::string scenario_path = write_small_scenario();
  std::string trace_path = ::testing::TempDir() + "/mvsim_cli_shard_trace.jsonl";
  std::string profile_path = ::testing::TempDir() + "/mvsim_cli_shard_profile.json";
  std::string stats_path = ::testing::TempDir() + "/mvsim_cli_shard_stats.ndjson";
  CliResult r = invoke({"run", scenario_path, "--reps", "2", "--quiet", "--shards", "2",
                        "--trace", trace_path, "--profile", profile_path, "--stats-stream",
                        stats_path, "--stats-period", "60"});
  ASSERT_EQ(r.code, 0) << r.err;

  std::ifstream trace_file(trace_path);
  ASSERT_TRUE(trace_file.good());
  std::ostringstream trace_text;
  trace_text << trace_file.rdbuf();
  EXPECT_NE(trace_text.str().find("\"type\":\"mvsim-trace\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("\"shard\":"), std::string::npos)
      << "sharded trace events must carry their shard";
  CliResult analyzed = invoke({"trace-analyze", trace_path});
  ASSERT_EQ(analyzed.code, 0) << analyzed.err;
  EXPECT_NE(analyzed.out.find("shard 0:"), std::string::npos) << analyzed.out;
  EXPECT_NE(analyzed.out.find("cross-shard deliveries:"), std::string::npos);

  std::ifstream profile_file(profile_path);
  ASSERT_TRUE(profile_file.good());
  std::ostringstream profile_text;
  profile_text << profile_file.rdbuf();
  json::Value profile_doc = json::parse(profile_text.str());
  EXPECT_NE(profile_doc.as_object().find("shard_windows"), nullptr)
      << "sharded profiles must carry the per-window straggler summary";

  std::ifstream stats_file(stats_path);
  ASSERT_TRUE(stats_file.good());
  std::string header_line;
  std::getline(stats_file, header_line);
  EXPECT_NE(header_line.find("\"type\":\"mvsim-stats\""), std::string::npos) << header_line;
  std::string sample_line;
  std::getline(stats_file, sample_line);
  EXPECT_NE(sample_line.find("\"barrier_wait_ms\":"), std::string::npos) << sample_line;

  std::remove(scenario_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(profile_path.c_str());
  std::remove(stats_path.c_str());
}

TEST(Cli, RunStatsStreamOnStdoutAndBadFlags) {
  std::string path = write_small_scenario();
  CliResult r = invoke({"run", path, "--reps", "1", "--quiet", "--stats-stream", "-",
                        "--stats-period", "120"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"type\":\"mvsim-stats\""), std::string::npos);
  EXPECT_NE(r.out.find("\"type\":\"sample\""), std::string::npos);
  EXPECT_EQ(invoke({"run", path, "--stats-stream"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--stats-stream", "-", "--stats-period", "0"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--stats-stream", "-", "--stats-period", "soon"}).code, 1);
  std::remove(path.c_str());
}

TEST(Cli, UsageMentionsShards) {
  CliResult r = invoke({"--help"});
  EXPECT_NE(r.out.find("--shards"), std::string::npos);
  EXPECT_NE(r.out.find("--shard-window"), std::string::npos);
  EXPECT_NE(r.out.find("--shard-workers"), std::string::npos);
  EXPECT_NE(r.out.find("--stats-stream"), std::string::npos);
  EXPECT_NE(r.out.find("--stats-period"), std::string::npos);
  EXPECT_EQ(r.out.find("not combinable with --trace"), std::string::npos)
      << "usage must not claim --shards rejects the observability flags";
}

TEST(Cli, RunEmitsMetricsJsonToStdout) {
  std::string path = write_small_scenario();
  CliResult r = invoke({"run", path, "--reps", "2", "--quiet", "--metrics", "-"});
  ASSERT_EQ(r.code, 0) << r.err;
  json::Value doc = json::parse(r.out);
  const json::Object& root = doc.as_object();
  EXPECT_EQ(root.at("schema_version").as_number(), 1.0);
  EXPECT_EQ(root.at("scenario").as_string(), "cli-test");
  EXPECT_EQ(root.at("replications").as_number(), 2.0);
  // Every emitted metric name must be in the documented catalogue.
  for (const auto& [name, value] : root.at("counters").as_object().entries()) {
    EXPECT_NE(metrics::schema_find(name), nullptr) << name;
  }
  for (const auto& [name, value] : root.at("gauges").as_object().entries()) {
    EXPECT_NE(metrics::schema_find(name), nullptr) << name;
  }
  for (const auto& [name, value] : root.at("histograms").as_object().entries()) {
    EXPECT_NE(metrics::schema_find(name), nullptr) << name;
  }
  EXPECT_GT(root.at("derived").as_object().at("events_processed").as_number(), 0.0);
  std::remove(path.c_str());
}

TEST(Cli, RunWritesMetricsCsvFile) {
  std::string scenario_path = write_small_scenario();
  std::string metrics_path = ::testing::TempDir() + "/mvsim_cli_metrics.csv";
  CliResult r =
      invoke({"run", scenario_path, "--reps", "2", "--quiet", "--metrics", metrics_path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream file(metrics_path);
  ASSERT_TRUE(file.good());
  std::string header;
  std::getline(file, header);
  EXPECT_EQ(header, "metric,kind,field,value");
  std::remove(scenario_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(Cli, MetricsSchemaMatchesLibraryCatalogue) {
  CliResult r = invoke({"metrics-schema"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out, json::stringify(metrics::schema_to_json(), 2) + "\n");
}

TEST(Cli, UsageMentionsMetricsSurface) {
  CliResult r = invoke({"help"});
  EXPECT_NE(r.out.find("--metrics"), std::string::npos);
  EXPECT_NE(r.out.find("metrics-schema"), std::string::npos);
}

TEST(Cli, RunWritesJsonlTraceAndAnalyzeReadsIt) {
  std::string scenario_path = write_small_scenario();
  std::string trace_path = ::testing::TempDir() + "/mvsim_cli_trace.jsonl";
  CliResult r = invoke({"run", scenario_path, "--reps", "2", "--quiet", "--trace", trace_path,
                        "--trace-rep", "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream file(trace_path);
  ASSERT_TRUE(file.good());
  std::string meta_line;
  std::getline(file, meta_line);
  EXPECT_NE(meta_line.find("\"type\":\"mvsim-trace\""), std::string::npos) << meta_line;

  CliResult analyzed = invoke({"trace-analyze", trace_path});
  ASSERT_EQ(analyzed.code, 0) << analyzed.err;
  EXPECT_NE(analyzed.out.find("transmission tree"), std::string::npos);
  EXPECT_NE(analyzed.out.find("effective_R"), std::string::npos);
  std::remove(scenario_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(Cli, RunWritesChromeTraceByDefaultExtension) {
  std::string scenario_path = write_small_scenario();
  std::string trace_path = ::testing::TempDir() + "/mvsim_cli_trace.json";
  CliResult r = invoke({"run", scenario_path, "--reps", "1", "--quiet", "--trace", trace_path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream file(trace_path);
  ASSERT_TRUE(file.good());
  std::ostringstream content;
  content << file.rdbuf();
  json::Value doc = json::parse(content.str());
  const json::Object& root = doc.as_object();
  EXPECT_NE(root.find("traceEvents"), nullptr);
  EXPECT_NE(root.find("otherData"), nullptr);

  // trace-analyze auto-detects the Chrome format too.
  CliResult analyzed = invoke({"trace-analyze", trace_path});
  EXPECT_EQ(analyzed.code, 0) << analyzed.err;
  std::remove(scenario_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(Cli, RunRejectsBadTraceFlags) {
  std::string path = write_small_scenario();
  EXPECT_EQ(invoke({"run", path, "--trace"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--reps", "2", "--trace", "t.jsonl", "--trace-rep", "2"}).code,
            1);
  EXPECT_EQ(invoke({"run", path, "--trace", "t.jsonl", "--trace-rep", "-1"}).code, 1);
  EXPECT_EQ(invoke({"run", path, "--trace", "t.jsonl", "--trace-cap", "lots"}).code, 1);
  std::remove(path.c_str());
}

TEST(Cli, TraceAnalyzeRejectsBadInput) {
  EXPECT_EQ(invoke({"trace-analyze"}).code, 1);
  EXPECT_EQ(invoke({"trace-analyze", "/no/such/trace.jsonl"}).code, 2);
  std::string path = ::testing::TempDir() + "/mvsim_cli_not_a_trace.json";
  std::ofstream(path) << "{ not json";
  EXPECT_EQ(invoke({"trace-analyze", path}).code, 2);
  std::remove(path.c_str());
}

TEST(Cli, UsageMentionsTraceSurface) {
  CliResult r = invoke({"help"});
  EXPECT_NE(r.out.find("--trace"), std::string::npos);
  EXPECT_NE(r.out.find("trace-analyze"), std::string::npos);
}

TEST(Cli, RunWritesProfileJsonAndProfileAnalyzeReadsIt) {
  std::string scenario_path = write_small_scenario();
  std::string profile_path = ::testing::TempDir() + "/mvsim_cli_profile.json";
  CliResult r =
      invoke({"run", scenario_path, "--reps", "2", "--quiet", "--profile", profile_path});
  ASSERT_EQ(r.code, 0) << r.err;

  std::ifstream file(profile_path);
  ASSERT_TRUE(file.good());
  std::ostringstream content;
  content << file.rdbuf();
  json::Value doc = json::parse(content.str());
  const json::Object& root = doc.as_object();
  EXPECT_EQ(root.at("type").as_string(), "mvsim-profile");
  EXPECT_EQ(root.at("scenario").as_string(), "cli-test");
  EXPECT_DOUBLE_EQ(root.at("replications").as_number(), 2.0);
  EXPECT_FALSE(root.at("events").as_array().empty());
  EXPECT_GT(root.at("event_wall_ms").as_number(), 0.0);

  CliResult analyzed = invoke({"profile-analyze", profile_path, "--top", "3"});
  EXPECT_EQ(analyzed.code, 0) << analyzed.err;
  EXPECT_NE(analyzed.out.find("where the time goes"), std::string::npos);
  std::remove(scenario_path.c_str());
  std::remove(profile_path.c_str());
}

TEST(Cli, ProfileAnalyzeRejectsBadInput) {
  EXPECT_EQ(invoke({"profile-analyze"}).code, 1);
  EXPECT_EQ(invoke({"profile-analyze", "/no/such/profile.json"}).code, 2);
  EXPECT_EQ(invoke({"profile-analyze", "p.json", "--top", "0"}).code, 1);
  EXPECT_EQ(invoke({"profile-analyze", "p.json", "--top", "lots"}).code, 1);
  // A JSON file without the profile type marker is rejected cleanly.
  std::string path = ::testing::TempDir() + "/mvsim_cli_not_a_profile.json";
  std::ofstream(path) << R"({"type": "something-else"})";
  CliResult r = invoke({"profile-analyze", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("not an mvsim profile"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, RunProgressTicksOnStderr) {
  std::string path = write_small_scenario();
  CliResult r = invoke({"run", path, "--reps", "2", "--quiet", "--progress"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("rep 2/2"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("ev/s"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.back(), '\n') << "ticker must finish its line";

  // Progress is observation-only: summary output matches a plain run.
  CliResult quiet = invoke({"run", path, "--reps", "2"});
  CliResult with_progress = invoke({"run", path, "--reps", "2", "--progress"});
  EXPECT_EQ(quiet.out, with_progress.out);
  std::remove(path.c_str());
}

TEST(Cli, RunReportsUnwritableOutputPaths) {
  std::string path = write_small_scenario();
  const char* kUnwritable = "/no/such/dir/mvsim_out.json";
  for (const char* flag : {"--metrics", "--trace", "--profile", "--curve-csv", "--summary-json",
                           "--stats-stream", "--manifest", "--ledger"}) {
    CliResult r = invoke({"run", path, "--reps", "1", "--quiet", flag, kUnwritable});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find("cannot write"), std::string::npos) << flag << ": " << r.err;
    EXPECT_NE(r.err.find(kUnwritable), std::string::npos) << flag << ": " << r.err;
  }
  std::remove(path.c_str());
}

TEST(Cli, RunManifestRoundTripsThroughReport) {
  // The headline acceptance path: `mvsim run --manifest --ledger`
  // produces a record `mvsim report` reads back, with the ledger line
  // carrying the same outcome as the standalone manifest.
  std::string scenario_path = write_small_scenario();
  std::string manifest_path = ::testing::TempDir() + "/mvsim_cli_manifest_" +
                              std::to_string(static_cast<long long>(::getpid())) + ".json";
  std::string ledger_path = ::testing::TempDir() + "/mvsim_cli_ledger_" +
                            std::to_string(static_cast<long long>(::getpid())) + ".ndjson";
  std::remove(ledger_path.c_str());
  CliResult r = invoke({"run", scenario_path, "--reps", "2", "--seed", "7", "--quiet",
                        "--summary-json", "-", "--manifest", manifest_path, "--ledger",
                        ledger_path});
  ASSERT_EQ(r.code, 0) << r.err;

  obs::RunManifest manifest = obs::read_manifest_file(manifest_path);
  EXPECT_EQ(manifest.scenario, "cli-test");
  EXPECT_EQ(manifest.seed, "7");
  EXPECT_EQ(manifest.replications, 2);
  EXPECT_EQ(manifest.scenario_hash.size(), 16u);
  EXPECT_GT(manifest.outcome.final_infected_mean, 0.0);
  EXPECT_GT(manifest.outcome.total_events, 0u);
  EXPECT_GT(manifest.phases.run_seconds, 0.0);
  EXPECT_GT(manifest.peak_rss, 0u);
  ASSERT_EQ(manifest.artifacts.size(), 1u);
  EXPECT_EQ(manifest.artifacts[0].kind, "summary-json");
  EXPECT_EQ(manifest.artifacts[0].path, "-");
  EXPECT_FALSE(manifest.sweep.has_value());

  std::vector<obs::RunManifest> ledger = obs::read_ledger_file(ledger_path);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].scenario_hash, manifest.scenario_hash);
  EXPECT_DOUBLE_EQ(ledger[0].outcome.final_infected_mean,
                   manifest.outcome.final_infected_mean);

  CliResult report = invoke({"report", manifest_path});
  ASSERT_EQ(report.code, 0) << report.err;
  EXPECT_NE(report.out.find("run: cli-test"), std::string::npos) << report.out;
  EXPECT_NE(report.out.find(manifest.scenario_hash), std::string::npos);
  EXPECT_NE(report.out.find("final infected"), std::string::npos);

  CliResult ledger_report = invoke({"report", "--ledger", ledger_path});
  ASSERT_EQ(ledger_report.code, 0) << ledger_report.err;
  EXPECT_NE(ledger_report.out.find("1 run(s)"), std::string::npos) << ledger_report.out;

  std::remove(scenario_path.c_str());
  std::remove(manifest_path.c_str());
  std::remove(ledger_path.c_str());
}

TEST(Cli, ManifestIsExecutionOnlyForTheSummary) {
  // Attaching --manifest must not change what the run computes or
  // prints — same contract every obs surface keeps.
  std::string scenario_path = write_small_scenario();
  std::string manifest_path = ::testing::TempDir() + "/mvsim_cli_manifest_inert_" +
                              std::to_string(static_cast<long long>(::getpid())) + ".json";
  CliResult plain = invoke({"run", scenario_path, "--reps", "2", "--seed", "11",
                            "--summary-json", "-", "--quiet"});
  CliResult with = invoke({"run", scenario_path, "--reps", "2", "--seed", "11",
                           "--summary-json", "-", "--quiet", "--manifest", manifest_path});
  ASSERT_EQ(plain.code, 0) << plain.err;
  ASSERT_EQ(with.code, 0) << with.err;
  EXPECT_EQ(plain.out, with.out);
  std::remove(scenario_path.c_str());
  std::remove(manifest_path.c_str());
}

TEST(Cli, SweepAppendsLedgerStreamsProgressAndFindsTheKnee) {
  std::string scenario_path = write_small_scenario();
  std::string ledger_path = ::testing::TempDir() + "/mvsim_cli_sweep_ledger_" +
                            std::to_string(static_cast<long long>(::getpid())) + ".ndjson";
  std::string stream_path = ::testing::TempDir() + "/mvsim_cli_sweep_stream_" +
                            std::to_string(static_cast<long long>(::getpid())) + ".ndjson";
  std::remove(ledger_path.c_str());
  // Weakest -> strongest: a *shorter* activation delay is the stronger
  // response, so the ladder descends.
  CliResult r = invoke({"sweep", scenario_path, "--param", "gateway_scan.activation_delay_h",
                        "--values", "24,12,6,2", "--reps", "1", "--seed", "5", "--ledger",
                        ledger_path, "--stream", stream_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("sweep: cli-test over gateway_scan.activation_delay_h"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("knee:"), std::string::npos) << r.out;

  // One ledger line per point, each tagged with its sweep position.
  std::vector<obs::RunManifest> ledger = obs::read_ledger_file(ledger_path);
  ASSERT_EQ(ledger.size(), 4u);
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    ASSERT_TRUE(ledger[i].sweep.has_value()) << i;
    EXPECT_EQ(ledger[i].sweep->parameter, "gateway_scan.activation_delay_h");
    EXPECT_EQ(ledger[i].sweep->index, static_cast<int>(i));
    EXPECT_EQ(ledger[i].sweep->count, 4);
    EXPECT_EQ(ledger[i].replications, 1);
  }
  EXPECT_DOUBLE_EQ(ledger[0].sweep->value, 24.0);
  EXPECT_DOUBLE_EQ(ledger[3].sweep->value, 2.0);
  // Different parameter values are different model inputs.
  EXPECT_NE(ledger[0].scenario_hash, ledger[3].scenario_hash);

  // The stream carries a header and a started+finished pair per point.
  std::ifstream stream_file(stream_path);
  ASSERT_TRUE(stream_file.good());
  std::string line;
  ASSERT_TRUE(std::getline(stream_file, line));
  EXPECT_NE(line.find("\"type\":\"mvsim-sweep\""), std::string::npos) << line;
  int started = 0, finished = 0;
  while (std::getline(stream_file, line)) {
    if (line.find("\"type\":\"point-started\"") != std::string::npos) ++started;
    if (line.find("\"type\":\"point-finished\"") != std::string::npos) ++finished;
  }
  EXPECT_EQ(started, 4);
  EXPECT_EQ(finished, 4);

  // The ledger report regroups the ladder and re-finds the knee.
  CliResult report = invoke({"report", "--ledger", ledger_path});
  ASSERT_EQ(report.code, 0) << report.err;
  EXPECT_NE(report.out.find("sweep gateway_scan.activation_delay_h (4 points):"),
            std::string::npos)
      << report.out;
  EXPECT_NE(report.out.find("knee:"), std::string::npos);

  std::remove(scenario_path.c_str());
  std::remove(ledger_path.c_str());
  std::remove(stream_path.c_str());
}

TEST(Cli, SweepListParamsAndBadFlags) {
  CliResult list = invoke({"sweep", "--list-params"});
  ASSERT_EQ(list.code, 0) << list.err;
  EXPECT_NE(list.out.find("gateway_scan.activation_delay_h"), std::string::npos);
  EXPECT_NE(list.out.find("blacklist.message_threshold"), std::string::npos);

  std::string path = write_small_scenario();
  EXPECT_EQ(invoke({"sweep"}).code, 1);
  EXPECT_EQ(invoke({"sweep", path, "--values", "1,2"}).code, 1) << "--param is required";
  CliResult unknown =
      invoke({"sweep", path, "--param", "no.such.knob", "--values", "1,2"});
  EXPECT_EQ(unknown.code, 1);
  EXPECT_NE(unknown.err.find("unknown parameter"), std::string::npos);
  EXPECT_NE(unknown.err.find("gateway_scan.activation_delay_h"), std::string::npos)
      << "the error must list the sweepable names";
  EXPECT_EQ(invoke({"sweep", path, "--param", "population", "--values", "500"}).code, 1)
      << "a ladder needs two values";
  EXPECT_EQ(invoke({"sweep", path, "--param", "population", "--values", "5,many"}).code, 1);
  EXPECT_EQ(invoke({"sweep", path, "--param", "population", "--values", "5,9", "--knee-fraction",
                    "1.5"})
                .code,
            1);
  CliResult unwritable = invoke({"sweep", path, "--param", "population", "--values", "100,200",
                                 "--ledger", "/no/such/dir/ledger.ndjson"});
  EXPECT_EQ(unwritable.code, 2);
  EXPECT_NE(unwritable.err.find("cannot write"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ReportCompareVerdictsAndExitCodes) {
  // Two fixed-seed runs of the same scenario are outcome-identical:
  // every verdict OK at +0.0%, exit 0.
  std::string scenario_path = write_small_scenario();
  std::string a_path = ::testing::TempDir() + "/mvsim_cli_cmp_a_" +
                       std::to_string(static_cast<long long>(::getpid())) + ".json";
  std::string b_path = ::testing::TempDir() + "/mvsim_cli_cmp_b_" +
                       std::to_string(static_cast<long long>(::getpid())) + ".json";
  ASSERT_EQ(invoke({"run", scenario_path, "--reps", "2", "--seed", "42", "--quiet",
                    "--manifest", a_path})
                .code,
            0);
  ASSERT_EQ(invoke({"run", scenario_path, "--reps", "2", "--seed", "42", "--quiet",
                    "--manifest", b_path})
                .code,
            0);
  CliResult same = invoke({"report", "--compare", a_path, b_path});
  EXPECT_EQ(same.code, 0) << same.out;
  EXPECT_NE(same.out.find("report-compare: no regressions"), std::string::npos) << same.out;
  EXPECT_NE(same.out.find("OK        final_infected_mean"), std::string::npos) << same.out;
  EXPECT_EQ(same.out.find("REGRESSED"), std::string::npos) << same.out;

  // Hand-degrade the outcome: more infections and fewer patches past
  // any threshold must flip verdicts and the exit code.
  obs::RunManifest degraded = obs::read_manifest_file(a_path);
  degraded.outcome.final_infected_mean *= 4.0;
  degraded.outcome.peak_infected_mean *= 4.0;
  {
    std::ofstream file(b_path);
    file << json::stringify(obs::to_json(degraded), 2) << '\n';
  }
  CliResult worse = invoke({"report", "--compare", a_path, b_path});
  EXPECT_EQ(worse.code, 1) << worse.out;
  EXPECT_NE(worse.out.find("REGRESSED"), std::string::npos) << worse.out;
  EXPECT_NE(worse.out.find("regressed past"), std::string::npos) << worse.out;

  // A generous threshold waves the same delta through.
  CliResult lax = invoke({"report", "--compare", a_path, b_path, "--threshold", "0.99"});
  EXPECT_EQ(lax.code, 0) << lax.out;

  EXPECT_EQ(invoke({"report", "--compare", a_path}).code, 1);
  EXPECT_EQ(invoke({"report", "--compare", a_path, "/no/such/manifest.json"}).code, 2);
  EXPECT_EQ(invoke({"report", "--compare", a_path, b_path, "--threshold", "zero"}).code, 1);

  std::remove(scenario_path.c_str());
  std::remove(a_path.c_str());
  std::remove(b_path.c_str());
}

TEST(Cli, ReportRejectsBadInput) {
  EXPECT_EQ(invoke({"report"}).code, 1);
  EXPECT_EQ(invoke({"report", "/no/such/manifest.json"}).code, 2);
  EXPECT_EQ(invoke({"report", "--ledger"}).code, 1);
  EXPECT_EQ(invoke({"report", "--ledger", "/no/such/ledger.ndjson"}).code, 2);
  std::string path = ::testing::TempDir() + "/mvsim_cli_not_a_manifest.json";
  std::ofstream(path) << R"({"type": "something-else"})";
  CliResult r = invoke({"report", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("mvsim-manifest"), std::string::npos) << r.err;
  std::remove(path.c_str());
}

TEST(Cli, UsageMentionsManifestSweepAndReport) {
  CliResult r = invoke({"help"});
  EXPECT_NE(r.out.find("--manifest"), std::string::npos);
  EXPECT_NE(r.out.find("--ledger"), std::string::npos);
  EXPECT_NE(r.out.find("mvsim sweep"), std::string::npos);
  EXPECT_NE(r.out.find("mvsim report"), std::string::npos);
  EXPECT_NE(r.out.find("--list-params"), std::string::npos);
  EXPECT_NE(r.out.find("--compare"), std::string::npos);
}

TEST(Cli, ValidateAcceptsGoodFile) {
  std::string path = write_small_scenario();
  CliResult r = invoke({"validate", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("OK: cli-test"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ValidateRejectsBadFile) {
  std::string path = ::testing::TempDir() + "/mvsim_cli_bad.json";
  std::ofstream(path) << R"({"population": 1})";
  CliResult r = invoke({"validate", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("population"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ValidateRejectsUnparsableJson) {
  std::string path = ::testing::TempDir() + "/mvsim_cli_syntax.json";
  std::ofstream(path) << "{ not json";
  CliResult r = invoke({"validate", path});
  EXPECT_EQ(r.code, 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mvsim::cli
