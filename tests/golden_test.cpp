// Golden-results regression guard for the simulation core.
//
// Fixed-seed runs of all paper presets (fig1-fig7) plus the dual-vector
// and defense-in-depth extensions must produce bit-identical results
// across refactors of the core/net/response wiring: the hashes below
// cover every per-replication infection step (time and value bit
// patterns), all gateway counters, response-mechanism counters and the
// aggregated mean curves. They were captured from the pre-refactor
// (hard-wired mechanism) implementation; the pluggable event-dispatch
// architecture must reproduce them exactly, at any worker-thread count.
//
// To regenerate after an *intentional* behavior change:
//   MVSIM_GOLDEN_PRINT=1 ./golden_test --gtest_filter='*OneThread*'
// and paste the printed table over kCases.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "config/scenario_io.h"
#include "core/presets.h"
#include "core/run_manifest.h"
#include "core/runner.h"
#include "metrics/registry.h"
#include "obs/manifest.h"
#include "obs/stats_stream.h"
#include "trace/trace.h"
#include "util/json.h"

namespace mvsim::core {
namespace {

class Fnv1a {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 1099511628211ULL;
    }
  }
  void add_double(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add_time(SimTime t) { add_double(t.to_minutes()); }
  void add_string(const std::string& s) {
    for (char c : s) add_u64(static_cast<unsigned char>(c));
    add_u64(s.size());
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t hash_result(const ExperimentResult& result) {
  Fnv1a h;
  for (const auto& point : result.curve.grid()) {
    h.add_time(point.time);
    h.add_double(point.mean);
    h.add_double(point.stddev);
  }
  h.add_double(result.final_infections.mean());
  h.add_double(result.messages_submitted.mean());
  h.add_double(result.messages_blocked.mean());
  h.add_double(result.phones_blacklisted.mean());
  h.add_double(result.phones_flagged.mean());
  h.add_double(result.patches_applied.mean());
  h.add_double(result.bluetooth_push_attempts.mean());
  for (const ReplicationResult& r : result.replications) {
    // Every infection step: any event reordering or extra RNG draw
    // anywhere in the pipeline perturbs these.
    for (const auto& point : r.infections.points()) {
      h.add_time(point.time);
      h.add_double(point.value);
    }
    h.add_u64(r.total_infected);
    h.add_u64(r.immunized_healthy);
    h.add_u64(r.patched_infected);
    h.add_u64(r.phones_blacklisted);
    h.add_u64(r.phones_flagged);
    h.add_u64(r.bluetooth_push_attempts);
    h.add_u64(r.gateway.messages_submitted);
    h.add_u64(r.gateway.infected_messages_submitted);
    h.add_u64(r.gateway.messages_blocked);
    h.add_u64(r.gateway.recipients_delivered);
    h.add_u64(r.gateway.invalid_recipients_dropped);
    h.add_time(r.detected_at);
  }
  return h.digest();
}

ScenarioConfig dual_vector_scenario() {
  // The ext_dual_vector bench's headline configuration: Virus 1 with
  // the Bluetooth side channel, against the 6 h gateway scan.
  ScenarioConfig config = fig2_scan_scenario(SimTime::hours(6.0));
  config.name = "golden/dual-vector";
  config.proximity = ProximityChannelConfig{};
  return config;
}

ScenarioConfig defense_in_depth_scenario() {
  // All six paper mechanisms at default parameters against Virus 3,
  // as in examples/defense_in_depth.
  ScenarioConfig config = baseline_scenario(virus::virus3());
  config.name = "golden/defense-in-depth";
  config.responses.gateway_scan = response::GatewayScanConfig{};
  config.responses.gateway_detection = response::GatewayDetectionConfig{};
  config.responses.user_education = response::UserEducationConfig{};
  config.responses.immunization = response::ImmunizationConfig{};
  config.responses.monitoring = response::MonitoringConfig{};
  config.responses.blacklist = response::BlacklistConfig{};
  return config;
}

struct GoldenCase {
  const char* name;
  ScenarioConfig (*make)();
  std::uint64_t expected;
};

// Hashes captured from the pre-refactor implementation (see header).
const GoldenCase kCases[] = {
    {"fig1-baseline-virus1", [] { return baseline_scenario(virus::virus1()); },
     0x6df294e3dc67a7a9ULL},
    {"fig1-baseline-virus2", [] { return baseline_scenario(virus::virus2()); },
     0xe8de5d4d7a4f9d30ULL},
    {"fig1-baseline-virus3", [] { return baseline_scenario(virus::virus3()); },
     0x1d0e8008183d3e18ULL},
    {"fig1-baseline-virus4", [] { return baseline_scenario(virus::virus4()); },
     0xf6dba30ac6086b28ULL},
    {"fig2-scan", [] { return fig2_scan_scenario(SimTime::hours(6.0)); }, 0xffe798e9330234caULL},
    {"fig3-detection", [] { return fig3_detection_scenario(0.95); }, 0x3576a9394d01da26ULL},
    {"fig4-education", [] { return fig4_education_scenario(virus::virus1(), 0.20); },
     0x3fb8c0d600df63dcULL},
    {"fig5-immunization",
     [] { return fig5_immunization_scenario(SimTime::hours(24.0), SimTime::hours(6.0)); },
     0x3e77f8e54b85cf86ULL},
    {"fig6-monitoring", [] { return fig6_monitoring_scenario(SimTime::minutes(15.0)); },
     0x2d757cb846fecd19ULL},
    {"fig7-blacklist", [] { return fig7_blacklist_scenario(10); }, 0xaaf59c7917668736ULL},
    {"dual-vector", dual_vector_scenario, 0x182aa062cd5b1f93ULL},
    {"defense-in-depth", defense_in_depth_scenario, 0x3143da29b28f8fbeULL},
};

constexpr std::uint64_t kMasterSeed = 0x601d'2007'd5a7ULL;
constexpr int kReplications = 4;  // >= 4 so the threads=4 run really fans out

std::uint64_t case_hash(const GoldenCase& golden, int threads) {
  static std::map<std::string, std::uint64_t> cache;
  std::string key = std::string(golden.name) + "@" + std::to_string(threads);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  RunnerOptions options;
  options.replications = kReplications;
  options.master_seed = kMasterSeed;
  options.keep_replications = true;
  options.threads = threads;
  std::uint64_t digest = hash_result(run_experiment(golden.make(), options));
  cache.emplace(std::move(key), digest);
  return digest;
}

// ---- Sharded engine goldens ---------------------------------------------
//
// Sharded results are a DIFFERENT fixed point than the serial engine's
// (per-shard RNG streams, cross-shard latency floor — see
// docs/parallelism.md), so they get their own pinned hashes, at shards
// 2 and 4. dual-vector is excluded: proximity scenarios are rejected by
// the sharded engine (covered in shard_test.cpp). Captured with
// shard_workers = 1; ShardedSimulation's contract (verified in
// shard_test.cpp) makes any worker count bit-identical to that.
//
// To regenerate after an intentional behavior change:
//   MVSIM_GOLDEN_PRINT=1 ./golden_test --gtest_filter='*Sharded*'
struct ShardedGoldenCase {
  const char* name;
  std::uint64_t expected_at_2;
  std::uint64_t expected_at_4;
};

const ShardedGoldenCase kShardedCases[] = {
    {"fig1-baseline-virus1", 0xc1c3c9f92d0ffbc2ULL, 0xc47f34758a415ae0ULL},
    {"fig1-baseline-virus2", 0x7fa53405ab4e8459ULL, 0x4d29156f5347048aULL},
    {"fig1-baseline-virus3", 0x669130dbd92f8ff9ULL, 0xacff26d80392fcf5ULL},
    {"fig1-baseline-virus4", 0x3a9d010549ef88faULL, 0xd127e13f0dedc02eULL},
    {"fig2-scan", 0xf91a49f3b9f34b35ULL, 0x89459e6c0bf6ecd2ULL},
    {"fig3-detection", 0x9d1661f334f97c89ULL, 0xcbf321f1a746139dULL},
    {"fig4-education", 0x0b021e503c20e0e8ULL, 0xdb1705ad1723c679ULL},
    {"fig5-immunization", 0xc12b5036d6c30e68ULL, 0x93016afe1f0cbd07ULL},
    {"fig6-monitoring", 0x636693cec1306755ULL, 0xc1013b15237973ecULL},
    {"fig7-blacklist", 0x311af2219c5f9bc1ULL, 0x77485775458649beULL},
    {"defense-in-depth", 0x8326b71dd022bd79ULL, 0xe258cbd3ed06701eULL},
};

const GoldenCase* find_case(const char* name) {
  for (const GoldenCase& golden : kCases) {
    if (std::string(golden.name) == name) return &golden;
  }
  return nullptr;
}

std::uint64_t sharded_case_hash(const GoldenCase& golden, std::uint32_t shards) {
  RunnerOptions options;
  options.replications = kReplications;
  options.master_seed = kMasterSeed;
  options.keep_replications = true;
  options.threads = 1;
  options.shards = shards;
  options.shard_workers = 1;
  return hash_result(run_experiment(golden.make(), options));
}

TEST(GoldenResults, ShardedCurvesBitIdenticalAtTwoAndFourShards) {
  const bool print = std::getenv("MVSIM_GOLDEN_PRINT") != nullptr;
  for (const ShardedGoldenCase& sharded : kShardedCases) {
    const GoldenCase* golden = find_case(sharded.name);
    ASSERT_NE(golden, nullptr) << sharded.name;
    std::uint64_t at2 = sharded_case_hash(*golden, 2);
    std::uint64_t at4 = sharded_case_hash(*golden, 4);
    if (print) {
      std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n", sharded.name,
                  static_cast<unsigned long long>(at2), static_cast<unsigned long long>(at4));
      continue;
    }
    EXPECT_EQ(at2, sharded.expected_at_2)
        << sharded.name << " @2 shards: fixed-seed sharded results diverged";
    EXPECT_EQ(at4, sharded.expected_at_4)
        << sharded.name << " @4 shards: fixed-seed sharded results diverged";
  }
}

// ---- Engine telemetry pins ---------------------------------------------
//
// hash_result never looks at ReplicationResult::metrics, so a refactor
// that dropped a stream's draws from rng.draws, or dispatched one extra
// mechanism hook, would still match every curve hash above. These pins
// cover every deterministic counter, gauge and histogram of every
// replication, serial and sharded. Series that read the wall clock
// (prof.*, timing.*, shard.barrier_wait_ms) are skipped.
//
// To regenerate after an intentional behavior change:
//   MVSIM_GOLDEN_PRINT=1 ./golden_test --gtest_filter='*EngineMetrics*'
bool wall_clock_series(const std::string& name) {
  return name.rfind("prof.", 0) == 0 || name.rfind("timing.", 0) == 0 ||
         name == "shard.barrier_wait_ms";
}

std::uint64_t hash_metrics(const metrics::Snapshot& snapshot) {
  Fnv1a h;
  for (const metrics::CounterSample& c : snapshot.counters) {
    if (wall_clock_series(c.name)) continue;
    h.add_string(c.name);
    h.add_u64(c.value);
  }
  for (const metrics::GaugeSample& g : snapshot.gauges) {
    if (wall_clock_series(g.name)) continue;
    h.add_string(g.name);
    h.add_u64(g.value);
    h.add_u64(g.peak);
  }
  for (const metrics::HistogramSample& hist : snapshot.histograms) {
    if (wall_clock_series(hist.name)) continue;
    h.add_string(hist.name);
    for (std::uint64_t n : hist.bucket_counts) h.add_u64(n);
    h.add_u64(hist.count);
    h.add_double(hist.sum);
    h.add_double(hist.min);
    h.add_double(hist.max);
  }
  return h.digest();
}

std::string describe_metrics(const metrics::Snapshot& snapshot) {
  std::ostringstream out;
  for (const metrics::CounterSample& c : snapshot.counters) {
    if (!wall_clock_series(c.name)) out << "  " << c.name << " = " << c.value << "\n";
  }
  for (const metrics::GaugeSample& g : snapshot.gauges) {
    if (!wall_clock_series(g.name)) {
      out << "  " << g.name << " = " << g.value << " (peak " << g.peak << ")\n";
    }
  }
  for (const metrics::HistogramSample& hist : snapshot.histograms) {
    if (!wall_clock_series(hist.name)) {
      out << "  " << hist.name << " count " << hist.count << " sum " << hist.sum << "\n";
    }
  }
  return out.str();
}

struct MetricsPinCase {
  const char* name;
  std::uint32_t shards;  ///< 1 = serial engine
  std::uint64_t expected;
};

const MetricsPinCase kMetricsPins[] = {
    {"fig1-baseline-virus3", 1, 0x1f64336c05bb9e96ULL},
    {"defense-in-depth", 1, 0x332cb9ceb5e63dd7ULL},
    {"dual-vector", 1, 0x518806e5eb39826bULL},
    {"fig1-baseline-virus3", 2, 0x97153beb6407085eULL},
    {"defense-in-depth", 2, 0xf28e10a0474f75c1ULL},
};

TEST(GoldenResults, EngineMetricsPinned) {
  const bool print = std::getenv("MVSIM_GOLDEN_PRINT") != nullptr;
  for (const MetricsPinCase& pin : kMetricsPins) {
    const GoldenCase* golden = find_case(pin.name);
    ASSERT_NE(golden, nullptr) << pin.name;
    RunnerOptions options;
    options.replications = kReplications;
    options.master_seed = kMasterSeed;
    options.keep_replications = true;
    options.threads = 1;
    options.shards = pin.shards;
    options.shard_workers = 1;
    ExperimentResult result = run_experiment(golden->make(), options);
    ASSERT_EQ(result.replications.size(), static_cast<std::size_t>(kReplications));

    Fnv1a h;
    for (const ReplicationResult& r : result.replications) h.add_u64(hash_metrics(r.metrics));
    if (print) {
      std::printf("    {\"%s\", %u, 0x%016llxULL},\n", pin.name, pin.shards,
                  static_cast<unsigned long long>(h.digest()));
      continue;
    }
    const metrics::Snapshot& first = result.replications.front().metrics;
    EXPECT_EQ(h.digest(), pin.expected)
        << pin.name << " @" << pin.shards << " shard(s): engine telemetry diverged; "
        << "replication 0 now reports\n"
        << describe_metrics(first);
    // The pin is only as strong as the series it covers.
    EXPECT_GT(first.counter_value("rng.draws"), 0u) << pin.name;
    EXPECT_GT(first.counter_value("des.events_executed"), 0u) << pin.name;
    EXPECT_NE(first.find_gauge("des.queue_depth_peak"), nullptr) << pin.name;
    if (std::string(pin.name) == "defense-in-depth") {
      EXPECT_GT(first.counter_value("core.dispatch.hook_calls"), 0u) << pin.name;
    }
    if (std::string(pin.name) == "dual-vector") {
      EXPECT_GT(first.counter_value("core.bluetooth_push_attempts"), 0u) << pin.name;
    }
    if (pin.shards > 1) {
      EXPECT_NE(first.find_histogram("shard.events_executed"), nullptr) << pin.name;
    }
  }
}

TEST(GoldenResults, PresetCurvesBitIdenticalAtOneThread) {
  const bool print = std::getenv("MVSIM_GOLDEN_PRINT") != nullptr;
  for (const GoldenCase& golden : kCases) {
    std::uint64_t digest = case_hash(golden, 1);
    if (print) {
      std::printf("    {\"%s\", ..., 0x%016llxULL},\n", golden.name,
                  static_cast<unsigned long long>(digest));
      continue;
    }
    EXPECT_EQ(digest, golden.expected) << golden.name << ": fixed-seed results diverged from "
                                       << "the pre-refactor implementation";
  }
}

TEST(GoldenResults, PresetCurvesBitIdenticalAtFourThreads) {
  for (const GoldenCase& golden : kCases) {
    EXPECT_EQ(case_hash(golden, 4), case_hash(golden, 1))
        << golden.name << ": results depend on the worker-thread count";
  }
}

// Tracing is observation-only: attaching a TraceBuffer must not change
// a single bit of any preset's results, at any thread count.
TEST(GoldenResults, PresetCurvesUnperturbedByTracing) {
  for (const GoldenCase& golden : kCases) {
    for (int threads : {1, 4}) {
      trace::TraceBuffer buffer;
      RunnerOptions options;
      options.replications = kReplications;
      options.master_seed = kMasterSeed;
      options.keep_replications = true;
      options.threads = threads;
      options.trace = &buffer;
      options.trace_replication = 1;
      std::uint64_t digest = hash_result(run_experiment(golden.make(), options));
      EXPECT_EQ(digest, case_hash(golden, 1))
          << golden.name << " @" << threads << " threads: tracing perturbed the results";
      EXPECT_GT(buffer.events().size(), 0u) << golden.name << ": traced replication was empty";
    }
  }
}

// Profiling and progress reporting are observation-only too: turning
// both on must leave every preset's results bit-identical, at any
// thread count, while still producing profile data and progress ticks.
TEST(GoldenResults, PresetCurvesUnperturbedByProfilingAndProgress) {
  for (const GoldenCase& golden : kCases) {
    for (int threads : {1, 4}) {
      RunnerOptions options;
      options.replications = kReplications;
      options.master_seed = kMasterSeed;
      options.keep_replications = true;
      options.threads = threads;
      options.profile = true;
      int updates = 0;
      options.progress = [&updates](const ProgressUpdate& update) {
        ++updates;
        EXPECT_EQ(update.replications_total, kReplications);
      };
      ExperimentResult result = run_experiment(golden.make(), options);
      EXPECT_EQ(hash_result(result), case_hash(golden, 1))
          << golden.name << " @" << threads
          << " threads: profiling/progress perturbed the results";
      EXPECT_EQ(updates, kReplications) << golden.name << ": progress updates missed";
      const metrics::HistogramSample* run_phase =
          result.metrics.find_histogram("prof.phase.run_ms");
      ASSERT_NE(run_phase, nullptr) << golden.name << ": no profile data in merged metrics";
      EXPECT_EQ(run_phase->count, static_cast<std::uint64_t>(kReplications));
    }
  }
}

// The stats stream and shard-aware trace/profile are observation-only
// like tracing and profiling: a serial run streaming telemetry samples
// (which steps run_until instead of running uninterrupted) must match
// the pinned serial hashes at any thread count, and a sharded run with
// the full observability stack attached (--trace + --profile +
// --stats-stream) must still land on the pinned sharded hashes.
TEST(GoldenResults, PresetCurvesUnperturbedByStreamAndShardTrace) {
  for (const GoldenCase& golden : kCases) {
    for (int threads : {1, 4}) {
      std::ostringstream sink;
      obs::RunStream stream(sink);
      RunnerOptions options;
      options.replications = kReplications;
      options.master_seed = kMasterSeed;
      options.keep_replications = true;
      options.threads = threads;
      options.stats_stream = &stream;
      options.stats_period = SimTime::hours(6.0);
      std::uint64_t digest = hash_result(run_experiment(golden.make(), options));
      EXPECT_EQ(digest, case_hash(golden, 1))
          << golden.name << " @" << threads << " threads: the stats stream perturbed the results";
      EXPECT_GT(stream.samples_written(), 0u) << golden.name << ": stream stayed empty";
    }
  }

  for (const ShardedGoldenCase& sharded : kShardedCases) {
    const GoldenCase* golden = find_case(sharded.name);
    ASSERT_NE(golden, nullptr) << sharded.name;
    for (std::uint32_t shards : {2u, 4u}) {
      trace::TraceBuffer buffer;
      std::ostringstream sink;
      obs::RunStream stream(sink);
      RunnerOptions options;
      options.replications = kReplications;
      options.master_seed = kMasterSeed;
      options.keep_replications = true;
      options.threads = 1;
      options.shards = shards;
      options.shard_workers = 1;
      options.trace = &buffer;
      options.trace_replication = 1;
      options.profile = true;
      options.stats_stream = &stream;
      options.stats_period = SimTime::hours(6.0);
      std::uint64_t digest = hash_result(run_experiment(golden->make(), options));
      EXPECT_EQ(digest, shards == 2 ? sharded.expected_at_2 : sharded.expected_at_4)
          << sharded.name << " @" << shards
          << " shards: shard-aware observability perturbed the results";
      EXPECT_GT(buffer.events().size(), 0u) << sharded.name << ": merged shard trace was empty";
      EXPECT_GT(stream.samples_written(), 0u) << sharded.name << ": stream stayed empty";
    }
  }
}

// Manifests and the ledger are built strictly AFTER a run finishes, so
// attaching them must leave every preset's results bit-identical — the
// same pinned hashes as a bare run, serial (threads 1 and 4) and
// sharded (K = 2 and 4) alike — while the manifest's outcome block
// faithfully mirrors the result it was built from and every ledger
// line survives a read-back.
TEST(GoldenResults, PresetCurvesUnperturbedByManifest) {
  const std::string ledger_path = ::testing::TempDir() + "/mvsim_golden_ledger_" +
                                  std::to_string(static_cast<long long>(::getpid())) +
                                  ".ndjson";
  std::remove(ledger_path.c_str());
  std::size_t appended = 0;
  auto attach = [&](const ScenarioConfig& config, const ExperimentResult& result,
                    std::uint32_t shards) {
    ManifestInputs inputs;
    inputs.scenario_hash = obs::fnv1a_hex(json::stringify(config::to_json(config), 0));
    inputs.seed = kMasterSeed;
    inputs.shards = shards;
    obs::RunManifest manifest = build_run_manifest(config, inputs, result);
    EXPECT_EQ(manifest.scenario, config.name);
    EXPECT_EQ(manifest.replications, kReplications);
    EXPECT_DOUBLE_EQ(manifest.outcome.final_infected_mean, result.final_infections.mean());
    EXPECT_DOUBLE_EQ(manifest.outcome.patched_mean, result.patches_applied.mean());
    EXPECT_DOUBLE_EQ(manifest.outcome.messages_blocked_mean, result.messages_blocked.mean());
    EXPECT_EQ(manifest.outcome.total_events,
              result.metrics.counter_value("des.events_executed"));
    EXPECT_GE(manifest.outcome.peak_infected_mean, 0.0);
    ASSERT_TRUE(obs::append_to_ledger(ledger_path, manifest)) << config.name;
    ++appended;
  };

  for (const GoldenCase& golden : kCases) {
    for (int threads : {1, 4}) {
      ScenarioConfig config = golden.make();
      RunnerOptions options;
      options.replications = kReplications;
      options.master_seed = kMasterSeed;
      options.keep_replications = true;
      options.threads = threads;
      ExperimentResult result = run_experiment(config, options);
      EXPECT_EQ(hash_result(result), case_hash(golden, 1))
          << golden.name << " @" << threads << " threads: the manifest surface perturbed "
          << "the results";
      attach(config, result, 1);
    }
  }

  for (const ShardedGoldenCase& sharded : kShardedCases) {
    const GoldenCase* golden = find_case(sharded.name);
    ASSERT_NE(golden, nullptr) << sharded.name;
    for (std::uint32_t shards : {2u, 4u}) {
      ScenarioConfig config = golden->make();
      RunnerOptions options;
      options.replications = kReplications;
      options.master_seed = kMasterSeed;
      options.keep_replications = true;
      options.threads = 1;
      options.shards = shards;
      options.shard_workers = 1;
      ExperimentResult result = run_experiment(config, options);
      EXPECT_EQ(hash_result(result), shards == 2 ? sharded.expected_at_2 : sharded.expected_at_4)
          << sharded.name << " @" << shards << " shards: the manifest surface perturbed "
          << "the results";
      attach(config, result, shards);
    }
  }

  std::vector<obs::RunManifest> ledger = obs::read_ledger_file(ledger_path);
  EXPECT_EQ(ledger.size(), appended);
  for (const obs::RunManifest& manifest : ledger) {
    EXPECT_EQ(manifest.seed, std::to_string(kMasterSeed));
    EXPECT_EQ(manifest.scenario_hash.size(), 16u) << manifest.scenario;
  }
  std::remove(ledger_path.c_str());
}

}  // namespace
}  // namespace mvsim::core
