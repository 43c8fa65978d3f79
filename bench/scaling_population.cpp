// SCALE: population-size scaling (paper §5.3 plus two extensions).
//
// Part 1 — the paper's own check: "Although the results presented here
// use a population size of 1000 phones, additional experiments with a
// 2000-phone population demonstrate that our results scale nicely to
// larger population sizes." Every virus runs at 1000 and 2000 phones
// and we compare penetration fractions and half-plateau times.
//
// Part 2 — memory ladder: single replications at 10^4, 10^5 and 10^6
// phones on the sparse market-share topology, reporting the
// struct-of-arrays population footprint (phone::PhoneTable), the CSR
// graph footprint, bytes-per-phone against the retired 64 B/phone
// array-of-Phone layout, the process peak RSS, and the bytes the run
// phase allocates per infected phone (counted by this binary's
// operator new; peak RSS cannot show them, because the graph build
// sets it). MVSIM_SCALE_MAX_POP caps the ladder (CI stops at 10^5; the
// default climbs to 10^6).
//
// Part 3 — market-share sweep: final penetration as a function of the
// targeted platform's market share on one shared contact graph. Below
// the percolation threshold of the susceptible subgraph the outbreak
// dies in patient zero's neighborhood; above it the epidemic reaches
// the giant component, so penetration jumps discontinuously.
//
// Part 4 — shard speedup: the ladder's largest rung re-run on the
// windowed parallel engine (--shards 4, one worker per shard; see
// docs/parallelism.md). The headline note is speedup_shards4; the
// target is >= 2x at the uncapped 10^6-phone rung. CI runs capped at
// 10^5 where the window barriers bite harder, so the note is
// informative there, not a gate.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "bench_common.h"
#include "core/sharded_simulation.h"
#include "core/simulation.h"

using namespace mvsim;
using namespace mvsim::bench;

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocated_bytes{0};

}  // namespace

// The array and nothrow forms forward to these two, so replacing them
// counts every non-aligned allocation. Kept out of line so the compiler
// never pairs an inlined malloc with an inlined free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
// Sanitizer runtimes supply their own nothrow forms, which would pair
// their allocation with the free() above; route them here explicitly.
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (...) {
    return nullptr;
  }
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

/// Peak resident set size of this process, in bytes (Linux reports
/// ru_maxrss in KiB). Monotone over the process lifetime, so sample it
/// right after the workload of interest.
double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

graph::PhoneId max_ladder_population() {
  constexpr unsigned long kDefault = 1'000'000ul;
  const char* raw = std::getenv("MVSIM_SCALE_MAX_POP");
  if (raw == nullptr || *raw == '\0') return kDefault;
  char* end = nullptr;
  unsigned long value = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0' || value == 0ul) return kDefault;
  return static_cast<graph::PhoneId>(std::min(value, kDefault));
}

void run_paper_scaling(Harness& harness) {
  std::cout << "== part 1: paper section 5.3 (1000 vs 2000 phones) ==\n";
  std::cout << "virus,population,final_infected,penetration_of_susceptible,half_plateau_hours\n";
  for (const auto& profile : virus::paper_virus_suite()) {
    double fractions[2] = {0.0, 0.0};
    int slot = 0;
    for (graph::PhoneId population : {1000u, 2000u}) {
      core::ScenarioConfig config = core::baseline_scenario(profile);
      config.population = population;
      core::ExperimentResult result = run_experiment_case(
          harness, profile.name + " @" + std::to_string(population), config);
      double susceptible = static_cast<double>(population) * config.susceptible_fraction;
      double fraction = result.final_infections.mean() / susceptible;
      fractions[slot++] = fraction;
      SimTime half = result.curve.mean_first_time_at_or_above(
          config.expected_unrestrained_plateau() / 2.0);
      std::cout << profile.name << "," << population << ","
                << fmt(result.final_infections.mean()) << "," << fmt(100.0 * fraction) << "%,"
                << fmt(half.is_finite() ? half.to_hours() : -1.0) << "\n";
    }
    report(profile.name + ": results scale nicely to larger population sizes",
           "penetration " + fmt(100.0 * fractions[0]) + "% at 1000 phones vs " +
               fmt(100.0 * fractions[1]) + "% at 2000 phones");
  }
}

void run_memory_ladder(Harness& harness) {
  const graph::PhoneId cap = max_ladder_population();
  std::cout << "\n== part 2: memory ladder (single replication, 10 day horizon, cap "
            << cap << ") ==\n";
  std::cout << "population,final_infected,events,phone_table_MB,phone_B_per_phone,"
               "graph_MB,graph_B_per_phone,peak_rss_MB,run_B_per_infected\n";

  constexpr double kOldBytesPerPhone = 64.0;  // retired array-of-Phone layout
  double last_phone_bpp = 0.0;
  double last_run_bytes_per_infected = 0.0;
  graph::PhoneId last_population = 0;

  for (graph::PhoneId population : {10'000u, 100'000u, 1'000'000u}) {
    if (population > cap) {
      std::cout << "# skipped " << population << " (MVSIM_SCALE_MAX_POP)\n";
      continue;
    }
    // Share 0.50 ignites reliably, so the ladder exercises a real
    // epidemic (event throughput at scale), not just graph + table
    // construction; 10 days bounds the largest rung's wall-clock.
    core::ScenarioConfig config = core::market_share_scenario(0.50, population);
    config.name = "scale/ladder";
    config.horizon = SimTime::days(10.0);

    std::uint64_t final_infected = 0;
    double phone_bytes = 0.0;
    double graph_bytes = 0.0;
    double run_bytes = 0.0;
    harness.run_case("ladder @" + std::to_string(population), [&] {
      core::Simulation sim(config, /*replication_seed=*/1);
      g_allocated_bytes.store(0);
      g_counting.store(true);
      sim.run_until(config.horizon);
      g_counting.store(false);
      run_bytes = static_cast<double>(g_allocated_bytes.load());
      core::ReplicationResult rep = sim.result();
      final_infected = rep.total_infected;
      phone_bytes = static_cast<double>(sim.phones().memory_bytes());
      graph_bytes = static_cast<double>(sim.contact_graph().memory_bytes());
      return rep.metrics.counter_value("des.events_executed");
    });

    const double n = static_cast<double>(population);
    const double mb = 1024.0 * 1024.0;
    last_phone_bpp = phone_bytes / n;
    last_run_bytes_per_infected =
        final_infected > 0 ? run_bytes / static_cast<double>(final_infected) : 0.0;
    last_population = population;
    std::cout << population << "," << final_infected << ","
              << harness.cases().back().events << "," << fmt(phone_bytes / mb, 2) << ","
              << fmt(phone_bytes / n, 2) << "," << fmt(graph_bytes / mb, 2) << ","
              << fmt(graph_bytes / n, 2) << "," << fmt(peak_rss_bytes() / mb, 1) << ","
              << fmt(last_run_bytes_per_infected, 1) << "\n";
  }

  report("population state fits in under half the old 64 B/phone layout",
         fmt(last_phone_bpp, 2) + " B/phone at " + std::to_string(last_population) +
             " phones (budget " + fmt(kOldBytesPerPhone / 2.0, 0) + " B) — " +
             (last_phone_bpp < kOldBytesPerPhone / 2.0 ? "within budget" : "OVER BUDGET"));

  harness.set_note("ladder_max_population", static_cast<double>(last_population));
  harness.set_note("phone_state_bytes_per_phone", last_phone_bpp);
  harness.set_note("old_phone_bytes_per_phone", kOldBytesPerPhone);
  harness.set_note("peak_rss_mb", peak_rss_bytes() / (1024.0 * 1024.0));
  harness.set_note("run_bytes_per_infected", last_run_bytes_per_infected);
}

void run_market_share_sweep(Harness& harness) {
  std::cout << "\n== part 3: market-share penetration (shared graph, virus 1) ==\n";
  std::cout << "share,final_infected,penetration_of_susceptible,ignition_fraction\n";

  core::RunnerOptions options = default_options();
  options.replications = core::replications_from_env(6);
  options.keep_replications = true;  // for the per-replication ignition count

  const double shares[] = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50};
  double previous_ignition = 0.0;
  double max_jump = 0.0;  // largest step of the ignition order parameter
  double jump_at = 0.0;
  bool first = true;
  for (double share : shares) {
    core::ScenarioConfig config = core::market_share_scenario(share);
    core::ExperimentResult result =
        run_experiment_case(harness, "share " + fmt(share, 2), config, options);
    double susceptible = static_cast<double>(config.population) * share;
    double penetration = result.final_infections.mean() / susceptible;
    // A replication "ignited" when the outbreak escaped the seeds'
    // neighborhoods (>= 1% of the susceptible subpopulation). The
    // ignition fraction is the percolation order parameter: ~0 below
    // the critical share, ~1 above it.
    int ignited = 0;
    for (const auto& rep : result.replications) {
      if (static_cast<double>(rep.total_infected) >= 0.01 * susceptible) ++ignited;
    }
    double ignition = result.replications.empty()
                          ? 0.0
                          : static_cast<double>(ignited) /
                                static_cast<double>(result.replications.size());
    std::cout << fmt(share, 2) << "," << fmt(result.final_infections.mean()) << ","
              << fmt(100.0 * penetration) << "%," << fmt(ignition, 2) << "\n";
    if (!first && ignition - previous_ignition > max_jump) {
      max_jump = ignition - previous_ignition;
      jump_at = share;
    }
    previous_ignition = ignition;
    first = false;
  }

  report("penetration is discontinuous in market share (percolation threshold)",
         "ignition probability jumps +" + fmt(max_jump, 2) + " crossing share " +
             fmt(jump_at, 2));
  harness.set_note("market_share_ignition_jump", max_jump);
  harness.set_note("market_share_jump_at", jump_at);
}

void run_shard_speedup(Harness& harness) {
  const graph::PhoneId population = max_ladder_population();
  constexpr std::uint32_t kShards = 4;
  std::cout << "\n== part 4: shard speedup (--shards 4, largest ladder rung " << population
            << ") ==\n";
  std::cout << "engine,final_infected,events,median_wall_s\n";

  // Same scenario family as the memory ladder so the serial rung is
  // directly comparable; single replication keeps the uncapped rung's
  // wall-clock bounded.
  core::ScenarioConfig config = core::market_share_scenario(0.50, population);
  config.name = "scale/shards";
  config.horizon = SimTime::days(10.0);

  auto median_wall = [&harness](const std::string& name) {
    for (const auto& c : harness.cases()) {
      if (c.name == name) return sample_quantile(c.wall_seconds, 0.5);
    }
    return 0.0;
  };

  std::uint64_t infected = 0;
  const std::string serial_label = "shard-speedup x1 @" + std::to_string(population);
  harness.run_case(serial_label, [&config, &infected] {
    core::Simulation sim(config, /*replication_seed=*/1);
    core::ReplicationResult rep = sim.run();
    infected = rep.total_infected;
    return rep.metrics.counter_value("des.events_executed");
  });
  const double serial_wall = median_wall(serial_label);
  std::cout << "serial," << infected << "," << harness.cases().back().events << ","
            << fmt(serial_wall, 3) << "\n";

  const std::string sharded_label =
      "shard-speedup x" + std::to_string(kShards) + " @" + std::to_string(population);
  double barrier_wait_s = 0.0;
  harness.run_case(sharded_label, [&config, &infected, &barrier_wait_s] {
    core::ShardingOptions options;
    options.shards = kShards;
    options.worker_threads = 0;  // one per shard
    // The window is part of the model (cross-shard latency floor); 10
    // simulated minutes is still tiny against the hour-scale read
    // delays that set the epidemic's tempo, and cuts the 10-day run
    // from 14400 barriers to 1440 so synchronization cost does not
    // swamp the measurement.
    options.window = SimTime::minutes(10.0);
    core::ShardedSimulation sim(config, /*replication_seed=*/1, options);
    core::ReplicationResult rep = sim.run();
    infected = rep.total_infected;
    if (const metrics::HistogramSample* h =
            rep.metrics.find_histogram("shard.barrier_wait_ms")) {
      barrier_wait_s = h->sum / 1000.0;
    }
    return rep.metrics.counter_value("des.events_executed");
  });
  const double sharded_wall = median_wall(sharded_label);
  const double speedup = sharded_wall > 0.0 ? serial_wall / sharded_wall : 0.0;
  std::cout << "shards=" << kShards << "," << infected << ","
            << harness.cases().back().events << "," << fmt(sharded_wall, 3) << "\n";

  const bool uncapped = population >= 1'000'000u;
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores != 0 && cores < kShards) {
    // The host cannot run the workers concurrently, so the measured
    // ratio is ~1x by construction. The barrier-wait series is the
    // shard-parallel portion of the wall (the coordinator blocked while
    // workers ran), so Amdahl gives what a host with >= kShards cores
    // would see; report it clearly labelled as a projection.
    const double parallel_s = std::min(barrier_wait_s, sharded_wall);
    const double projected_wall = sharded_wall - parallel_s + parallel_s / kShards;
    const double projected = projected_wall > 0.0 ? serial_wall / projected_wall : 0.0;
    report("one replication parallelizes across graph partitions",
           fmt(speedup, 2) + "x measured on a " + std::to_string(cores) +
               "-core host (concurrency-capped); Amdahl projection at >= " +
               std::to_string(kShards) + " cores: " + fmt(projected, 2) + "x" +
               (uncapped ? (projected >= 2.0 ? " — meets the 2x target"
                                             : " — BELOW the 2x target")
                         : " (capped rung; the 2x target applies at 10^6)"));
    harness.set_note("speedup_shards4_projected", projected);
  } else {
    report("one replication parallelizes across graph partitions",
           fmt(speedup, 2) + "x at --shards " + std::to_string(kShards) + " on " +
               std::to_string(population) + " phones" +
               (uncapped ? (speedup >= 2.0 ? " — meets the 2x target" : " — BELOW the 2x target")
                         : " (capped rung; the 2x target applies at 10^6)"));
  }
  harness.set_note("speedup_shards4", speedup);
  harness.set_note("speedup_shards4_population", static_cast<double>(population));
  harness.set_note("shard_barrier_wait_seconds", barrier_wait_s);
}

}  // namespace

int main() {
  std::cout << "mvsim SCALE: population scaling (paper section 5.3 + million-phone ladder)\n";
  Harness harness("scaling_population");
  run_paper_scaling(harness);
  run_memory_ladder(harness);
  run_market_share_sweep(harness);
  run_shard_speedup(harness);
  harness.write_report();
  return 0;
}
