// Allocation witness for the run phase: once a replication is built,
// running it allocates at most a couple of times per infection (row,
// arena, queue and record growth, all amortized), not once per message.
// The binary replaces the global operator new with a counting one, so
// it is its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/presets.h"
#include "core/sharded_simulation.h"
#include "core/simulation.h"
#include "virus/profile.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void start_counting() {
  g_allocations.store(0);
  g_counting.store(true);
}

std::uint64_t stop_counting() {
  g_counting.store(false);
  return g_allocations.load();
}

}  // namespace

// The array and nothrow forms forward to these two, so replacing them
// counts every non-aligned allocation. Kept out of line so the compiler
// never pairs an inlined malloc with an inlined free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
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

namespace mvsim::core {
namespace {

constexpr graph::PhoneId kPopulation = 5'000;
constexpr double kMaxAllocationsPerInfection = 2.0;
constexpr std::uint64_t kSeed = 0xA110C;

ScenarioConfig scenario(const virus::VirusProfile& profile) {
  ScenarioConfig config = baseline_scenario(profile);
  config.population = kPopulation;
  return config;
}

class RunPhaseAllocations : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] virus::VirusProfile profile() const {
    switch (GetParam()) {
      case 1: return virus::virus1();
      case 2: return virus::virus2();
      case 3: return virus::virus3();
      default: return virus::virus4();
    }
  }
};

TEST_P(RunPhaseAllocations, SerialEngine) {
  const ScenarioConfig config = scenario(profile());
  Simulation sim(config, kSeed);
  start_counting();
  sim.run_until(config.horizon);
  const std::uint64_t allocations = stop_counting();
  const std::uint64_t infected = sim.infected_count();
  ASSERT_GT(infected, 100u) << config.virus.name << " must spread for the witness to mean much";
  EXPECT_LE(static_cast<double>(allocations),
            kMaxAllocationsPerInfection * static_cast<double>(infected))
      << config.virus.name << ": " << allocations << " run-phase allocations for " << infected
      << " infections";
}

TEST_P(RunPhaseAllocations, ShardedEngineTwoShards) {
  const ScenarioConfig config = scenario(profile());
  ShardingOptions options;
  options.shards = 2;
  options.worker_threads = 1;
  ShardedSimulation sim(config, kSeed, options);
  // Stop at the last barrier, before run() assembles its result.
  std::uint64_t allocations = 0;
  sim.set_window_observer([&allocations](SimTime window_end, SimTime horizon, std::uint64_t) {
    if (!(window_end < horizon)) allocations = stop_counting();
  });
  start_counting();
  const ReplicationResult result = sim.run();
  if (g_counting.load()) allocations = stop_counting();  // went quiet before the horizon
  ASSERT_GT(result.total_infected, 100u)
      << config.virus.name << " must spread for the witness to mean much";
  EXPECT_LE(static_cast<double>(allocations),
            kMaxAllocationsPerInfection * static_cast<double>(result.total_infected))
      << config.virus.name << ": " << allocations << " run-phase allocations for "
      << result.total_infected << " infections";
}

INSTANTIATE_TEST_SUITE_P(PaperViruses, RunPhaseAllocations, ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& param) {
                           return "virus" + std::to_string(param.param);
                         });

}  // namespace
}  // namespace mvsim::core
