// The benchmark's workloads (see ../README.md for why each exists).
//
// Every workload draws its inputs from a fixed pool of kPoolSize
// replication seeds derived from one reference master seed; --seed
// picks the order in which a run visits the pool. Each pool entry's
// outcome (events executed, phones infected) is pinned in pins.inc, so
// every replication a run executes is checked against a known answer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr int kPoolSize = 16;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: small populations, one replication, one op.
  bool tiny = false;
  /// Run every pool entry once and print the pins.inc lines for it.
  bool print_pins = false;
};

/// Metric name -> value (units live in the catalogue in main.cpp).
using Metrics = std::map<std::string, double>;

struct RunResult {
  std::uint64_t attempted = 0;  ///< replications run
  std::uint64_t failed = 0;     ///< replications that threw or missed their pin
  Metrics metrics;
  /// Consistency-check failures (traced vs untraced counters, span
  /// accounting); any entry makes the run incorrect.
  std::vector<std::string> problems;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs `options.workload`; throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] RunResult run_workload(const Options& options);

}  // namespace perfbench
