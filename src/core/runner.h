// Replication runner: many independent runs of one scenario,
// aggregated into the mean curve the paper's figures plot.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "core/simulation.h"
#include "stats/aggregate.h"

namespace mvsim::obs {
class RunStream;
}

namespace mvsim::core {

struct ExperimentResult {
  /// Mean infected-count curve across replications (plus spread).
  stats::AggregatedSeries curve;
  /// Distribution of per-replication totals at the horizon.
  stats::Accumulator final_infections;
  stats::Accumulator messages_submitted;
  stats::Accumulator messages_blocked;
  stats::Accumulator phones_blacklisted;
  stats::Accumulator phones_flagged;
  stats::Accumulator patches_applied;
  stats::Accumulator bluetooth_push_attempts;
  /// Mechanism-specific counters (ReplicationResult::response_extras),
  /// aggregated by name in first-seen order. A replication that omits a
  /// name contributes 0 for it.
  std::vector<std::pair<std::string, stats::Accumulator>> response_extras;
  /// Replication snapshots merged in replication order, plus the
  /// runner's own `timing.*` series. All non-timing metrics are
  /// deterministic in (config, master_seed) and thread-count-invariant;
  /// `timing.*` is machine-dependent by nature (see
  /// docs/observability.md).
  metrics::Snapshot metrics;
  /// Worker threads actually used (RunnerOptions::threads after
  /// resolving 0 = hardware concurrency and clamping to the
  /// replication count). Informational only — results never depend on
  /// it.
  int threads_used = 1;
  /// Per-replication results, in replication order.
  std::vector<ReplicationResult> replications;

  explicit ExperimentResult(stats::AggregatedSeries aggregated) : curve(std::move(aggregated)) {}
};

/// One live progress observation, delivered after each replication
/// completes. Counts are cumulative over the experiment so far;
/// `config_index`/`config_count` situate the experiment inside a
/// multi-config driver (a sweep point, a figure series), both 0-based /
/// 1 for a standalone run.
struct ProgressUpdate {
  std::string label;               ///< scenario (or sweep-point) label
  int replications_done = 0;
  int replications_total = 0;
  std::uint64_t events_executed = 0;  ///< summed over completed replications
  double elapsed_seconds = 0.0;
  double events_per_sec = 0.0;        ///< events_executed / elapsed_seconds
  double eta_seconds = 0.0;           ///< naive: elapsed/done * remaining
  /// True for the one update emitted when a shared contact graph
  /// finished prewarming, before any replication ran. The build is
  /// one-time work, so `elapsed_seconds` (and thus the ETA) excludes
  /// it — first-replication ETAs are no longer skewed by it.
  bool build_phase = false;
  /// Wall-clock seconds the shared-graph prewarm took (0 when the
  /// scenario builds per-replication graphs).
  double build_seconds = 0.0;
  int config_index = 0;
  int config_count = 1;
  /// Shards per replication (RunnerOptions::shards; 1 = serial engine).
  int shards = 1;
  /// Sharded runs only: mid-replication updates emitted at window
  /// barriers (throttled to a few per second). `window_fraction` is the
  /// fraction of the horizon the in-flight replication has reached,
  /// `window_events` the events it has executed so far; both are 0 on
  /// ordinary end-of-replication updates. ETA and events/sec include
  /// the partial replication, so they account for barrier stalls as
  /// they happen instead of only between replications.
  double window_fraction = 0.0;
  std::uint64_t window_events = 0;
};

/// Invocations are serialized by the runner (never concurrent), in
/// completion order — which under threads is not replication order.
using ProgressReporter = std::function<void(const ProgressUpdate&)>;

struct RunnerOptions {
  int replications = 10;
  std::uint64_t master_seed = 0x5eed'0000'0001ULL;
  /// Keep the per-replication results (memory is tiny; on by default).
  bool keep_replications = true;
  /// Worker threads. Replications are independent simulations, so they
  /// parallelize perfectly; results are aggregated in replication order
  /// afterwards, so the outcome is bit-identical for any thread count.
  /// 0 = use the hardware concurrency.
  int threads = 1;
  /// When `trace` is non-null, the replication with this index records
  /// its causal event stream into it. One replication, not all: a trace
  /// is a microscope on a single run, and a shared buffer across
  /// workers would interleave unrelated runs. Tracing is
  /// observation-only — results are bit-identical with it on or off.
  int trace_replication = 0;
  trace::TraceBuffer* trace = nullptr;
  /// Attach a prof::Profiler to every replication: per-event-type
  /// wall-clock histograms plus build/run/collect phase timers, merged
  /// into ExperimentResult::metrics as the `prof.*` series. Like
  /// `timing.*` the values are machine-dependent; like tracing the
  /// instrumentation is observation-only, so profiled runs are
  /// bit-identical to unprofiled ones.
  bool profile = false;
  /// Shared-graph cache. When non-null, every replication fetches its
  /// contact graph through this cache instead of building privately —
  /// byte-identical results either way (see graph::GraphCache). When
  /// null and the scenario sets topology.shared_seed, the runner
  /// creates a local cache for the experiment so the shared graph is
  /// built once, not once per replication.
  graph::GraphCache* graph_cache = nullptr;
  /// Shards per replication (`mvsim run --shards N`). 1 (default)
  /// routes through the classic serial Simulation, bit-identical to
  /// every release before sharding existed. >= 2 runs each replication
  /// on a ShardedSimulation: the contact graph is partitioned into
  /// `shards` contiguous degree-balanced ranges, each with its own
  /// scheduler and RNG streams, synchronized at window barriers.
  /// Results at >= 2 are a different (equally valid) sample path than
  /// the serial engine's — see docs/parallelism.md for the model and
  /// the determinism contract. Composes with `trace` (per-shard buffers
  /// merged deterministically), `profile` (per-shard profilers merged
  /// commutatively) and `stats_stream`; only proximity (Bluetooth)
  /// scenarios are rejected.
  std::uint32_t shards = 1;
  /// Synchronization-window width for sharded runs; zero = the
  /// scenario's delivery_delay_mean. Part of the model (cross-shard
  /// deliveries pay this much extra latency), so it changes results —
  /// unlike thread counts, which never do.
  SimTime shard_window = SimTime::zero();
  /// OS threads per sharded replication (0 = one per shard; 1 = inline
  /// on the worker). Never changes results. Composes multiplicatively
  /// with `threads`: total concurrency ~= threads * shard_workers.
  int shard_workers = 0;
  /// When non-null, every replication appends time-series telemetry
  /// samples to this stream (obs::RunStream is thread-safe; records are
  /// tagged with their replication index). Serial replications sample
  /// every `stats_period` of simulation time by stepping run_until —
  /// bit-identical to one uninterrupted run; sharded replications
  /// sample at the first window barrier at or past each period mark.
  /// Observation-only. The caller writes the stream header.
  obs::RunStream* stats_stream = nullptr;
  /// Simulation-time spacing between stats samples (`mvsim run
  /// --stats-period MIN`); must be positive when stats_stream is set.
  SimTime stats_period = SimTime::minutes(30);
  /// When set, called after every completed replication (serialized,
  /// in completion order). Observation-only.
  ProgressReporter progress;
  /// Label for ProgressUpdate::label; empty = the scenario's name.
  std::string progress_label;
  int progress_config_index = 0;
  int progress_config_count = 1;
};

/// Runs `options.replications` independent replications of `config`.
/// Replication i uses seed derive_seed(master_seed, i); the same
/// (config, options) pair always produces identical results, regardless
/// of `options.threads`.
[[nodiscard]] ExperimentResult run_experiment(const ScenarioConfig& config,
                                              const RunnerOptions& options = {});

/// Reads the replication count for benches from MVSIM_REPS (falls back
/// to `fallback`; clamped to [1, 1000]).
[[nodiscard]] int replications_from_env(int fallback);

/// Reads the worker-thread count for benches from MVSIM_THREADS (falls
/// back to `fallback`; clamped to [0, 1024], 0 = hardware concurrency).
/// Results are thread-count-invariant, so this only changes wall-clock.
[[nodiscard]] int threads_from_env(int fallback);

}  // namespace mvsim::core
