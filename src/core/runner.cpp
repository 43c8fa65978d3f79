#include "core/runner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/sharded_simulation.h"
#include "metrics/registry.h"
#include "obs/stats_stream.h"
#include "prof/profiler.h"
#include "rng/seed.h"

namespace mvsim::core {

namespace {

/// Serializes progress callbacks across workers and accumulates the
/// experiment-so-far counts they report. Mutex-guarded shared state is
/// fine here: one lock per completed replication, nothing on the event
/// loop's hot path.
class ProgressSink {
 public:
  ProgressSink(const RunnerOptions& options, const ScenarioConfig& config)
      : options_(&options),
        started_(std::chrono::steady_clock::now()) {
    update_.label = options.progress_label.empty() ? config.name : options.progress_label;
    update_.replications_total = options.replications;
    update_.config_index = options.progress_config_index;
    update_.config_count = options.progress_config_count;
    update_.shards = static_cast<int>(options.shards);
  }

  /// Reports the one-time shared-graph prewarm and restarts the
  /// replication clock, so `elapsed_seconds`/ETA cover only the
  /// replications themselves.
  void build_done(double build_seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    update_.build_seconds = build_seconds;
    update_.build_phase = true;
    options_->progress(update_);
    update_.build_phase = false;
    started_ = std::chrono::steady_clock::now();
  }

  void replication_done(const ReplicationResult& result) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++update_.replications_done;
    update_.events_executed += result.metrics.counter_value("des.events_executed");
    update_.window_fraction = 0.0;
    update_.window_events = 0;
    refresh_rates(0.0, 0);
    options_->progress(update_);
  }

  /// A sharded replication reached a window barrier. Throttled by wall
  /// clock (the window loop can tick thousands of times a second on
  /// small scenarios); meaningful when replications run one at a time
  /// (`threads` 1), which is the common shape for sharded runs.
  void window_tick(SimTime window_end, SimTime horizon, std::uint64_t events) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(now - last_window_emit_).count() < 0.25) return;
    last_window_emit_ = now;
    const double fraction = horizon > SimTime::zero() ? window_end / horizon : 0.0;
    update_.window_fraction = fraction;
    update_.window_events = events;
    refresh_rates(fraction, events);
    options_->progress(update_);
    update_.window_fraction = 0.0;
    update_.window_events = 0;
  }

 private:
  /// Recomputes elapsed / events-per-sec / ETA, counting a partially
  /// complete replication as `fraction` of one (so barrier stalls show
  /// up in the ETA as they happen).
  void refresh_rates(double fraction, std::uint64_t partial_events) {
    update_.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started_).count();
    update_.events_per_sec =
        update_.elapsed_seconds > 0.0
            ? static_cast<double>(update_.events_executed + partial_events) /
                  update_.elapsed_seconds
            : 0.0;
    const double done = static_cast<double>(update_.replications_done) + fraction;
    const double remaining = static_cast<double>(update_.replications_total) - done;
    update_.eta_seconds = done > 0.0 ? update_.elapsed_seconds / done * remaining : 0.0;
  }

  const RunnerOptions* options_;
  std::chrono::steady_clock::time_point started_;
  std::chrono::steady_clock::time_point last_window_emit_ = started_;
  std::mutex mutex_;
  ProgressUpdate update_;
};

/// Runs replications [0, count) into `slots`, pulling indices from a
/// shared counter. Each replication is a fully independent Simulation;
/// the only shared state is the index counter, the output slot owned
/// exclusively by the replication that claimed it, and the (mutex-
/// serialized) progress sink. Each replication is wall-clock timed
/// here (construction + run), feeding the runner's `timing.*` metrics;
/// under `options.profile` it additionally carries its own Profiler,
/// whose snapshot rides along in the replication's metrics.
void run_worker(const ScenarioConfig& config, const RunnerOptions& options, int count,
                std::atomic<int>& next, std::vector<ReplicationResult>& slots,
                ProgressSink* progress, graph::GraphCache* cache) {
  for (;;) {
    int rep = next.fetch_add(1, std::memory_order_relaxed);
    if (rep >= count) return;
    auto started = std::chrono::steady_clock::now();
    if (options.shards > 1) {
      ShardingOptions sharding;
      sharding.shards = options.shards;
      sharding.window = options.shard_window;
      sharding.worker_threads = options.shard_workers;
      // Same single-replication trace contract as the serial path; the
      // engine fans the buffer out into per-shard slices and merges
      // them back at the end of run().
      sharding.trace = rep == options.trace_replication ? options.trace : nullptr;
      sharding.profile = options.profile;
      // The engine profiles per-shard event costs; this profiler adds
      // the engine-level build/run phases (collect stays zero-count —
      // it is folded into ShardedSimulation::run()).
      std::unique_ptr<prof::Profiler> profiler;
      if (options.profile) profiler = std::make_unique<prof::Profiler>();

      std::optional<ShardedSimulation> sim;
      {
        prof::ScopedPhase phase(profiler.get(), prof::Phase::kBuild);
        sim.emplace(config,
                    rng::derive_seed(options.master_seed, static_cast<std::uint64_t>(rep)),
                    sharding, des::QueueImpl::kWheel, cache);
      }
      if (progress != nullptr) {
        sim->set_window_observer(
            [progress](SimTime window_end, SimTime horizon, std::uint64_t events) {
              progress->window_tick(window_end, horizon, events);
            });
      }
      if (options.stats_stream != nullptr) {
        // Sample at the first barrier at or past each period mark (the
        // barrier grid is the only place the engine pauses).
        obs::RunStream* stream = options.stats_stream;
        const SimTime period = options.stats_period;
        auto next_sample = std::make_shared<SimTime>(period);
        sim->set_stats_observer(
            [stream, rep, period, next_sample,
             started](const ShardedSimulation::ShardWindowSample& w) {
              // Emit at each period mark, plus always on the final
              // window (horizon or early quiescence) so every
              // replication streams at least one sample.
              if (!w.last && w.window_end < *next_sample) return;
              while (*next_sample <= w.window_end) *next_sample = *next_sample + period;
              obs::RunSample sample;
              sample.replication = rep;
              sample.time = w.window_end;
              sample.infected = w.infected;
              sample.patched = w.patched;
              sample.messages_blocked = w.messages_blocked;
              sample.events_executed = w.events_executed;
              const double elapsed =
                  std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                      .count();
              sample.events_per_sec =
                  elapsed > 0.0 ? static_cast<double>(w.events_executed) / elapsed : 0.0;
              sample.queue_depth = w.queue_depth;
              sample.mailbox_sent = w.mailbox_sent;
              sample.mailbox_received = w.mailbox_received;
              sample.shards.reserve(w.shards.size());
              for (std::size_t s = 0; s < w.shards.size(); ++s) {
                obs::ShardSample per;
                per.shard = static_cast<std::uint32_t>(s);
                per.events_executed = w.shards[s].events_executed;
                per.queue_depth = w.shards[s].queue_depth;
                per.barrier_wait_ms = w.shards[s].barrier_wait_ms;
                sample.shards.push_back(per);
              }
              stream->write_sample(sample);
            });
      }
      ReplicationResult result;
      {
        prof::ScopedPhase phase(profiler.get(), prof::Phase::kRun);
        result = sim->run();
      }
      if (profiler != nullptr) result.metrics.merge(profiler->snapshot());
      result.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
      slots[static_cast<std::size_t>(rep)] = std::move(result);
      if (progress != nullptr) progress->replication_done(slots[static_cast<std::size_t>(rep)]);
      continue;
    }
    trace::TraceBuffer* trace = rep == options.trace_replication ? options.trace : nullptr;
    std::unique_ptr<prof::Profiler> profiler;
    if (options.profile) profiler = std::make_unique<prof::Profiler>();

    std::optional<Simulation> sim;
    {
      prof::ScopedPhase phase(profiler.get(), prof::Phase::kBuild);
      sim.emplace(config,
                  rng::derive_seed(options.master_seed, static_cast<std::uint64_t>(rep)), trace,
                  profiler.get(), des::QueueImpl::kWheel, cache);
    }
    {
      prof::ScopedPhase phase(profiler.get(), prof::Phase::kRun);
      if (options.stats_stream == nullptr) {
        sim->run_until(config.horizon);
      } else {
        // Stepped run: run_until(a); run_until(b) executes the exact
        // event sequence of run_until(b), so sampling between steps is
        // bit-identical to an uninterrupted run (golden-pinned).
        obs::RunStream* stream = options.stats_stream;
        SimTime t = SimTime::zero();
        while (t < config.horizon) {
          t = min(t + options.stats_period, config.horizon);
          sim->run_until(t);
          obs::RunSample sample;
          sample.replication = rep;
          sample.time = t;
          sample.infected = sim->infected_count();
          sample.patched = sim->patched_infected() + sim->immunized_healthy();
          sample.messages_blocked = sim->gateway().counters().messages_blocked;
          sample.events_executed = sim->scheduler().executed_count();
          const double elapsed =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                  .count();
          sample.events_per_sec =
              elapsed > 0.0 ? static_cast<double>(sample.events_executed) / elapsed : 0.0;
          sample.queue_depth = sim->scheduler().pending_count();
          stream->write_sample(sample);
        }
      }
    }
    ReplicationResult result;
    {
      prof::ScopedPhase phase(profiler.get(), prof::Phase::kCollect);
      result = sim->result();
    }
    if (profiler != nullptr) result.metrics.merge(profiler->snapshot());
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    slots[static_cast<std::size_t>(rep)] = std::move(result);
    if (progress != nullptr) progress->replication_done(slots[static_cast<std::size_t>(rep)]);
  }
}

// Fixed bucket bounds so timing histograms from any two runs are
// structurally mergeable (values themselves are machine-dependent).
constexpr std::array<double, 7> kWallMsBounds = {1.0,    5.0,    25.0,   100.0,
                                                 500.0,  2500.0, 10000.0};
constexpr std::array<double, 7> kEventsPerSecBounds = {1e3, 1e4, 1e5, 5e5, 1e6, 5e6, 1e7};

/// Folds the per-replication snapshots (in replication order) and the
/// runner's own timing series into one experiment-level snapshot.
metrics::Snapshot merge_metrics(const std::vector<ReplicationResult>& slots,
                                double experiment_wall_seconds) {
  metrics::Registry timing;
  timing.counter("timing.replications").add(slots.size());
  timing.gauge("timing.experiment_wall_ms")
      .set(static_cast<std::uint64_t>(std::llround(experiment_wall_seconds * 1000.0)));
  auto& wall_ms = timing.histogram("timing.replication_wall_ms", kWallMsBounds);
  auto& throughput = timing.histogram("timing.events_per_sec", kEventsPerSecBounds);
  for (const ReplicationResult& r : slots) {
    wall_ms.record(r.wall_seconds * 1000.0);
    if (r.wall_seconds > 0.0) {
      throughput.record(static_cast<double>(r.metrics.counter_value("des.events_executed")) /
                        r.wall_seconds);
    }
  }

  metrics::Snapshot merged = timing.snapshot();
  for (const ReplicationResult& r : slots) merged.merge(r.metrics);
  return merged;
}

}  // namespace

ExperimentResult run_experiment(const ScenarioConfig& config, const RunnerOptions& options) {
  if (options.replications < 1) {
    throw std::invalid_argument("run_experiment: replications must be >= 1");
  }
  if (options.threads < 0) {
    throw std::invalid_argument("run_experiment: threads must be >= 0");
  }
  if (options.trace != nullptr &&
      (options.trace_replication < 0 || options.trace_replication >= options.replications)) {
    throw std::invalid_argument(
        "run_experiment: trace_replication must name one of the replications");
  }
  if (options.shards == 0) {
    throw std::invalid_argument("run_experiment: shards must be >= 1");
  }
  if (options.stats_stream != nullptr && !(options.stats_period > SimTime::zero())) {
    throw std::invalid_argument("run_experiment: stats_period must be positive");
  }
  if (options.shards > 1) {
    // Checked here, not in the worker: a worker-thread throw cannot be
    // caught by the caller. The sharded engine re-validates anyway.
    if (config.proximity) {
      throw std::invalid_argument(
          "run_experiment: proximity (Bluetooth) scenarios cannot run sharded — proximity "
          "contacts ignore the graph partition; use shards == 1");
    }
    if (options.shards > config.population) {
      throw std::invalid_argument("run_experiment: shards must be <= population");
    }
  }
  config.validate().throw_if_invalid();

  auto experiment_started = std::chrono::steady_clock::now();

  int thread_count = options.threads;
  if (thread_count == 0) {
    thread_count = static_cast<int>(std::thread::hardware_concurrency());
    if (thread_count < 1) thread_count = 1;
  }
  thread_count = std::min(thread_count, options.replications);

  std::vector<ReplicationResult> slots(static_cast<std::size_t>(options.replications));
  std::optional<ProgressSink> progress;
  if (options.progress) progress.emplace(options, config);
  ProgressSink* sink = progress ? &*progress : nullptr;

  // Cache policy: an explicit cache is always honored; otherwise one
  // is created only under topology.shared_seed, where replications
  // actually converge on the same key. (Without a shared seed every
  // replication has a distinct key, so a cache would just retain dead
  // graphs.)
  graph::GraphCache* cache = options.graph_cache;
  std::optional<graph::GraphCache> local_cache;
  if (cache == nullptr && config.topology.shared_seed) {
    local_cache.emplace();
    cache = &*local_cache;
  }
  if (cache != nullptr && config.topology.shared_seed) {
    // Build the shared graph once, up front, so (a) workers never race
    // to be the builder, and (b) the one-time build cost is reported
    // separately instead of skewing the first replication's ETA.
    auto build_started = std::chrono::steady_clock::now();
    prewarm_shared_graph(config, *cache);
    double build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - build_started).count();
    if (sink != nullptr) sink->build_done(build_seconds);
  }

  if (thread_count <= 1) {
    std::atomic<int> next{0};
    run_worker(config, options, options.replications, next, slots, sink, cache);
  } else {
    std::atomic<int> next{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(thread_count));
    for (int t = 0; t < thread_count; ++t) {
      workers.emplace_back(run_worker, std::cref(config), std::cref(options),
                           options.replications, std::ref(next), std::ref(slots), sink, cache);
    }
    for (std::thread& worker : workers) worker.join();
  }

  // Aggregation in replication order makes the result independent of
  // the scheduling above. Snapshot merging is commutative and
  // associative, so the merged metrics are thread-count-invariant too.
  double experiment_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - experiment_started)
          .count();
  ExperimentResult result(stats::AggregatedSeries(config.sample_step, config.horizon));
  result.metrics = merge_metrics(slots, experiment_wall_seconds);
  result.threads_used = thread_count;
  for (ReplicationResult& r : slots) {
    result.curve.add_replication(r.infections);
    result.final_infections.add(static_cast<double>(r.total_infected));
    result.messages_submitted.add(static_cast<double>(r.gateway.messages_submitted));
    result.messages_blocked.add(static_cast<double>(r.gateway.messages_blocked));
    result.phones_blacklisted.add(static_cast<double>(r.phones_blacklisted));
    result.phones_flagged.add(static_cast<double>(r.phones_flagged));
    result.patches_applied.add(static_cast<double>(r.immunized_healthy + r.patched_infected));
    result.bluetooth_push_attempts.add(static_cast<double>(r.bluetooth_push_attempts));
    for (const auto& [name, value] : r.response_extras) {
      auto it = std::find_if(result.response_extras.begin(), result.response_extras.end(),
                             [&name = name](const auto& e) { return e.first == name; });
      if (it == result.response_extras.end()) {
        result.response_extras.emplace_back(name, stats::Accumulator());
        it = std::prev(result.response_extras.end());
      }
      it->second.add(static_cast<double>(value));
    }
    if (options.keep_replications) result.replications.push_back(std::move(r));
  }
  // A replication that never reported a name counts as 0 for it, so
  // every extra aggregates over the same replication count.
  for (auto& [name, acc] : result.response_extras) {
    while (acc.count() < static_cast<std::size_t>(options.replications)) acc.add(0.0);
  }
  return result;
}

namespace {

int int_from_env(const char* name, int fallback, long lo, long hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return static_cast<int>(std::clamp(value, lo, hi));
}

}  // namespace

int replications_from_env(int fallback) {
  return int_from_env("MVSIM_REPS", fallback, 1L, 1000L);
}

int threads_from_env(int fallback) {
  return int_from_env("MVSIM_THREADS", fallback, 0L, 1024L);
}

}  // namespace mvsim::core
