// Sharded single-replication engine: one run on multiple cores.
//
// The serial Simulation executes a replication on one scheduler and
// therefore one core; at 10^6 phones that single thread is the
// wall-clock bound (ROADMAP item 2). ShardedSimulation partitions the
// contact graph into K contiguous, degree-balanced ranges
// (graph::Partition) and drives one EngineSlice per range — each with
// its own des::Scheduler, gateway, shard-salted RNG streams and
// response-mechanism instances. Shards advance in lockstep through
// fixed synchronization windows:
//
//   loop: run every shard to the window end (in parallel)
//         barrier: drain cross-shard mailboxes, sum detectability,
//                  tick progress
//
// Cross-shard MMS deliveries ride net::ShardMailboxGrid and pay a
// deterministic extra transit latency equal to the window width — the
// conservative lookahead that guarantees a drained entry can never
// land in a shard's past (no rollback needed). The full protocol,
// the determinism contract and the model-semantics notes (what changes
// at shards >= 2 and what does not) live in docs/parallelism.md.
//
// Determinism: fixed (config, seed, shards, window) ⇒ bit-identical
// results for ANY worker-thread count, including the inline
// single-thread mode. Results at shards >= 2 are a different (equally
// valid) sample path than the serial engine's — per-shard RNG streams
// and the cross-shard latency floor see to that — which is why the
// runner keeps `--shards 1` on the serial engine and the golden tests
// pin sharded curves separately.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/engine_slice.h"
#include "core/scenario.h"
#include "graph/graph_cache.h"
#include "graph/partition.h"
#include "net/shard_mailbox.h"
#include "phone/phone_table.h"
#include "rng/stream.h"
#include "trace/trace.h"

namespace mvsim::prof {
class Profiler;
}

namespace mvsim::core {

struct ShardingOptions {
  /// Worker shards (>= 2; a 1-shard run is just the serial engine, and
  /// the runner routes it there to keep the golden gate byte-exact).
  std::uint32_t shards = 2;
  /// Synchronization-window width; zero (default) resolves to the
  /// scenario's delivery_delay_mean. Part of the model at shards >= 2:
  /// cross-shard deliveries pay this much extra transit latency.
  SimTime window = SimTime::zero();
  /// OS threads executing the shards (0 = one per shard; 1 = inline
  /// serial execution on the calling thread). Never changes results.
  int worker_threads = 0;
  /// When non-null, the run records a causal trace into it: each shard
  /// fills a private buffer (capacity split evenly, trace->capacity()
  /// / shards each), message ids are namespaced by origin shard
  /// (trace::kShardMessageStride), and run() replaces *trace with
  /// the deterministic (time, shard) merge of all shard buffers.
  /// Observation-only: results are bit-identical with tracing on or
  /// off, at any worker count.
  trace::TraceBuffer* trace = nullptr;
  /// Attach a prof::Profiler to every shard's scheduler (per-event
  /// wall-clock, plus the prof.shard.window_us per-window series);
  /// snapshots merge into the result metrics. Observation-only.
  bool profile = false;
};

class ShardedSimulation final {
 public:
  /// Called at each window barrier (from the coordinating thread):
  /// `window_end` is the simulated time just reached, `events` the
  /// events executed so far across all shards.
  using WindowObserver = std::function<void(SimTime window_end, SimTime horizon,
                                            std::uint64_t events)>;

  /// One telemetry sample per window barrier (obs::RunStream feeds on
  /// these). Counters are cumulative since construction; gauges are
  /// instantaneous at the barrier.
  struct ShardWindowSample {
    SimTime window_end;
    SimTime horizon;
    std::uint64_t events_executed = 0;   ///< all shards, cumulative
    std::uint64_t queue_depth = 0;       ///< pending events, all shards
    std::uint64_t infected = 0;          ///< phones ever infected (cumulative)
    std::uint64_t patched = 0;           ///< patched or immunized phones
    std::uint64_t messages_blocked = 0;  ///< gateway blocks, all shards
    std::uint64_t mailbox_sent = 0;      ///< cross-shard entries pushed
    std::uint64_t mailbox_received = 0;  ///< cross-shard entries drained
    /// Coordinator wait at this window's completion barrier (0 when
    /// the shards run inline on the calling thread).
    double barrier_wait_ms = 0.0;
    /// True on the run's final window — horizon reached or epidemic
    /// quiescent — so samplers can always emit a closing sample even
    /// when the run ends before the first period mark.
    bool last = false;
    struct PerShard {
      std::uint64_t events_executed = 0;
      std::uint64_t queue_depth = 0;
      /// Wall-clock ms between this shard finishing its window and the
      /// completion barrier releasing — the shard that waited least is
      /// the straggler the others stalled on. 0 when shards run inline.
      double barrier_wait_ms = 0.0;
    };
    std::vector<PerShard> shards;  ///< indexed by shard id
  };

  /// Called at each window barrier, after the mailbox exchange, from
  /// the coordinating thread. Observation-only by contract.
  using StatsObserver = std::function<void(const ShardWindowSample&)>;

  /// Validates `config` and the sharding options. Scenarios with a
  /// proximity (Bluetooth) channel are rejected: proximity contacts
  /// are global by construction and do not respect the partition.
  /// `des_impl` and `graph_cache` mean exactly what they do on the
  /// serial Simulation (`des_impl` is kept for source compatibility).
  ShardedSimulation(const ScenarioConfig& config, std::uint64_t replication_seed,
                    const ShardingOptions& options,
                    des::QueueImpl des_impl = des::QueueImpl::kWheel,
                    graph::GraphCache* graph_cache = nullptr);
  ~ShardedSimulation();
  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  void set_window_observer(WindowObserver observer) { window_observer_ = std::move(observer); }
  void set_stats_observer(StatsObserver observer) { stats_observer_ = std::move(observer); }

  /// Runs the window loop to the horizon and returns the merged
  /// result. May be called once.
  ReplicationResult run();

  // ---- Introspection for tests ----
  [[nodiscard]] std::uint32_t shard_count() const { return options_.shards; }
  [[nodiscard]] SimTime window() const { return window_; }
  [[nodiscard]] const graph::Partition& partition() const { return *partition_; }
  [[nodiscard]] const graph::ContactGraph& contact_graph() const { return *graph_; }

 private:
  /// What the driver keeps beside each shard's slice: its profiler and
  /// what the coordinator staged for it at the last barrier. The window
  /// barriers order the coordinator's and the owning worker's accesses,
  /// so none of it needs synchronization.
  struct Lane {
    std::unique_ptr<prof::Profiler> profiler;  ///< under options.profile
    std::vector<net::CrossShardDelivery> staged;
    std::optional<SimTime> pending_detect;
    /// When the shard finished its last window (read by the coordinator
    /// after the barrier for the per-shard barrier waits).
    std::chrono::steady_clock::time_point window_finished{};
  };

  [[nodiscard]] SliceSet slices() const { return {slices_, partition_.get()}; }
  /// Barrier step: drains every mailbox into the destination lanes
  /// (deterministic source order).
  void exchange_mailboxes();
  /// Barrier step: sums per-shard infected-submission counts and, on
  /// the global threshold crossing, stages force_detect for every shard
  /// at `window_end`.
  void check_detectability(SimTime window_end);
  /// Stamps the global crossing at `at` and traces it.
  void record_detection(SimTime at);
  [[nodiscard]] std::uint64_t events_executed_total() const;
  [[nodiscard]] bool quiescent() const;
  /// Builds the barrier-time telemetry sample for the stats observer.
  /// `barrier_release` is when the completion barrier opened (a default
  /// time_point in inline mode, zeroing the per-shard waits).
  [[nodiscard]] ShardWindowSample sample_window(
      SimTime window_end, double barrier_wait_ms,
      std::chrono::steady_clock::time_point barrier_release) const;
  /// Schedules what the coordinator staged for shard `s` at the last
  /// barrier: first the drained cross-shard deliveries (in drain
  /// order), then the detectability crossing. Running it on the owning
  /// worker parallelizes the per-entry scheduling cost across shards.
  void flush_staged(std::size_t s);
  /// One lockstep window of shard `s`: flush, then run to `until`.
  /// Under --profile the window's wall-clock lands in
  /// prof.shard.window_us (its spread is the imbalance the barrier
  /// stalls on).
  void run_shard(std::size_t s, SimTime until);

  ScenarioConfig config_;
  ShardingOptions options_;
  SimTime window_;
  int workers_ = 1;

  rng::Stream topology_stream_;
  std::shared_ptr<const graph::ContactGraph> graph_;
  std::unique_ptr<graph::Partition> partition_;
  phone::ConsentModel consent_;
  net::ShardMailboxGrid mailbox_;
  // unique_ptr for address stability, same contract as the serial
  // engine: decision events capture the table pointer.
  std::unique_ptr<phone::PhoneTable> phones_;
  std::vector<Lane> lanes_;  // before slices_: profilers outlive schedulers
  std::vector<std::unique_ptr<EngineSlice>> slices_;

  // Barrier-quantized global detectability (docs/parallelism.md).
  SimTime detected_at_ = SimTime::infinity();

  WindowObserver window_observer_;
  StatsObserver stats_observer_;

  // Coordinator-level trace events (the detectability crossing); shard
  // kNoShard, merged after the per-shard buffers at the end of run().
  trace::TraceBuffer engine_trace_{1};

  // Engine-level telemetry (merged on top of the per-shard registries).
  std::uint64_t windows_stepped_ = 0;
  std::vector<double> barrier_wait_ms_;  // one sample per threaded window

  bool ran_ = false;
};

}  // namespace mvsim::core
