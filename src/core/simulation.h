// One simulation replication on one core.
//
// Simulation owns the topology stream, the contact graph (possibly
// shared with sibling replications through a GraphCache) and the
// struct-of-arrays phone population table, and drives one EngineSlice —
// scheduler, streams, gateway, virus sending processes and response
// mechanisms — covering the whole population, seeded with
// replication-level streams. One Simulation = one replication; the
// ReplicationRunner aggregates many.
#pragma once

#include <cstdint>
#include <memory>

#include "core/engine_slice.h"
#include "core/scenario.h"
#include "core/simulation_context.h"
#include "des/scheduler.h"
#include "graph/contact_graph.h"
#include "graph/graph_cache.h"
#include "metrics/registry.h"
#include "net/gateway.h"
#include "phone/phone_table.h"
#include "rng/stream.h"
#include "trace/trace.h"

namespace mvsim::core {

class Simulation final {
 public:
  /// Validates `config`; the replication seed makes runs reproducible
  /// and replications independent. When `trace` is non-null the whole
  /// causal event stream — message sent/blocked/delivered, infection
  /// (victim + infector + carrier message), patch, reboot, detectability
  /// crossing, mechanism actions — is recorded into it (the buffer must
  /// outlive the simulation). Tracing is observation-only: it never
  /// draws randomness or schedules events, so traced and untraced runs
  /// are bit-identical.
  ///
  /// When `event_timer` is non-null the scheduler reports each executed
  /// event's type and wall-clock duration to it (see des::EventTimer).
  /// Like tracing this is observation-only: timing never draws
  /// randomness or schedules events, so profiled runs are bit-identical
  /// to unprofiled ones.
  /// `des_impl` is kept for source compatibility: the calendar queue
  /// (des::QueueImpl::kWheel) is the only queue.
  ///
  /// When `graph_cache` is non-null the contact graph is fetched from
  /// (or built into) it instead of being built privately. The cache
  /// restores the exact post-build topology-stream state on a hit, so
  /// cached and uncached runs are byte-identical — including the
  /// rng.draws telemetry (see graph::GraphCache). The cache must
  /// outlive the simulation.
  Simulation(const ScenarioConfig& config, std::uint64_t replication_seed,
             trace::TraceBuffer* trace = nullptr, des::EventTimer* event_timer = nullptr,
             des::QueueImpl des_impl = des::QueueImpl::kWheel,
             graph::GraphCache* graph_cache = nullptr);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Runs to the configured horizon and returns the result. May be
  /// called once.
  ReplicationResult run();

  // ---- Fine-grained access for tests and interactive drivers ----

  /// Advance the clock; run() is equivalent to run_until(horizon) +
  /// result(). Monotone across calls.
  void run_until(SimTime t);

  [[nodiscard]] ReplicationResult result() const;

  /// The replication's telemetry so far (also embedded in result()).
  [[nodiscard]] metrics::Snapshot collect_metrics() const;

  [[nodiscard]] SimTime now() const { return slice_->scheduler().now(); }
  [[nodiscard]] std::uint64_t infected_count() const { return slice_->infected_count(); }
  /// Infected phones silenced by a patch so far.
  [[nodiscard]] std::uint64_t patched_infected() const { return slice_->patched_infected(); }
  /// Healthy phones immunized so far.
  [[nodiscard]] std::uint64_t immunized_healthy() const { return slice_->immunized_healthy(); }
  [[nodiscard]] const graph::ContactGraph& contact_graph() const { return *graph_; }
  /// The struct-of-arrays population state (health, susceptibility,
  /// inbox counts), indexed by PhoneId.
  [[nodiscard]] const phone::PhoneTable& phones() const { return *phones_; }
  [[nodiscard]] std::size_t susceptible_count() const { return slice_->patch_targets().size(); }
  [[nodiscard]] const net::Gateway& gateway() const { return slice_->gateway(); }
  [[nodiscard]] des::Scheduler& scheduler() { return slice_->scheduler(); }
  /// The response layer: detectability monitor + enabled mechanisms.
  [[nodiscard]] const SimulationContext& responses() const { return slice_->context(); }

 private:
  [[nodiscard]] SliceSet slices() const { return {{&slice_, 1}, nullptr}; }

  ScenarioConfig config_;
  // Susceptible sampling and patient zero draw here after the build.
  rng::Stream topology_stream_;
  // Immutable once built; shared with sibling replications when a
  // GraphCache is in play.
  std::shared_ptr<const graph::ContactGraph> graph_;
  phone::ConsentModel consent_;
  // unique_ptr for address stability: pending decision events capture
  // the table pointer.
  std::unique_ptr<phone::PhoneTable> phones_;
  std::unique_ptr<EngineSlice> slice_;
  bool ran_ = false;
};

/// Builds (or fetches) the contact graph for `config` into `cache`
/// ahead of the replications. Only meaningful when
/// `config.topology.shared_seed` is set — that is the mode where every
/// replication resolves to the same cache key; without it each
/// replication derives its own topology seed and there is nothing to
/// share. Returns true when a shared graph was warmed. The runner uses
/// this to report the one-time build phase separately from
/// per-replication progress.
bool prewarm_shared_graph(const ScenarioConfig& config, graph::GraphCache& cache);

}  // namespace mvsim::core
