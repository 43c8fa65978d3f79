// One engine slice: the event-driven model of a contiguous range of
// phones on one scheduler — its streams, gateway, phone and sending
// environments, response layer, trace taps and infection/patch
// counters. The infection, patch and telemetry handlers are written
// here once. The serial Simulation drives one slice over the whole
// population; ShardedSimulation drives one per graph::Partition range.
// What differs between the two is the slice's Shard seat (seed salt,
// mailbox routing, trace namespace and share, deferred detection) and
// the event timer the driver passes in. Only the serial engine accepts
// proximity (Bluetooth) scenarios.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "core/simulation_context.h"
#include "des/scheduler.h"
#include "graph/contact_graph.h"
#include "graph/partition.h"
#include "metrics/registry.h"
#include "mobility/grid.h"
#include "mobility/movement.h"
#include "net/gateway.h"
#include "net/shard_mailbox.h"
#include "phone/phone_table.h"
#include "rng/stream.h"
#include "stats/time_series.h"
#include "trace/recorder.h"
#include "trace/trace.h"
#include "virus/sender_table.h"

namespace mvsim::core {

/// Everything a replication reports back.
struct ReplicationResult {
  /// Step series of the infected-phone count over time (the quantity
  /// every figure in the paper plots).
  stats::TimeSeries infections;
  std::uint64_t total_infected = 0;
  std::uint64_t immunized_healthy = 0;   ///< phones patched while healthy
  std::uint64_t patched_infected = 0;    ///< infected phones silenced by a patch
  std::uint64_t phones_blacklisted = 0;
  std::uint64_t phones_flagged = 0;
  /// Bluetooth infection offers made (scenarios with a proximity
  /// channel only); this traffic never transits the gateway.
  std::uint64_t bluetooth_push_attempts = 0;
  /// Mechanism-specific counters beyond the standard fields above,
  /// keyed by mechanism-chosen names (e.g. "phones_rate_limited").
  std::vector<std::pair<std::string, std::uint64_t>> response_extras;
  net::GatewayCounters gateway;
  /// When the virus crossed the detectability threshold (infinity if
  /// never, e.g. a virus contained before reaching it).
  SimTime detected_at = SimTime::infinity();
  /// Run telemetry (des/net/core/rng/response counters, see
  /// docs/observability.md). Deterministic in (scenario, seed);
  /// collection is observation-only and always on.
  metrics::Snapshot metrics;
  /// Wall-clock time this replication took (stamped by the runner;
  /// 0 when the Simulation was driven directly).
  double wall_seconds = 0.0;
};

/// Tag offset for per-shard seed derivation: shard s's streams hang off
/// derive_seed(replication_seed, kShardSeedTag + s, StreamIndex). The
/// offset keeps shard seeds far from the replication-level StreamIndex
/// values derived directly under the same replication seed.
inline constexpr std::uint64_t kShardSeedTag = 0x5aa4'd000'0000'0000ULL;

class EngineSlice final : private net::ShardRouter, private phone::InfectionListener {
 public:
  /// The slice's seat in a partitioned run; absent for the serial engine.
  struct Shard {
    std::uint32_t index = 0;
    const graph::Partition* partition = nullptr;
    net::ShardMailboxGrid* mailbox = nullptr;
    /// Extra transit latency of every cross-shard delivery (the
    /// synchronization window).
    SimTime remote_latency = SimTime::zero();
  };

  /// `config`, `graph` and `consent` must outlive the slice. When
  /// `trace` is non-null the slice records its causal events: straight
  /// into `trace` without a shard seat, otherwise into a private buffer
  /// holding this shard's share of `trace`'s capacity (see trace()).
  EngineSlice(const ScenarioConfig& config, const graph::ContactGraph& graph,
              const phone::ConsentModel& consent, std::uint64_t replication_seed,
              std::optional<Shard> shard, des::EventTimer* event_timer, trace::TraceBuffer* trace);
  ~EngineSlice() override;
  EngineSlice(const EngineSlice&) = delete;
  EngineSlice& operator=(const EngineSlice&) = delete;

  /// The environment the PhoneTable must use for this slice's phones.
  [[nodiscard]] const phone::PhoneEnvironment* phone_environment() const { return &phone_env_; }

  /// Wires the response layer, and the Bluetooth side channel when the
  /// scenario has one, against `phones` (which must outlive the slice).
  /// Call once, after every patch target has been added.
  void attach(phone::PhoneTable& phones);

  /// A susceptible phone this slice owns; patch-style mechanisms pick
  /// their targets from these.
  void add_patch_target(graph::PhoneId id) { patch_targets_.push_back(id); }
  /// Infects `id` (a phone this slice owns) at t = 0.
  void seed_infection(graph::PhoneId id);
  /// Schedules a delivery another shard routed here.
  void deliver_remote(const net::CrossShardDelivery& delivery);
  /// Schedules the detectability crossing the driver decided at `at`.
  void schedule_detection(SimTime at);

  [[nodiscard]] des::Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const des::Scheduler& scheduler() const { return scheduler_; }
  [[nodiscard]] const net::Gateway& gateway() const { return *gateway_; }
  [[nodiscard]] const SimulationContext& context() const { return *context_; }
  /// Where this slice records trace events; null when not tracing.
  [[nodiscard]] const trace::TraceBuffer* trace() const { return trace_; }
  [[nodiscard]] const std::vector<graph::PhoneId>& patch_targets() const {
    return patch_targets_;
  }
  [[nodiscard]] std::uint64_t infected_count() const { return infection_times_.size(); }
  [[nodiscard]] std::uint64_t patched_infected() const { return patched_infected_; }
  [[nodiscard]] std::uint64_t immunized_healthy() const { return immunized_healthy_; }
  [[nodiscard]] std::uint64_t bluetooth_push_attempts() const { return bluetooth_push_attempts_; }
  /// Instant of each infection on this slice, nondecreasing.
  [[nodiscard]] const std::vector<SimTime>& infection_times() const { return infection_times_; }

  /// This slice's telemetry (des/net/core/rng/dispatch/response). Read
  /// only: collecting never perturbs event order or RNG sequences.
  [[nodiscard]] metrics::Snapshot collect_metrics() const;

 private:
  // net::ShardRouter (registered on the gateway only with a shard seat)
  [[nodiscard]] SimTime remote_extra_latency() const override { return shard_->remote_latency; }
  bool route_remote(net::PhoneId recipient, const net::MmsMessage& message,
                    SimTime deliver_at) override;

  // phone::InfectionListener: the PhoneTable's exactly-once infection
  // notification, carrying the provenance the trace layer records.
  void on_phone_infected(phone::PhoneId id, const phone::InfectionSource& source) override;
  void on_patch_applied(graph::PhoneId id);
  void build_proximity_channel();
  void schedule_bluetooth_scan(graph::PhoneId id);
  /// `message` as the trace names it: offset into the namespace of the
  /// shard that sequenced it (its sender's); unchanged without a seat.
  [[nodiscard]] std::uint64_t trace_message_id(graph::PhoneId sender,
                                               std::uint64_t message) const;
  [[nodiscard]] std::uint64_t seed_for(std::uint64_t replication_seed,
                                       std::uint64_t stream_index) const;

  const ScenarioConfig& config_;
  const graph::ContactGraph& graph_;
  std::optional<Shard> shard_;
  graph::PhoneId first_phone_ = 0;  ///< start of the owned id range

  rng::Stream user_stream_;
  rng::Stream virus_stream_;
  rng::Stream net_stream_;
  rng::Stream response_stream_;
  rng::Stream mobility_stream_;
  rng::Stream proximity_stream_;

  des::Scheduler scheduler_;
  std::unique_ptr<net::Gateway> gateway_;
  phone::PhoneEnvironment phone_env_;
  phone::PhoneTable* phones_ = nullptr;
  std::vector<graph::PhoneId> patch_targets_;

  virus::SendingEnvironment sending_env_;
  // The response layer, behind the mechanism-agnostic dispatch context.
  std::unique_ptr<SimulationContext> context_;

  // Observability taps, built only when the run asked for them.
  std::unique_ptr<trace::TraceBuffer> owned_trace_;  ///< a shard's share
  trace::TraceBuffer* trace_ = nullptr;              ///< non-owning, may be null
  /// Turns gateway observer callbacks into trace events.
  std::unique_ptr<trace::GatewayRecorder> recorder_;

  // Optional Bluetooth (proximity) channel.
  std::unique_ptr<mobility::MobilityGrid> proximity_grid_;
  std::unique_ptr<mobility::MovementProcess> movement_;

  // One row per infected phone (built at attach, every trigger but
  // kNone); declared after the scheduler so the table, which cancels
  // its pending events, dies first.
  std::optional<virus::SenderTable> senders_;

  std::vector<SimTime> infection_times_;
  std::uint64_t patched_infected_ = 0;
  std::uint64_t immunized_healthy_ = 0;
  std::uint64_t bluetooth_push_attempts_ = 0;
};

/// The slices a driver runs, and the partition that says which one owns
/// each phone (null for a single slice owning every phone).
struct SliceSet {
  std::span<const std::unique_ptr<EngineSlice>> slices;
  const graph::Partition* partition = nullptr;

  [[nodiscard]] EngineSlice& owner(graph::PhoneId id) const {
    return *slices[partition != nullptr ? partition->shard_of(id) : 0];
  }
};

/// Draws a replication's initial conditions on the topology stream,
/// continuing where the graph build left it, identically for every
/// driver (so a sharded run starts from the serial run's susceptible
/// set and patient zeros): builds the phone table over `set`'s slices,
/// marks the susceptible phones and hands each to its owner slice as a
/// patch target, attaches every slice, then schedules patient zero.
std::unique_ptr<phone::PhoneTable> populate(const ScenarioConfig& config,
                                            rng::Stream& topology_stream, const SliceSet& set);

/// One ReplicationResult from K slices: the merge of their infection
/// instants, their summed counters, gateway and response metrics, and
/// their merged telemetry plus the topology stream's draws.
ReplicationResult assemble_result(const SliceSet& set, const rng::Stream& topology_stream,
                                  SimTime detected_at);

}  // namespace mvsim::core
