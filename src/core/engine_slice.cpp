#include "core/engine_slice.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/topology_build.h"
#include "response/registry.h"
#include "rng/seed.h"

namespace mvsim::core {

EngineSlice::EngineSlice(const ScenarioConfig& config, const graph::ContactGraph& graph,
                         const phone::ConsentModel& consent, std::uint64_t replication_seed,
                         std::optional<Shard> shard, des::EventTimer* event_timer,
                         trace::TraceBuffer* trace)
    : config_(config),
      graph_(graph),
      shard_(shard),
      first_phone_(shard ? shard->partition->range(shard->index).begin : 0),
      user_stream_(seed_for(replication_seed, kUserStream)),
      virus_stream_(seed_for(replication_seed, kVirusStream)),
      net_stream_(seed_for(replication_seed, kNetStream)),
      response_stream_(seed_for(replication_seed, kResponseStream)),
      mobility_stream_(seed_for(replication_seed, kMobilityStream)),
      proximity_stream_(seed_for(replication_seed, kProximityStream)),
      trace_(trace) {
  scheduler_.set_event_timer(event_timer);

  gateway_ = std::make_unique<net::Gateway>(scheduler_, net_stream_, config_.delivery_delay_mean);
  if (shard_) gateway_->set_shard_router(this);
  gateway_->set_delivery_callback([this](graph::PhoneId recipient, const net::MmsMessage& msg) {
    phones_->receive_infected_message(
        recipient, {msg.sender, msg.sequence, phone::InfectionChannel::kMms});
  });
  if (trace_ != nullptr) {
    std::uint64_t message_id_base = 0;
    if (shard_) {
      // A shard records into a private share of the requested capacity,
      // with message ids offset into its own namespace; the driver
      // merges the shares back into the caller's buffer.
      constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();
      const std::size_t cap =
          trace_->capacity() == kUnbounded
              ? kUnbounded
              : std::max<std::size_t>(1, trace_->capacity() / shard_->partition->shard_count());
      owned_trace_ = std::make_unique<trace::TraceBuffer>(cap);
      owned_trace_->set_shard(shard_->index);
      trace_ = owned_trace_.get();
      message_id_base = shard_->index * trace::kShardMessageStride;
    }
    // First observer on the gateway, so each submission's trace event
    // precedes any mechanism reaction to it. Observers are passive —
    // registering one more never perturbs RNG draws or event order.
    recorder_ = std::make_unique<trace::GatewayRecorder>(*trace_, message_id_base);
    gateway_->add_observer(*recorder_);
  }

  phone_env_.scheduler = &scheduler_;
  phone_env_.user_stream = &user_stream_;
  phone_env_.consent = &consent;
  phone_env_.read_delay_mean = config_.read_delay_mean;
  phone_env_.decision_cutoff = config_.decision_cutoff;
  phone_env_.listener = this;
}

EngineSlice::~EngineSlice() = default;

std::uint64_t EngineSlice::seed_for(std::uint64_t replication_seed,
                                    std::uint64_t stream_index) const {
  return shard_ ? rng::derive_seed(replication_seed, kShardSeedTag + shard_->index, stream_index)
                : rng::derive_seed(replication_seed, stream_index);
}

void EngineSlice::attach(phone::PhoneTable& phones) {
  phones_ = &phones;
  // The registry decides which mechanisms exist; the context owns them
  // (plus the detectability monitor, which is harmless to build
  // unconditionally and useful for metrics) and dispatches every
  // simulation event to them. (user_education is folded into the
  // ConsentModel at construction — see response::consent_for_suite.)
  // Every mechanism's state is keyed by sender or gateway, and a phone
  // only ever submits through its owner slice's gateway, so per-shard
  // instances partition the global mechanism state without changing
  // its semantics. Detectability is the one global quantity: a shard's
  // monitor only counts, and the driver decides the crossing.
  context_ = std::make_unique<SimulationContext>(config_.responses,
                                                 response::ResponseRegistry::built_ins(),
                                                 /*defer_detection=*/shard_.has_value());

  sending_env_.scheduler = &scheduler_;
  sending_env_.virus_stream = &virus_stream_;
  sending_env_.gateway = gateway_.get();
  sending_env_.trace = trace_;

  response::BuildContext build;
  build.scheduler = &scheduler_;
  build.response_stream = &response_stream_;
  build.patch_targets = &patch_targets_;
  build.apply_patch = [this](net::PhoneId id) { on_patch_applied(id); };
  build.population = config_.population;
  build.trace = trace_;
  context_->attach(*gateway_, sending_env_, std::move(build));
  if (config_.virus.trigger != virus::SendTrigger::kNone) {
    senders_.emplace(sending_env_, config_.virus, first_phone_,
                     shard_ ? shard_->partition->range(shard_->index).size() : config_.population,
                     config_.population);
  }

  if (trace_ != nullptr && !shard_) {
    // A sharded crossing is a barrier decision the driver traces itself.
    context_->detector().on_detected([this](SimTime at) {
      trace::Event event;
      event.time = at;
      event.kind = trace::EventKind::kDetectabilityCrossed;
      trace_->record(std::move(event));
    });
  }
  if (config_.proximity) build_proximity_channel();
  // Threshold 0: the virus is known out-of-band before anything runs.
  if (config_.responses.detectability_threshold == 0) schedule_detection(SimTime::zero());
}

void EngineSlice::build_proximity_channel() {
  const ProximityChannelConfig& proximity = *config_.proximity;
  proximity_grid_ = std::make_unique<mobility::MobilityGrid>(
      proximity.grid_width, proximity.grid_height, config_.population);
  proximity_grid_->place_all_uniform(mobility_stream_);
  movement_ = std::make_unique<mobility::MovementProcess>(scheduler_, *proximity_grid_,
                                                          mobility_stream_,
                                                          proximity.dwell_mean);
}

void EngineSlice::schedule_bluetooth_scan(graph::PhoneId id) {
  scheduler_.schedule_after(
      proximity_stream_.exponential(config_.proximity->scan_interval_mean),
      des::EventType::kBluetoothScan, [this, id] {
        // A patch kills the worm outright. Blacklisting and monitoring
        // do NOT apply: the provider's MMS-side levers cannot touch
        // point-to-point Bluetooth transfers.
        if (phones_->propagation_stopped(id)) return;
        graph::PhoneId victim = 0;
        if (proximity_grid_->sample_co_located(id, proximity_stream_, victim)) {
          ++bluetooth_push_attempts_;
          phones_->receive_infected_message(
              victim, {id, net::kInvalidMessageId, phone::InfectionChannel::kBluetooth});
        }
        schedule_bluetooth_scan(id);
      });
}

void EngineSlice::seed_infection(graph::PhoneId id) {
  scheduler_.schedule_at(SimTime::zero(), des::EventType::kSeedInfection,
                         [this, id] { phones_->force_infect(id); });
}

bool EngineSlice::route_remote(net::PhoneId recipient, const net::MmsMessage& message,
                               SimTime deliver_at) {
  const std::uint32_t dst = shard_->partition->shard_of(recipient);
  if (dst == shard_->index) return false;
  shard_->mailbox->push(shard_->index, dst,
                        {deliver_at, recipient, message.sender, message.sequence,
                         message.infected});
  return true;
}

void EngineSlice::deliver_remote(const net::CrossShardDelivery& d) {
  scheduler_.schedule_at(d.at, des::EventType::kMessageDelivery, [this, d] {
    phones_->receive_infected_message(d.recipient,
                                      {d.sender, d.sequence, phone::InfectionChannel::kMms});
    // Same per-recipient on_delivered dispatch as a local gateway
    // delivery, so core.dispatch.* telemetry and any delivery-subscribed
    // mechanism see the same traffic.
    net::MmsMessage msg;
    msg.sender = d.sender;
    msg.sequence = d.sequence;
    msg.infected = d.infected;
    msg.set_recipient({d.recipient, true});
    context_->on_delivered(d.recipient, msg, scheduler_.now());
    // The delivery bypassed this gateway, so the GatewayRecorder never
    // saw it; record it here under the ORIGIN shard's message id so the
    // merged trace links the hop end-to-end.
    if (trace_ != nullptr) {
      trace::Event event;
      event.time = scheduler_.now();
      event.kind = trace::EventKind::kMessageDelivered;
      event.phone = d.recipient;
      event.peer = d.sender;
      event.message = trace_message_id(d.sender, d.sequence);
      trace_->record(std::move(event));
    }
  });
}

void EngineSlice::schedule_detection(SimTime at) {
  scheduler_.schedule_at(at, des::EventType::kResponseActivation,
                         [this, at] { context_->detector().force_detect(at); });
}

std::uint64_t EngineSlice::trace_message_id(graph::PhoneId sender, std::uint64_t message) const {
  if (!shard_ || sender == graph::kInvalidPhoneId || message == net::kInvalidMessageId) {
    return message;
  }
  return message + shard_->partition->shard_of(sender) * trace::kShardMessageStride;
}

void EngineSlice::on_phone_infected(phone::PhoneId id, const phone::InfectionSource& source) {
  infection_times_.push_back(scheduler_.now());
  if (trace_ != nullptr) {
    trace::Event event;
    event.time = scheduler_.now();
    event.kind = trace::EventKind::kInfection;
    event.phone = id;
    event.peer = source.sender;
    event.message = trace_message_id(source.sender, source.message);
    event.detail = phone::to_string(source.channel);
    trace_->record(std::move(event));
  }
  context_->notify_infection(id, scheduler_.now());

  if (senders_) senders_->start(id, graph_.contacts(id));
  if (proximity_grid_) {
    scheduler_.schedule_after(config_.virus.dormancy, des::EventType::kBluetoothScan,
                              [this, id] { schedule_bluetooth_scan(id); });
  }
}

void EngineSlice::on_patch_applied(graph::PhoneId id) {
  bool was_infected = phones_->infected(id);
  bool was_patched = phones_->patched(id);
  phones_->apply_patch(id);
  if (was_patched) return;
  if (trace_ != nullptr) {
    trace::Event event;
    event.time = scheduler_.now();
    event.kind = trace::EventKind::kPatchApplied;
    event.phone = id;
    trace_->record(std::move(event));
  }
  context_->notify_patch(id, scheduler_.now());
  if (was_infected) {
    ++patched_infected_;
    // Stop immediately, not at the next attempt.
    if (senders_) senders_->stop(id);
  } else if (phones_->state(id) == phone::HealthState::kImmunized) {
    ++immunized_healthy_;
  }
}

metrics::Snapshot EngineSlice::collect_metrics() const {
  // Everything below is read-only: the registry is filled from
  // counters the components kept while running, so collecting metrics
  // can never perturb event order or RNG sequences (the golden tests
  // rely on this).
  metrics::Registry reg;
  reg.counter("des.events_scheduled").add(scheduler_.scheduled_count());
  reg.counter("des.events_executed").add(scheduler_.executed_count());
  reg.counter("des.events_cancelled").add(scheduler_.cancelled_count());
  reg.gauge("des.queue_depth_peak").set(scheduler_.peak_pending_count());
  reg.counter("des.scheduler.cancelled_reclaimed").add(scheduler_.cancelled_reclaimed_count());

  const net::GatewayCounters& gc = gateway_->counters();
  reg.counter("net.messages_submitted").add(gc.messages_submitted);
  reg.counter("net.infected_messages_submitted").add(gc.infected_messages_submitted);
  reg.counter("net.messages_blocked").add(gc.messages_blocked);
  reg.counter("net.recipients_delivered").add(gc.recipients_delivered);
  reg.counter("net.invalid_recipients_dropped").add(gc.invalid_recipients_dropped);

  reg.counter("core.infections").add(infected_count());
  reg.counter("core.phones_immunized_healthy").add(immunized_healthy_);
  reg.counter("core.phones_patched_infected").add(patched_infected_);
  reg.counter("core.bluetooth_push_attempts").add(bluetooth_push_attempts_);

  reg.counter("rng.draws").add(user_stream_.draw_count() + virus_stream_.draw_count() +
                               net_stream_.draw_count() + response_stream_.draw_count() +
                               mobility_stream_.draw_count() + proximity_stream_.draw_count());

  context_->collect_metrics(reg);
  return reg.snapshot();
}

std::unique_ptr<phone::PhoneTable> populate(const ScenarioConfig& config,
                                            rng::Stream& topology_stream, const SliceSet& set) {
  std::vector<const phone::PhoneEnvironment*> envs;
  for (const auto& slice : set.slices) envs.push_back(slice->phone_environment());
  auto phones = std::make_unique<phone::PhoneTable>(
      config.population, std::move(envs),
      set.partition != nullptr ? set.partition->bounds()
                               : std::vector<graph::PhoneId>{0, config.population});

  // "800 are randomly designated as susceptible": sample without
  // replacement from the whole population, then walk the picks in id
  // order.
  auto target = static_cast<std::uint64_t>(
      std::llround(config.susceptible_fraction * static_cast<double>(config.population)));
  auto chosen = topology_stream.sample_without_replacement(config.population, target);
  std::vector<bool> picked(config.population, false);
  for (auto id : chosen) picked[static_cast<std::size_t>(id)] = true;
  std::vector<graph::PhoneId> susceptible;
  susceptible.reserve(chosen.size());
  for (graph::PhoneId id = 0; id < config.population; ++id) {
    if (!picked[id]) continue;
    phones->set_susceptible(id, true);
    susceptible.push_back(id);
    set.owner(id).add_patch_target(id);
  }

  for (const auto& slice : set.slices) slice->attach(*phones);

  // Patient zero: uniformly random susceptible phones, infected at t=0.
  auto picks = topology_stream.sample_without_replacement(susceptible.size(),
                                                          config.initial_infected);
  for (auto pick : picks) {
    graph::PhoneId id = susceptible[static_cast<std::size_t>(pick)];
    set.owner(id).seed_infection(id);
  }
  return phones;
}

ReplicationResult assemble_result(const SliceSet& set, const rng::Stream& topology_stream,
                                  SimTime detected_at) {
  ReplicationResult r;

  // K-way merge of the per-slice infection instants (each already in
  // time order) into one cumulative step series.
  std::vector<SimTime> times;
  for (const auto& slice : set.slices) {
    const std::vector<SimTime>& mine = slice->infection_times();
    const auto merged = static_cast<std::ptrdiff_t>(times.size());
    times.insert(times.end(), mine.begin(), mine.end());
    std::inplace_merge(times.begin(), times.begin() + merged, times.end());
  }
  for (std::size_t i = 0; i < times.size(); ++i) {
    r.infections.push(times[i], static_cast<double>(i + 1));
  }

  for (const auto& slice : set.slices) {
    r.total_infected += slice->infected_count();
    r.immunized_healthy += slice->immunized_healthy();
    r.patched_infected += slice->patched_infected();
    r.bluetooth_push_attempts += slice->bluetooth_push_attempts();

    response::ResponseMetrics m = slice->context().metrics();
    r.phones_blacklisted += m.phones_blacklisted;
    r.phones_flagged += m.phones_flagged;
    for (auto& [name, value] : m.extras) {
      auto it = std::find_if(r.response_extras.begin(), r.response_extras.end(),
                             [&name](const auto& e) { return e.first == name; });
      if (it == r.response_extras.end()) {
        r.response_extras.emplace_back(name, value);
      } else {
        it->second += value;
      }
    }

    const net::GatewayCounters& gc = slice->gateway().counters();
    r.gateway.messages_submitted += gc.messages_submitted;
    r.gateway.infected_messages_submitted += gc.infected_messages_submitted;
    r.gateway.messages_blocked += gc.messages_blocked;
    r.gateway.recipients_delivered += gc.recipients_delivered;
    r.gateway.invalid_recipients_dropped += gc.invalid_recipients_dropped;
  }
  r.detected_at = detected_at;

  // Slice telemetry merges like per-replication telemetry (commutative
  // instruments); the build-time topology draws belong to no slice.
  metrics::Registry engine;
  engine.counter("rng.draws").add(topology_stream.draw_count());
  r.metrics = engine.snapshot();
  for (const auto& slice : set.slices) r.metrics.merge(slice->collect_metrics());
  return r;
}

}  // namespace mvsim::core
