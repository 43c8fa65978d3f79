#include "metrics/report.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "util/csv.h"

namespace mvsim::metrics {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

namespace {

// Keep sorted by name; tests/metrics_test.cpp verifies order, that a
// full-suite run emits exactly this catalogue, and that every name is
// documented in docs/observability.md.
constexpr MetricDescriptor kSchema[] = {
    {"core.bluetooth_push_attempts", MetricKind::kCounter, "attempts", "core",
     "Bluetooth infection offers made over the proximity channel (0 when the scenario has no "
     "proximity block)."},
    {"core.dispatch.events", MetricKind::kCounter, "events", "core",
     "Simulation events fanned out to the response layer by SimulationContext (gateway "
     "submissions/blocks/deliveries, infections, patches, detectability crossings, ticks)."},
    {"core.dispatch.hook_calls", MetricKind::kCounter, "calls", "core",
     "Individual mechanism lifecycle-hook invocations (per dispatched event, the mechanisms "
     "subscribed to that hook)."},
    {"core.dispatch.hooks_skipped", MetricKind::kCounter, "calls", "core",
     "Virtual hook calls avoided because the mechanism's subscribed_hooks() mask excludes the "
     "hook (devirtualized dispatch)."},
    {"core.infections", MetricKind::kCounter, "phones", "core",
     "Phones that became infected during the replication(s)."},
    {"core.phones_immunized_healthy", MetricKind::kCounter, "phones", "core",
     "Phones patched while still healthy (immunized)."},
    {"core.phones_patched_infected", MetricKind::kCounter, "phones", "core",
     "Infected phones whose dissemination was silenced by a patch."},
    {"des.events_cancelled", MetricKind::kCounter, "events", "des",
     "Scheduled events cancelled before firing."},
    {"des.events_executed", MetricKind::kCounter, "events", "des",
     "Events the discrete-event scheduler executed."},
    {"des.events_scheduled", MetricKind::kCounter, "events", "des",
     "Events pushed onto the scheduler queue."},
    {"des.queue_depth_peak", MetricKind::kGauge, "events", "des",
     "High-water mark of pending (live) events in the scheduler queue."},
    {"des.scheduler.cancelled_reclaimed", MetricKind::kCounter, "events", "des",
     "Cancelled events whose queue entry and pooled record were reclaimed (eagerly, at "
     "cancel time)."},
    {"net.infected_messages_submitted", MetricKind::kCounter, "messages", "net",
     "Infected MMS messages submitted to the gateway."},
    {"net.invalid_recipients_dropped", MetricKind::kCounter, "recipients", "net",
     "Dialed recipients dropped at routing time because the number has no subscriber."},
    {"net.messages_blocked", MetricKind::kCounter, "messages", "net",
     "Messages blocked in transit by a delivery filter."},
    {"net.messages_submitted", MetricKind::kCounter, "messages", "net",
     "MMS messages phones handed to the gateway (before filtering)."},
    {"net.recipients_delivered", MetricKind::kCounter, "deliveries", "net",
     "Per-recipient deliveries that reached a valid phone."},
    {"prof.event.bluetooth_scan", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of proximity-channel scan/push events. Emitted only under "
     "--profile.", true},
    {"prof.event.generic", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of untagged scheduler events. Emitted only under --profile.", true},
    {"prof.event.message_delivery", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of gateway delivery fan-outs. Emitted only under --profile.", true},
    {"prof.event.mobility_move", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of mobility-grid movement events. Emitted only under --profile.",
     true},
    {"prof.event.phone_read", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of phones reading received messages. Emitted only under --profile.",
     true},
    {"prof.event.response_activation", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of response mechanisms going live or starting deployment. Emitted "
     "only under --profile.", true},
    {"prof.event.response_patch", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of individual patch deliveries. Emitted only under --profile.",
     true},
    {"prof.event.response_tick", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of periodic response-mechanism ticks. Emitted only under "
     "--profile.", true},
    {"prof.event.sample", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of time-series sampling events. Emitted only under --profile.",
     true},
    {"prof.event.seed_infection", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of patient-zero seeding events. Emitted only under --profile.",
     true},
    {"prof.event.virus_legit_traffic", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of legitimate-traffic events (piggyback viruses). Emitted only "
     "under --profile.", true},
    {"prof.event.virus_reboot", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of per-reboot budget refresh events. Emitted only under "
     "--profile.", true},
    {"prof.event.virus_send", MetricKind::kHistogram, "us", "prof",
     "Per-event wall-clock of virus dissemination attempts. Emitted only under --profile.",
     true},
    {"prof.phase.build_ms", MetricKind::kHistogram, "ms", "prof",
     "Per-replication wall-clock of simulation construction (topology, phones, responses). "
     "Emitted only under --profile.", true},
    {"prof.phase.collect_ms", MetricKind::kHistogram, "ms", "prof",
     "Per-replication wall-clock of result collection and metric snapshotting. Emitted only "
     "under --profile.", true},
    {"prof.phase.run_ms", MetricKind::kHistogram, "ms", "prof",
     "Per-replication wall-clock of the event loop (run to horizon). Emitted only under "
     "--profile.", true},
    {"prof.shard.window_us", MetricKind::kHistogram, "us", "prof",
     "Per-shard wall-clock of each lockstep window under --shards (window imbalance = "
     "barrier stall). Emitted only under --profile; zero-count in serial runs.", true},
    {"response.blacklist.phones_blacklisted", MetricKind::kCounter, "phones", "response",
     "Phones whose MMS service the blacklist cut off. Emitted when blacklist is enabled."},
    {"response.gateway_detection.activations", MetricKind::kCounter, "activations", "response",
     "1 once the detection algorithm finished its analysis period, else 0. Emitted when "
     "gateway_detection is enabled."},
    {"response.gateway_detection.messages_blocked", MetricKind::kCounter, "messages",
     "response",
     "Infected messages the detection algorithm recognized and stopped. Emitted when "
     "gateway_detection is enabled."},
    {"response.gateway_detection.messages_missed", MetricKind::kCounter, "messages", "response",
     "Infected messages the active detection algorithm failed to recognize. Emitted when "
     "gateway_detection is enabled."},
    {"response.gateway_scan.activations", MetricKind::kCounter, "activations", "response",
     "1 once the signature scan went live (activation delay elapsed), else 0. Emitted when "
     "gateway_scan is enabled."},
    {"response.gateway_scan.messages_blocked", MetricKind::kCounter, "messages", "response",
     "Infected messages stopped by the signature scan. Emitted when gateway_scan is enabled."},
    {"response.immunization.deployments", MetricKind::kCounter, "deployments", "response",
     "1 once the patch rollout started, else 0. Emitted when immunization is enabled."},
    {"response.immunization.patches_applied", MetricKind::kCounter, "patches", "response",
     "Patches delivered to target phones. Emitted when immunization is enabled."},
    {"response.monitoring.phones_flagged", MetricKind::kCounter, "phones", "response",
     "Phones flagged as anomalously active (forced wait imposed). Emitted when monitoring is "
     "enabled."},
    {"response.rate_limiter.phones_limited", MetricKind::kCounter, "phones", "response",
     "Distinct phones that ever exhausted a rate-limit window's quota. Emitted when "
     "rate_limiter is enabled."},
    {"response.rate_limiter.windows_capped", MetricKind::kCounter, "windows", "response",
     "Phone-windows in which the rate-limit quota was hit. Emitted when rate_limiter is "
     "enabled."},
    {"rng.draws", MetricKind::kCounter, "draws", "rng",
     "Raw xoshiro256** outputs drawn across all of the replication's RNG streams."},
    {"shard.barrier_wait_ms", MetricKind::kHistogram, "ms", "shard",
     "Wall-clock the coordinator spent blocked on the slowest shard at each window barrier. "
     "Emitted only under --shards >= 2; empty when shard workers run inline.", true},
    {"shard.count", MetricKind::kGauge, "shards", "shard",
     "Shards per replication (--shards). Emitted only under --shards >= 2."},
    {"shard.events_executed", MetricKind::kHistogram, "events", "shard",
     "Per-shard scheduler events executed over a replication — the load-balance picture the "
     "degree-balanced partition actually achieved. Emitted only under --shards >= 2."},
    {"shard.mailbox.received", MetricKind::kCounter, "deliveries", "shard",
     "Cross-shard deliveries drained from mailboxes and scheduled into destination shards at "
     "window barriers (== sent at end of run). Emitted only under --shards >= 2."},
    {"shard.mailbox.sent", MetricKind::kCounter, "deliveries", "shard",
     "Cross-shard deliveries routed into mailboxes (recipient owned by another shard). "
     "Emitted only under --shards >= 2."},
    {"shard.windows", MetricKind::kCounter, "windows", "shard",
     "Synchronization windows the sharded engine stepped through (horizon / window width, "
     "minus any quiescent early-exit). Emitted only under --shards >= 2."},
    {"timing.events_per_sec", MetricKind::kHistogram, "events/s", "timing",
     "Per-replication event throughput: scheduler events executed divided by the "
     "replication's wall-clock time.", true},
    {"timing.experiment_wall_ms", MetricKind::kGauge, "ms", "timing",
     "Wall-clock time of the whole experiment (all replications, all threads, including "
     "aggregation).", true},
    {"timing.replication_wall_ms", MetricKind::kHistogram, "ms", "timing",
     "Per-replication wall-clock time (simulation build + event loop).", true},
    {"timing.replications", MetricKind::kCounter, "replications", "timing",
     "Replications the runner executed."},
};

json::Value number(double v) { return json::Value(v); }

json::Value bounds_to_json(const std::vector<double>& bounds) {
  json::Array array;
  array.reserve(bounds.size());
  for (double b : bounds) array.emplace_back(b);
  return json::Value(std::move(array));
}

json::Value counts_to_json(const std::vector<std::uint64_t>& counts) {
  json::Array array;
  array.reserve(counts.size());
  for (std::uint64_t c : counts) array.emplace_back(c);
  return json::Value(std::move(array));
}

std::uint64_t as_u64(const json::Value& value) {
  return static_cast<std::uint64_t>(value.as_number());
}

/// Compact bound label for CSV bucket rows: "le_100", "le_2.5".
std::string bound_field(double bound) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "le_%g", bound);
  return buf;
}

}  // namespace

std::span<const MetricDescriptor> schema() { return kSchema; }

const MetricDescriptor* schema_find(std::string_view name) {
  auto it = std::lower_bound(std::begin(kSchema), std::end(kSchema), name,
                             [](const MetricDescriptor& d, std::string_view n) {
                               return std::string_view(d.name) < n;
                             });
  if (it != std::end(kSchema) && name == it->name) return &*it;
  return nullptr;
}

json::Value schema_to_json() {
  json::Array metrics;
  for (const MetricDescriptor& d : kSchema) {
    json::Object o;
    o.set("name", json::Value(d.name));
    o.set("kind", json::Value(to_string(d.kind)));
    o.set("unit", json::Value(d.unit));
    o.set("subsystem", json::Value(d.subsystem));
    o.set("description", json::Value(d.description));
    o.set("machine_dependent", json::Value(d.machine_dependent));
    metrics.emplace_back(std::move(o));
  }
  json::Object root;
  root.set("schema_version", json::Value(1));
  root.set("metrics", json::Value(std::move(metrics)));
  return json::Value(std::move(root));
}

json::Value snapshot_to_json(const Snapshot& snapshot) {
  json::Object counters;
  for (const CounterSample& c : snapshot.counters) counters.set(c.name, json::Value(c.value));

  json::Object gauges;
  for (const GaugeSample& g : snapshot.gauges) {
    json::Object o;
    o.set("value", json::Value(g.value));
    o.set("peak", json::Value(g.peak));
    gauges.set(g.name, json::Value(std::move(o)));
  }

  json::Object histograms;
  for (const HistogramSample& h : snapshot.histograms) {
    json::Object o;
    o.set("upper_bounds", bounds_to_json(h.upper_bounds));
    o.set("bucket_counts", counts_to_json(h.bucket_counts));
    o.set("count", json::Value(h.count));
    o.set("sum", number(h.sum));
    o.set("min", number(h.min));
    o.set("max", number(h.max));
    histograms.set(h.name, json::Value(std::move(o)));
  }

  json::Object root;
  root.set("counters", json::Value(std::move(counters)));
  root.set("gauges", json::Value(std::move(gauges)));
  root.set("histograms", json::Value(std::move(histograms)));
  return json::Value(std::move(root));
}

Snapshot snapshot_from_json(const json::Value& value) {
  const json::Object& root = value.as_object();
  Snapshot snapshot;
  for (const auto& [name, v] : root.at("counters").as_object().entries()) {
    snapshot.counters.push_back({name, as_u64(v)});
  }
  for (const auto& [name, v] : root.at("gauges").as_object().entries()) {
    const json::Object& o = v.as_object();
    snapshot.gauges.push_back({name, as_u64(o.at("value")), as_u64(o.at("peak"))});
  }
  for (const auto& [name, v] : root.at("histograms").as_object().entries()) {
    const json::Object& o = v.as_object();
    HistogramSample h;
    h.name = name;
    for (const json::Value& b : o.at("upper_bounds").as_array()) {
      h.upper_bounds.push_back(b.as_number());
    }
    for (const json::Value& c : o.at("bucket_counts").as_array()) {
      h.bucket_counts.push_back(as_u64(c));
    }
    h.count = as_u64(o.at("count"));
    h.sum = o.at("sum").as_number();
    h.min = o.at("min").as_number();
    h.max = o.at("max").as_number();
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

json::Value report_to_json(const ReportInfo& info, const Snapshot& snapshot) {
  json::Object root;
  root.set("schema_version", json::Value(1));
  root.set("scenario", json::Value(info.scenario));
  root.set("replications", json::Value(info.replications));
  root.set("threads", json::Value(info.threads));
  root.set("master_seed", json::Value(info.master_seed));

  const json::Value body = snapshot_to_json(snapshot);
  for (const auto& [key, value] : body.as_object().entries()) root.set(key, value);

  // Derived throughput figures (documented in docs/observability.md):
  // events_per_second_aggregate sums per-replication wall time (per-core
  // throughput); events_per_second_wall uses the experiment's elapsed
  // time (what the operator actually waited).
  const std::uint64_t events = snapshot.counter_value("des.events_executed");
  json::Object derived;
  derived.set("events_processed", json::Value(events));
  const HistogramSample* wall = snapshot.find_histogram("timing.replication_wall_ms");
  derived.set("events_per_second_aggregate",
              (wall != nullptr && wall->sum > 0.0)
                  ? json::Value(static_cast<double>(events) / (wall->sum / 1000.0))
                  : json::Value(nullptr));
  const GaugeSample* experiment_wall = snapshot.find_gauge("timing.experiment_wall_ms");
  derived.set("events_per_second_wall",
              (experiment_wall != nullptr && experiment_wall->value > 0)
                  ? json::Value(static_cast<double>(events) /
                                (static_cast<double>(experiment_wall->value) / 1000.0))
                  : json::Value(nullptr));
  root.set("derived", json::Value(std::move(derived)));
  return json::Value(std::move(root));
}

void write_report_csv(const ReportInfo& info, const Snapshot& snapshot, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"metric", "kind", "field", "value"});
  csv.row("scenario", "info", "name", info.scenario);
  csv.row("replications", "info", "value", info.replications);
  csv.row("threads", "info", "value", info.threads);
  csv.row("master_seed", "info", "value", info.master_seed);
  for (const CounterSample& c : snapshot.counters) {
    csv.row(c.name, "counter", "value", c.value);
  }
  for (const GaugeSample& g : snapshot.gauges) {
    csv.row(g.name, "gauge", "value", g.value);
    csv.row(g.name, "gauge", "peak", g.peak);
  }
  for (const HistogramSample& h : snapshot.histograms) {
    csv.row(h.name, "histogram", "count", h.count);
    csv.row(h.name, "histogram", "sum", h.sum);
    csv.row(h.name, "histogram", "min", h.min);
    csv.row(h.name, "histogram", "max", h.max);
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      std::string field =
          i < h.upper_bounds.size() ? bound_field(h.upper_bounds[i]) : std::string("le_inf");
      csv.row(h.name, "histogram", field, h.bucket_counts[i]);
    }
  }
}

}  // namespace mvsim::metrics
