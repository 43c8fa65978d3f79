// Pluggable response-mechanism interface.
//
// Every countermeasure the simulator models — the paper's six plus any
// extension — implements ResponseMechanism. A mechanism is constructed
// from its config alone; everything it may touch at runtime arrives
// through on_build(BuildContext) and the lifecycle hooks, which the
// core's SimulationContext dispatches in registration order. The core
// never names a concrete mechanism type: mechanisms expose their
// gateway-filter and sending-policy roles through the as_*() adapters
// and report counters through contribute_metrics(), so adding a
// mechanism is a response-layer-only change (see response/registry.h
// and DESIGN.md, "How to add a response mechanism").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "des/scheduler.h"
#include "net/gateway.h"
#include "net/message.h"
#include "rng/stream.h"
#include "util/sim_time.h"

namespace mvsim::metrics {
class Registry;
}

namespace mvsim::trace {
class TraceBuffer;
}

namespace mvsim::response {

class DetectabilityMonitor;

/// Everything a mechanism may wire itself to when the simulation is
/// assembled. Pointers are non-owning and outlive the mechanism.
struct BuildContext {
  des::Scheduler* scheduler = nullptr;
  /// The response concern's dedicated RNG stream (draws here never
  /// perturb the virus's or the network's sequences).
  rng::Stream* response_stream = nullptr;
  DetectabilityMonitor* detector = nullptr;
  /// Phones running the vulnerable platform (the immunization
  /// rollout's target list).
  const std::vector<net::PhoneId>* patch_targets = nullptr;
  /// Applies a patch to one phone: healthy -> immunized, infected ->
  /// dissemination silenced.
  std::function<void(net::PhoneId)> apply_patch;
  std::uint32_t population = 0;
  /// Event capture for this replication, or nullptr when tracing is
  /// off. Observation-only: mechanisms may record state transitions
  /// (see trace::record_action) but must never branch on it.
  trace::TraceBuffer* trace = nullptr;
};

/// Counters mechanisms report into the replication result. Standard
/// fields keep the core's result struct mechanism-agnostic; anything
/// else goes into `extras` under a mechanism-chosen name.
struct ResponseMetrics {
  std::uint64_t phones_blacklisted = 0;
  std::uint64_t phones_flagged = 0;
  std::vector<std::pair<std::string, std::uint64_t>> extras;
};

/// Bit flags naming the notification hooks a mechanism can subscribe
/// to (see ResponseMechanism::subscribed_hooks). One bit per notify
/// hook the dispatcher fans out; on_build/on_tick/the role adapters
/// are wired explicitly and need no bit.
namespace hook {
inline constexpr std::uint32_t kMessageSubmitted = 1u << 0;
inline constexpr std::uint32_t kMessageBlocked = 1u << 1;
inline constexpr std::uint32_t kMessageDelivered = 1u << 2;
inline constexpr std::uint32_t kInfection = 1u << 3;
inline constexpr std::uint32_t kPatch = 1u << 4;
inline constexpr std::uint32_t kDetectabilityCrossed = 1u << 5;
inline constexpr std::uint32_t kNone = 0u;
inline constexpr std::uint32_t kAll = ~0u;
}  // namespace hook

class ResponseMechanism {
 public:
  virtual ~ResponseMechanism() = default;

  /// Stable identifier; doubles as the registry key and the JSON key.
  [[nodiscard]] virtual const char* name() const = 0;

  /// Bitmask (hook::*) of the notification hooks this mechanism
  /// actually overrides. The dispatcher precomputes per-hook subscriber
  /// lists from this at attach() time, so a hook nobody subscribes to
  /// costs nothing per event. Defaults to hook::kAll — every hook is
  /// dispatched, exactly the pre-subscription behavior — so an
  /// out-of-tree mechanism that overrides a hook without narrowing the
  /// mask is still called; narrowing is a pure optimization.
  /// Subscription is read once at attach(): the mask must be constant
  /// for the mechanism's lifetime.
  [[nodiscard]] virtual std::uint32_t subscribed_hooks() const { return hook::kAll; }

  // ---- Lifecycle hooks (all optional) ----

  /// Wire into the simulation. Called once, before any event runs.
  virtual void on_build(BuildContext& context) { (void)context; }
  /// A phone handed a message to the network (before filtering).
  virtual void on_message_submitted(const net::MmsMessage& message, SimTime now) {
    (void)message;
    (void)now;
  }
  /// A delivery filter blocked the message in transit; `blocked_by` is
  /// that filter's registry name.
  virtual void on_message_blocked(const net::MmsMessage& message, const char* blocked_by,
                                  SimTime now) {
    (void)message;
    (void)blocked_by;
    (void)now;
  }
  /// The message reached one valid recipient.
  virtual void on_message_delivered(net::PhoneId recipient, const net::MmsMessage& message,
                                    SimTime now) {
    (void)recipient;
    (void)message;
    (void)now;
  }
  /// A phone became infected.
  virtual void on_infection(net::PhoneId phone, SimTime now) {
    (void)phone;
    (void)now;
  }
  /// A patch landed on a phone.
  virtual void on_patch(net::PhoneId phone, SimTime now) {
    (void)phone;
    (void)now;
  }
  /// The virus crossed the provider's detectability threshold.
  /// Dispatched in registration order across mechanisms.
  virtual void on_detectability_crossed(SimTime now) { (void)now; }
  /// Recurring housekeeping; scheduled only when tick_period() > 0.
  virtual void on_tick(SimTime now) { (void)now; }
  [[nodiscard]] virtual SimTime tick_period() const { return SimTime::zero(); }

  // ---- Role adapters ----

  /// Non-null when the mechanism also inspects messages in transit;
  /// registered on the gateway in mechanism order.
  [[nodiscard]] virtual net::DeliveryFilter* as_delivery_filter() { return nullptr; }
  /// Non-null when the mechanism constrains sending phones; consulted
  /// by the SenderTable before every send, in mechanism order.
  [[nodiscard]] virtual net::OutgoingMmsPolicy* as_outgoing_policy() { return nullptr; }

  /// Add this mechanism's counters to the replication result.
  virtual void contribute_metrics(ResponseMetrics& metrics) const { (void)metrics; }

  /// Publish this mechanism's runtime counters into the telemetry
  /// registry under `response.<name()>.*`. Called once per replication
  /// when the result is collected; register every counter the
  /// mechanism owns even if it is still zero, so the emitted set of
  /// names depends only on which mechanisms are enabled. Names must be
  /// listed in metrics::schema() and docs/observability.md.
  virtual void on_metrics(metrics::Registry& registry) const { (void)registry; }
};

}  // namespace mvsim::response
