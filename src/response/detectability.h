// When does "the virus become detectable"?
//
// Three of the paper's mechanisms (gateway scan, gateway detection
// algorithm, immunization) activate a fixed delay *after the virus
// becomes detectable*, but the paper never defines the trigger. A
// provider can only watch its own gateways, so mvsim operationalizes
// detectability as: the cumulative number of infected messages that
// have transited the gateways reaches a threshold (default 5). The
// choice is a config knob and is ablated in bench/ablation_behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/gateway.h"
#include "util/sim_time.h"

namespace mvsim::response {

class DetectabilityMonitor final : public net::GatewayObserver {
 public:
  using Callback = std::function<void(SimTime detected_at)>;

  /// Fires callbacks the moment the `threshold`-th infected message is
  /// submitted. Threshold 0 means "known at t = 0": the engine then
  /// calls force_detect(0) before any event runs.
  ///
  /// In `deferred` mode the monitor only counts: it never crosses on
  /// its own, because the threshold is global while this monitor sees
  /// one shard's gateway traffic. The sharded engine sums the per-shard
  /// counts at each window barrier and fires force_detect() on every
  /// shard when the global total crosses (docs/parallelism.md).
  explicit DetectabilityMonitor(std::uint64_t threshold, bool deferred = false);

  /// Registers an activation callback. Registration is setup-time
  /// only: register every mechanism before the simulation starts
  /// (registering after detection has fired is a logic error).
  void on_detected(Callback callback);

  [[nodiscard]] bool detected() const { return detected_; }
  [[nodiscard]] SimTime detected_at() const { return detected_at_; }
  [[nodiscard]] std::uint64_t infected_messages_seen() const { return seen_; }

  /// Externally declares the virus detected at `at` (a deferred
  /// monitor's coordinator decided the global threshold crossed).
  /// Stamps detected_at and runs the callbacks; no-op once detected.
  void force_detect(SimTime at);

  // GatewayObserver
  void on_submitted(const net::MmsMessage& message, SimTime now) override;

 private:
  std::uint64_t threshold_;
  bool deferred_;
  std::uint64_t seen_ = 0;
  bool detected_ = false;
  SimTime detected_at_ = SimTime::infinity();
  std::vector<Callback> callbacks_;
};

}  // namespace mvsim::response
