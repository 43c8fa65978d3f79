// Response mechanism 4 (paper §3.2): immunization using software
// patches.
//
// After the virus becomes detectable, the provider spends
// `development_time` building a patch, then rolls it out to the whole
// susceptible population uniformly over `deployment_duration` (more
// distribution servers = shorter duration). A patch arriving at a
// healthy phone immunizes it; arriving at an infected phone it stops
// further dissemination (the engine stops the phone's SenderTable row
// when the patch lands).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "des/scheduler.h"
#include "net/message.h"
#include "response/mechanism.h"
#include "rng/stream.h"
#include "util/sim_time.h"
#include "util/validation.h"

namespace mvsim::response {

struct ImmunizationConfig {
  /// Time to develop the patch after the virus becomes detectable
  /// (paper sweeps 24 h / 48 h).
  SimTime development_time = SimTime::hours(24.0);
  /// Length of the uniform rollout across all susceptible phones
  /// (paper sweeps 1 h / 6 h / 24 h).
  SimTime deployment_duration = SimTime::hours(6.0);

  [[nodiscard]] ValidationErrors validate() const;
};

class Immunization final : public ResponseMechanism {
 public:
  explicit Immunization(const ImmunizationConfig& config);

  [[nodiscard]] bool deployment_started() const { return started_; }
  [[nodiscard]] std::uint64_t patches_applied() const { return applied_; }
  /// When the first / last patch lands (infinite before deployment).
  [[nodiscard]] SimTime deployment_begins_at() const { return begins_at_; }
  [[nodiscard]] SimTime deployment_ends_at() const { return ends_at_; }

  // ResponseMechanism
  [[nodiscard]] const char* name() const override { return "immunization"; }
  [[nodiscard]] std::uint32_t subscribed_hooks() const override {
    return hook::kDetectabilityCrossed;
  }
  /// Copies the context's patch-target list (the phones running the
  /// vulnerable platform; patching invulnerable phones would change
  /// nothing) and its apply_patch callback — both must be set.
  void on_build(BuildContext& context) override;
  void on_detectability_crossed(SimTime now) override;
  void on_metrics(metrics::Registry& registry) const override;

 private:
  void begin_deployment();

  ImmunizationConfig config_;
  des::Scheduler* scheduler_ = nullptr;
  rng::Stream* stream_ = nullptr;
  trace::TraceBuffer* trace_ = nullptr;
  std::vector<net::PhoneId> targets_;
  std::function<void(net::PhoneId)> apply_patch_;
  bool started_ = false;
  std::uint64_t applied_ = 0;
  SimTime begins_at_ = SimTime::infinity();
  SimTime ends_at_ = SimTime::infinity();
};

}  // namespace mvsim::response
