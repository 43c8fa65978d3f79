// Response-suite configuration: which mechanisms are enabled for a
// scenario, with their parameters.
//
// The paper evaluates each mechanism independently (§5.2) and names
// combinations as future work (§6); ResponseSuiteConfig supports both —
// any subset may be enabled at once, which is what the
// defense_in_depth example exercises. The per-mechanism optionals are
// plain data; everything that iterates over "all mechanisms"
// (validation, construction, JSON binding) goes through
// ResponseRegistry::built_ins() so this file does not grow an
// if-ladder per mechanism.
#pragma once

#include <optional>

#include "phone/consent.h"
#include "response/blacklist.h"
#include "response/gateway_detection.h"
#include "response/gateway_scan.h"
#include "response/immunization.h"
#include "response/monitoring.h"
#include "response/rate_limiter.h"
#include "response/user_education.h"
#include "util/validation.h"

namespace mvsim::response {

struct ResponseSuiteConfig {
  std::optional<GatewayScanConfig> gateway_scan;
  std::optional<GatewayDetectionConfig> gateway_detection;
  std::optional<UserEducationConfig> user_education;
  std::optional<ImmunizationConfig> immunization;
  std::optional<MonitoringConfig> monitoring;
  std::optional<BlacklistConfig> blacklist;
  std::optional<RateLimiterConfig> rate_limiter;

  /// Cumulative infected messages the gateways must observe before
  /// "the virus becomes detectable" (gates scan / detection /
  /// immunization activation; see response/detectability.h). 0 means
  /// the virus is known out-of-band from t = 0 (a Bluetooth worm the
  /// gateways never see).
  std::uint64_t detectability_threshold = 5;

  [[nodiscard]] bool any_enabled() const;
  /// Number of mechanisms enabled.
  [[nodiscard]] int enabled_count() const;
  [[nodiscard]] ValidationErrors validate() const;
};

/// Named empty suite for baseline runs.
[[nodiscard]] ResponseSuiteConfig no_response();

/// The consent model the population uses under this suite: the
/// educated one when user_education is enabled, otherwise the baseline
/// model for `baseline_eventual_acceptance`. User education is a
/// standing condition, so it acts here — at population build time —
/// rather than through event hooks.
[[nodiscard]] phone::ConsentModel consent_for_suite(const ResponseSuiteConfig& suite,
                                                    double baseline_eventual_acceptance);

}  // namespace mvsim::response
