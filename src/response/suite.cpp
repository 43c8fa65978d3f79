#include "response/suite.h"

#include "response/registry.h"

namespace mvsim::response {

bool ResponseSuiteConfig::any_enabled() const { return enabled_count() > 0; }

int ResponseSuiteConfig::enabled_count() const {
  int count = 0;
  for (const MechanismInfo& info : ResponseRegistry::built_ins().mechanisms()) {
    count += info.enabled(*this) ? 1 : 0;
  }
  return count;
}

ValidationErrors ResponseSuiteConfig::validate() const {
  ValidationErrors errors("ResponseSuiteConfig");
  for (const MechanismInfo& info : ResponseRegistry::built_ins().mechanisms()) {
    if (info.enabled(*this)) errors.merge(info.validate(*this));
  }
  return errors;
}

ResponseSuiteConfig no_response() { return ResponseSuiteConfig{}; }

phone::ConsentModel consent_for_suite(const ResponseSuiteConfig& suite,
                                      double baseline_eventual_acceptance) {
  if (suite.user_education) return apply_user_education(*suite.user_education);
  return phone::ConsentModel::for_eventual_acceptance(baseline_eventual_acceptance);
}

}  // namespace mvsim::response
