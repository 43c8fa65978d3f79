#include "core/scenario.h"

namespace mvsim::core {

const char* to_string(TopologyConfig::Kind kind) {
  switch (kind) {
    case TopologyConfig::Kind::kPowerLaw: return "power-law";
    case TopologyConfig::Kind::kErdosRenyi: return "erdos-renyi";
    case TopologyConfig::Kind::kRegularRing: return "regular-ring";
    case TopologyConfig::Kind::kBarabasiAlbert: return "barabasi-albert";
  }
  return "?";
}

ValidationErrors TopologyConfig::validate() const {
  ValidationErrors errors("TopologyConfig");
  errors.require(mean_degree >= 1.0, "mean_degree must be >= 1");
  if (kind == Kind::kPowerLaw) {
    errors.require(alpha > 0.0, "alpha must be positive");
    errors.require(locality_jitter >= 0.0, "locality_jitter must be >= 0");
  }
  return errors;
}

ValidationErrors ProximityChannelConfig::validate() const {
  ValidationErrors errors("ProximityChannelConfig");
  errors.require(grid_width >= 1 && grid_height >= 1, "grid dimensions must be positive");
  errors.require(dwell_mean > SimTime::zero(), "dwell_mean must be positive");
  errors.require(scan_interval_mean > SimTime::zero(), "scan_interval_mean must be positive");
  return errors;
}

ValidationErrors ScenarioConfig::validate() const {
  ValidationErrors errors("ScenarioConfig(" + name + ")");
  errors.require(population >= 2, "population must be >= 2");
  errors.require(susceptible_fraction > 0.0 && susceptible_fraction <= 1.0,
                 "susceptible_fraction must be in (0, 1]");
  errors.require(initial_infected >= 1, "initial_infected must be >= 1");
  auto susceptible =
      static_cast<std::uint32_t>(susceptible_fraction * static_cast<double>(population));
  errors.require(initial_infected <= susceptible,
                 "initial_infected exceeds the susceptible population");
  errors.require(topology.mean_degree < static_cast<double>(population),
                 "topology mean_degree must be < population");
  errors.merge(topology.validate());
  errors.require(eventual_acceptance >= 0.0 && eventual_acceptance <= 0.70,
                 "eventual_acceptance must be in [0, 0.70] (AF/2^n family limit)");
  errors.require(read_delay_mean > SimTime::zero(), "read_delay_mean must be positive");
  errors.require(decision_cutoff >= 1, "decision_cutoff must be >= 1");
  errors.require(delivery_delay_mean > SimTime::zero(), "delivery_delay_mean must be positive");
  errors.merge(virus.validate());
  if (proximity) errors.merge(proximity->validate());
  if (virus.trigger == virus::SendTrigger::kNone) {
    errors.require(proximity.has_value(),
                   "virus trigger 'none' sends no MMS, so it needs a proximity block "
                   "(otherwise nothing can spread)");
  }
  errors.merge(responses.validate());
  errors.require(horizon > SimTime::zero() && horizon.is_finite(),
                 "horizon must be finite and positive");
  errors.require(sample_step > SimTime::zero() && sample_step <= horizon,
                 "sample_step must be positive and <= horizon");
  return errors;
}

double ScenarioConfig::expected_unrestrained_plateau() const {
  double acceptance = responses.user_education ? responses.user_education->eventual_acceptance
                                               : eventual_acceptance;
  return static_cast<double>(population) * susceptible_fraction * acceptance;
}

}  // namespace mvsim::core
