#include "core/presets.h"

namespace mvsim::core {

SimTime paper_horizon_for(const virus::VirusProfile& profile) {
  if (profile.name == "Virus 2") return SimTime::days(10.0);
  if (profile.name == "Virus 3") return SimTime::hours(25.0);
  return SimTime::days(18.0);  // Viruses 1 and 4, and the default for customs
}

SimTime paper_sample_step_for(const virus::VirusProfile& profile) {
  if (profile.name == "Virus 3") return SimTime::minutes(15.0);
  return SimTime::hours(1.0);
}

ScenarioConfig baseline_scenario(const virus::VirusProfile& profile) {
  ScenarioConfig config;
  config.name = "baseline/" + profile.name;
  config.virus = profile;
  config.horizon = paper_horizon_for(profile);
  config.sample_step = paper_sample_step_for(profile);
  return config;
}

ScenarioConfig fig2_scan_scenario(SimTime activation_delay) {
  ScenarioConfig config = baseline_scenario(virus::virus1());
  config.name = "fig2/scan-delay-" + activation_delay.to_string();
  response::GatewayScanConfig scan;
  scan.activation_delay = activation_delay;
  config.responses.gateway_scan = scan;
  return config;
}

ScenarioConfig fig3_detection_scenario(double accuracy) {
  ScenarioConfig config = baseline_scenario(virus::virus2());
  config.name = "fig3/detection-accuracy";
  response::GatewayDetectionConfig detection;
  detection.accuracy = accuracy;
  config.responses.gateway_detection = detection;
  return config;
}

ScenarioConfig fig4_education_scenario(const virus::VirusProfile& profile,
                                       double eventual_acceptance) {
  ScenarioConfig config = baseline_scenario(profile);
  config.name = "fig4/education/" + profile.name;
  response::UserEducationConfig education;
  education.eventual_acceptance = eventual_acceptance;
  config.responses.user_education = education;
  return config;
}

ScenarioConfig fig5_immunization_scenario(SimTime development_time,
                                          SimTime deployment_duration) {
  ScenarioConfig config = baseline_scenario(virus::virus4());
  config.name = "fig5/immunization";
  response::ImmunizationConfig immunization;
  immunization.development_time = development_time;
  immunization.deployment_duration = deployment_duration;
  config.responses.immunization = immunization;
  return config;
}

ScenarioConfig fig6_monitoring_scenario(SimTime forced_wait) {
  ScenarioConfig config = baseline_scenario(virus::virus3());
  config.name = "fig6/monitoring";
  response::MonitoringConfig monitoring;
  monitoring.forced_wait = forced_wait;
  config.responses.monitoring = monitoring;
  return config;
}

ScenarioConfig fig7_blacklist_scenario(std::uint32_t threshold) {
  ScenarioConfig config = baseline_scenario(virus::virus3());
  config.name = "fig7/blacklist";
  response::BlacklistConfig blacklist;
  blacklist.message_threshold = threshold;
  config.responses.blacklist = blacklist;
  return config;
}

ScenarioConfig market_share_scenario(double share, graph::PhoneId population) {
  ScenarioConfig config = baseline_scenario(virus::virus1());
  config.name = "ext/market-share";
  config.population = population;
  config.susceptible_fraction = share;
  // Five independent patient zeros: a single seed dies out with
  // probability well over one half even far above the percolation
  // threshold, burying the transition in extinction noise. Five seeds
  // make ignition near-certain whenever the susceptible subgraph
  // percolates, so mean penetration shows the discontinuity directly.
  config.initial_infected = 5;
  // Spread at mean degree 8 is an order of magnitude slower than at
  // the paper's 80, and slows further near criticality; 30 days lets
  // above-threshold epidemics reach their plateau.
  config.horizon = SimTime::days(30.0);
  // Sparse contact lists: at the paper's mean degree of 80 the
  // susceptible subgraph percolates at shares far below any real
  // market split, washing out the transition. Mean 8 with a light
  // hub tail (alpha 3) puts the critical share in the empirically
  // interesting 0.1-0.3 band.
  config.topology.mean_degree = 8.0;
  config.topology.alpha = 3.0;
  // One graph for the whole sweep: penetration then varies only with
  // share (and per-replication susceptibility/process noise), and the
  // graph cache amortizes the build across replications.
  config.topology.shared_seed = 0x6d61726b6574ull;  // "market"
  return config;
}

ScenarioConfig bluetooth_worm_scenario() {
  ScenarioConfig config;
  config.name = "ext/bluetooth-worm";
  config.virus = virus::VirusProfile{};
  config.virus.name = "Bluetooth worm";
  config.virus.trigger = virus::SendTrigger::kNone;
  config.proximity = ProximityChannelConfig{};  // 16x16, 30 min dwell, hourly scans
  // A Bluetooth push pops a dialog, so decisions are faster than MMS
  // inbox reads.
  config.read_delay_mean = SimTime::minutes(5.0);
  config.responses.detectability_threshold = 0;
  config.horizon = SimTime::days(7.0);
  return config;
}

}  // namespace mvsim::core
