// Experiment presets: the paper's scenarios, one helper per figure.
//
// Each preset returns a fully-validated ScenarioConfig; the bench
// binaries sweep the single parameter their figure varies. Horizons
// follow §5.1: Viruses 1 and 4 are tracked over 18 days, Virus 2 over
// 10 days, Virus 3 over about a day.
#pragma once

#include <vector>

#include "core/scenario.h"
#include "virus/profile.h"

namespace mvsim::core {

/// Observation horizon the paper uses for each of the four viruses.
[[nodiscard]] SimTime paper_horizon_for(const virus::VirusProfile& profile);

/// Sampling step sized to the virus's time scale (fine for Virus 3).
[[nodiscard]] SimTime paper_sample_step_for(const virus::VirusProfile& profile);

/// Baseline scenario (no response mechanisms) for a given virus —
/// the Figure 1 setup.
[[nodiscard]] ScenarioConfig baseline_scenario(const virus::VirusProfile& profile);

/// Figure 2: gateway virus scan against Virus 1 with the given
/// signature activation delay.
[[nodiscard]] ScenarioConfig fig2_scan_scenario(SimTime activation_delay);

/// Figure 3: gateway detection algorithm against Virus 2 at the given
/// detection accuracy.
[[nodiscard]] ScenarioConfig fig3_detection_scenario(double accuracy);

/// Figure 4: user education lowering eventual acceptance, for any of
/// the four viruses.
[[nodiscard]] ScenarioConfig fig4_education_scenario(const virus::VirusProfile& profile,
                                                     double eventual_acceptance);

/// Figure 5: immunization against Virus 4 with the given development
/// time and rollout duration.
[[nodiscard]] ScenarioConfig fig5_immunization_scenario(SimTime development_time,
                                                        SimTime deployment_duration);

/// Figure 6: monitoring against Virus 3 with the given forced wait.
[[nodiscard]] ScenarioConfig fig6_monitoring_scenario(SimTime forced_wait);

/// Figure 7: blacklisting against Virus 3 at the given message
/// threshold.
[[nodiscard]] ScenarioConfig fig7_blacklist_scenario(std::uint32_t threshold);

/// Market-share experiment (extension): the virus targets a single
/// platform holding `share` of the handset market, so only that
/// fraction of phones is susceptible. On a sparse power-law contact
/// graph (mean degree 8, alpha 2.6 — message-book contacts rather
/// than the paper's dense address books) the susceptible subgraph
/// percolates only above a critical share, producing a sharp
/// discontinuity in final penetration as share crosses the threshold.
/// The topology uses a fixed shared seed so every replication (and
/// every point of a share sweep) reuses one cached graph and the
/// sweep isolates the share effect from topology noise.
[[nodiscard]] ScenarioConfig market_share_scenario(double share,
                                                   graph::PhoneId population = 20000);

/// Bluetooth-worm extension (paper §6: viruses "that spread using the
/// Bluetooth interface on a phone"). A Cabir-style worm sends no MMS
/// (trigger "none") and spreads only over the proximity channel: each
/// infected phone scans its grid cell about once an hour and pushes
/// itself to one co-located phone, whose user accepts on the paper's
/// consent curve. The gateways never see this traffic, so the provider
/// learns of the worm out-of-band, modeled as detectability threshold
/// 0 (known at t = 0); an immunization's development_time then covers
/// both the detection delay and the patch development. Only the
/// infection-point mechanisms (user education, immunization) can act.
/// 1000 phones on a 16x16 torus (about 4 per cell), tracked for 7 days.
[[nodiscard]] ScenarioConfig bluetooth_worm_scenario();

}  // namespace mvsim::core
