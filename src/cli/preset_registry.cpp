#include "cli/preset_registry.h"

#include "core/presets.h"

namespace mvsim::cli {

namespace {

struct Registered {
  PresetEntry entry;
  core::ScenarioConfig (*make)();
};

const std::vector<Registered>& registry() {
  static const std::vector<Registered> presets = {
      {{"virus1-baseline", "Virus 1 (CommWarrior-like), no response — Figure 1"},
       [] { return core::baseline_scenario(virus::virus1()); }},
      {{"virus2-baseline", "Virus 2 (aggressive daily bursts), no response — Figure 1"},
       [] { return core::baseline_scenario(virus::virus2()); }},
      {{"virus3-baseline", "Virus 3 (rapid random dialer), no response — Figure 1"},
       [] { return core::baseline_scenario(virus::virus3()); }},
      {{"virus4-baseline", "Virus 4 (stealthy piggybacker), no response — Figure 1"},
       [] { return core::baseline_scenario(virus::virus4()); }},
      {{"fig2-scan", "Virus 1 vs gateway signature scan, 6 h turnaround — Figure 2"},
       [] { return core::fig2_scan_scenario(SimTime::hours(6.0)); }},
      {{"fig3-detection", "Virus 2 vs gateway detection at 0.95 accuracy — Figure 3"},
       [] { return core::fig3_detection_scenario(0.95); }},
      {{"fig4-education", "Virus 1 with eventual acceptance reduced to 0.20 — Figure 4"},
       [] { return core::fig4_education_scenario(virus::virus1(), 0.20); }},
      {{"fig5-immunization", "Virus 4 vs 24 h patch + 6 h rollout — Figure 5"},
       [] {
         return core::fig5_immunization_scenario(SimTime::hours(24.0), SimTime::hours(6.0));
       }},
      {{"fig6-monitoring", "Virus 3 vs monitoring with 15 min forced wait — Figure 6"},
       [] { return core::fig6_monitoring_scenario(SimTime::minutes(15.0)); }},
      {{"fig7-blacklist", "Virus 3 vs blacklisting at 10 messages — Figure 7"},
       [] { return core::fig7_blacklist_scenario(10); }},
      {{"market-share", "Virus 1 confined to a 0.30-share platform on a sparse shared graph"},
       [] { return core::market_share_scenario(0.30); }},
      {{"bluetooth-worm", "Cabir-style worm spreading only over Bluetooth, no response"},
       [] { return core::bluetooth_worm_scenario(); }},
  };
  return presets;
}

}  // namespace

std::vector<PresetEntry> list_presets() {
  std::vector<PresetEntry> entries;
  entries.reserve(registry().size());
  for (const auto& preset : registry()) entries.push_back(preset.entry);
  return entries;
}

std::optional<core::ScenarioConfig> find_preset(const std::string& name) {
  for (const auto& preset : registry()) {
    if (preset.entry.name == name) return preset.make();
  }
  return std::nullopt;
}

}  // namespace mvsim::cli
