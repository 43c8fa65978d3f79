// Old-vs-new equivalence gate for the Bluetooth worm: the
// `bluetooth-worm` scenario on the engine core (core::run_experiment)
// must reproduce the outcome distributions of the standalone Bluetooth
// engine it replaced, in all six EXT-BT configurations of
// bench/ext_bluetooth.
//
// The two engines draw from different RNG streams, so their sample
// paths differ; only the distributions must agree. The engine core runs
// 64 replications at the bench's master seed, and a two-sample KS test
// at alpha = 0.01 compares final infected and time to half the consent
// plateau (a run that never gets there counts as +infinity) against 64
// pinned reference replications; Welch's t checks the mean of final
// infected at the same level.
//
// Reference samples: mobility::BluetoothSimulation as of commit
// 98600d612103ace6fa04df5724f3b047e9a99b3a, where this test ran both
// engines live; replication r used seed derive_seed(0xB10E0007, r).
// Each sample is sorted ascending; times are hours (6 decimals).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/presets.h"
#include "core/runner.h"
#include "two_sample.h"

namespace mvsim {
namespace {

constexpr int kReplications = 64;
constexpr std::uint64_t kMasterSeed = 0xB1'0E'00'07ULL;  // bench/ext_bluetooth's seed
constexpr double kAlpha = 0.01;
constexpr double kInf = std::numeric_limits<double>::infinity();

using Sample = std::array<double, kReplications>;

struct EquivalenceCase {
  const char* name;
  void (*configure)(core::ScenarioConfig&);
  Sample reference_final_infected;
  Sample reference_half_plateau_hours;  ///< kInf when never reached
};

void PrintTo(const EquivalenceCase& c, std::ostream* os) { *os << c.name; }

/// The standalone engine's detection_time + development_time folds into
/// development_time, since detectability is known at t = 0.
void immunize(core::ScenarioConfig& config, SimTime until_rollout, SimTime deployment) {
  response::ImmunizationConfig immunization;
  immunization.development_time = until_rollout;
  immunization.deployment_duration = deployment;
  config.responses.immunization = immunization;
}

const EquivalenceCase kCases[] = {
    {"baseline",
     [](core::ScenarioConfig&) {},
     {
       287, 290, 297, 301, 304, 304, 304, 305, 308, 309, 309, 309, 310, 312, 312, 313,
       314, 314, 314, 314, 314, 315, 315, 315, 315, 316, 316, 316, 317, 318, 319, 319,
       320, 322, 322, 323, 323, 323, 324, 324, 325, 326, 326, 327, 327, 328, 329, 329,
       329, 330, 330, 331, 331, 331, 332, 333, 334, 336, 338, 339, 347, 349, 352, 353},
     {
       29.157562, 29.471781, 29.874146, 30.384237, 30.823389, 31.091185, 31.418020,
       31.579329, 31.723748, 31.985668, 32.000419, 32.388060, 32.585665, 32.727090,
       32.814774, 32.947181, 32.988073, 33.400948, 34.328738, 34.593409, 34.673993,
       34.704193, 35.018575, 35.333431, 35.704979, 35.960372, 36.020342, 36.280442,
       36.490894, 36.522140, 36.526463, 36.646634, 36.783587, 37.013096, 37.181141,
       37.306682, 37.424410, 37.965152, 38.231513, 38.517044, 38.889647, 39.059590,
       39.281774, 39.422283, 39.968155, 40.384253, 41.633529, 41.667212, 41.840923,
       42.109738, 42.172860, 42.421478, 42.911591, 43.618761, 44.148946, 44.474573,
       44.916403, 45.474799, 46.709402, 48.364615, 51.245714, 52.598213, 53.765567,
       55.165382}},
    {"education_020",
     [](core::ScenarioConfig& c) {
       c.responses.user_education = response::UserEducationConfig{0.20};
     },
     {
       136, 138, 138, 144, 144, 145, 146, 146, 147, 147, 149, 149, 152, 152, 152, 152,
       154, 156, 156, 157, 158, 158, 158, 158, 158, 159, 159, 159, 160, 161, 161, 161,
       161, 162, 162, 162, 162, 162, 162, 163, 165, 166, 166, 166, 170, 170, 170, 172,
       172, 172, 175, 176, 176, 177, 179, 180, 181, 182, 182, 183, 185, 186, 187, 189},
     {
       43.204365, 44.504239, 44.547272, 46.417136, 46.740181, 47.052260, 48.419361,
       50.538191, 51.485299, 52.118905, 52.186155, 53.606681, 55.886507, 55.941176,
       56.815295, 57.073921, 58.106681, 58.127810, 59.081025, 59.114698, 60.167984,
       60.862107, 61.386275, 61.679813, 62.020050, 64.639202, 65.722346, 65.885692,
       65.953419, 66.312835, 67.657642, 68.165896, 68.584318, 68.878939, 70.004216,
       71.395398, 71.472650, 72.289551, 72.988739, 73.782250, 74.919514, 75.290285,
       75.398636, 77.094675, 77.418888, 78.508533, 78.630846, 79.367717, 79.513037,
       79.552839, 81.456008, 81.855280, 83.051055, 85.380098, 85.962524, 88.341545,
       88.656047, 89.012421, 89.532576, 92.571220, 93.377983, 96.944203, 101.145411,
       123.289514}},
    {"patch_24h_24h_6h",
     [](core::ScenarioConfig& c) { immunize(c, SimTime::hours(48.0), SimTime::hours(6.0)); },
     {
       115, 118, 126, 149, 183, 195, 205, 220, 221, 221, 229, 238, 243, 246, 249, 251,
       256, 256, 256, 259, 260, 261, 262, 262, 265, 269, 276, 277, 279, 281, 282, 282,
       284, 285, 285, 288, 289, 290, 291, 291, 292, 293, 295, 295, 296, 299, 299, 299,
       300, 300, 307, 307, 309, 309, 309, 310, 310, 313, 314, 315, 319, 319, 328, 330},
     {
       29.157562, 29.471781, 29.874146, 30.384237, 30.823389, 31.091185, 31.418020,
       31.579329, 31.723748, 31.985668, 32.000419, 32.388060, 32.585665, 32.727090,
       32.814774, 32.947181, 32.988073, 33.400948, 34.328738, 34.593409, 34.673993,
       34.704193, 35.018575, 35.333431, 35.704979, 35.960372, 36.020342, 36.280442,
       36.490894, 36.522140, 36.526463, 36.646634, 36.783587, 37.013096, 37.181141,
       37.306682, 37.424410, 37.965152, 38.231513, 38.517044, 38.889647, 39.059590,
       39.281774, 39.422283, 39.968155, 40.384253, 41.633529, 41.667212, 41.840923,
       42.109738, 42.172860, 42.421478, 42.911591, 43.618761, 44.148946, 44.474573,
       44.916403, 45.474799, 46.709402, 48.604213, kInf, kInf, kInf, kInf}},
    {"patch_12h_12h_1h",
     [](core::ScenarioConfig& c) { immunize(c, SimTime::hours(24.0), SimTime::hours(1.0)); },
     {
       5, 5, 5, 6, 6, 6, 10, 13, 15, 16, 17, 17, 17, 18, 19, 20, 21, 23, 24, 25, 26, 27,
       28, 30, 32, 33, 34, 34, 34, 36, 40, 41, 44, 45, 47, 48, 49, 51, 52, 53, 54, 56,
       58, 59, 61, 61, 62, 66, 67, 68, 69, 70, 74, 74, 75, 80, 81, 86, 87, 88, 90, 93,
       95, 99},
     {
       kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf,
       kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf,
       kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf,
       kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf,
       kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf}},
    {"grid_8x8",
     [](core::ScenarioConfig& c) { c.proximity->grid_width = c.proximity->grid_height = 8; },
     {
       287, 291, 292, 295, 296, 296, 297, 300, 301, 303, 304, 305, 306, 306, 307, 309,
       310, 310, 313, 313, 314, 315, 315, 316, 316, 317, 318, 318, 318, 318, 319, 320,
       321, 322, 323, 323, 324, 325, 325, 326, 327, 327, 328, 328, 329, 329, 329, 329,
       331, 331, 331, 331, 332, 334, 334, 334, 335, 338, 339, 342, 342, 344, 350, 352},
     {
       22.633098, 22.848933, 25.069148, 25.174334, 26.013024, 26.259512, 26.259969,
       26.501074, 27.007831, 27.311199, 27.615104, 27.784591, 27.959329, 28.068592,
       28.128555, 28.239749, 28.694314, 29.989302, 30.038721, 30.259315, 30.445933,
       30.597601, 31.277340, 31.574168, 31.702117, 31.929661, 32.269943, 32.337765,
       32.346162, 32.480103, 32.528101, 32.744888, 33.073708, 33.292900, 33.370820,
       33.504708, 33.688156, 33.755745, 34.292292, 34.465762, 34.523355, 34.677566,
       34.852923, 35.307908, 35.688194, 36.540530, 36.881503, 37.879312, 38.356597,
       39.071786, 39.936515, 40.089463, 40.124659, 40.440442, 40.456896, 41.020483,
       43.833442, 44.307081, 45.806517, 45.893469, 47.839653, 48.061493, 48.116057,
       50.438483}},
    {"grid_32x32",
     [](core::ScenarioConfig& c) { c.proximity->grid_width = c.proximity->grid_height = 32; },
     {
       279, 288, 289, 294, 295, 298, 304, 306, 306, 307, 308, 308, 310, 311, 312, 314,
       314, 315, 315, 315, 316, 317, 317, 318, 318, 319, 319, 320, 320, 321, 321, 322,
       322, 323, 324, 324, 324, 325, 325, 325, 326, 326, 326, 327, 327, 328, 328, 329,
       330, 331, 331, 332, 333, 335, 335, 336, 336, 338, 344, 344, 345, 351, 352, 353},
     {
       48.077533, 49.808837, 53.351074, 53.566477, 55.459762, 56.336459, 58.143700,
       58.538823, 59.801527, 62.185716, 62.297234, 64.192724, 64.916103, 65.374679,
       65.574902, 65.593129, 66.069653, 66.094117, 66.178789, 67.280121, 67.541885,
       67.721376, 67.994898, 68.755405, 68.878212, 69.080762, 69.396574, 69.504478,
       70.017276, 71.045104, 71.609746, 71.711377, 71.948189, 72.001574, 73.318195,
       73.329206, 73.590968, 73.763138, 74.308887, 74.482674, 75.039083, 76.347459,
       78.093359, 78.224376, 78.764704, 80.127733, 80.255238, 82.567216, 83.047810,
       83.096202, 83.631416, 84.269036, 86.153308, 86.198810, 86.338882, 86.458036,
       86.684154, 87.048045, 87.348906, 87.749385, 88.679029, 92.158222, 93.141709,
       96.033819}},
};

class BluetoothEngineEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(BluetoothEngineEquivalence, MatchesStandaloneEngineDistributions) {
  const EquivalenceCase& c = GetParam();
  core::ScenarioConfig config = core::bluetooth_worm_scenario();
  c.configure(config);

  core::RunnerOptions options;
  options.replications = kReplications;
  options.master_seed = kMasterSeed;
  options.threads = 2;
  const core::ExperimentResult result = core::run_experiment(config, options);
  const double half = config.expected_unrestrained_plateau() / 2.0;
  std::vector<double> final_infected;
  std::vector<double> half_plateau_hours;
  for (const core::ReplicationResult& r : result.replications) {
    final_infected.push_back(static_cast<double>(r.total_infected));
    const SimTime t = r.infections.first_time_at_or_above(half);
    half_plateau_hours.push_back(t.is_finite() ? t.to_hours() : kInf);
  }

  const std::vector<double> ref_final(c.reference_final_infected.begin(),
                                      c.reference_final_infected.end());
  const std::vector<double> ref_half(c.reference_half_plateau_hours.begin(),
                                     c.reference_half_plateau_hours.end());
  const double critical = stats::ks_critical_value(kReplications, kReplications, kAlpha);
  const double d_final = stats::ks_statistic(final_infected, ref_final);
  const double d_half = stats::ks_statistic(half_plateau_hours, ref_half);
  const stats::WelchResult welch = stats::welch_t(final_infected, ref_final);
  std::cout << c.name << ": D(final infected) = " << d_final
            << ", D(time to half plateau) = " << d_half << ", critical = " << critical
            << "; Welch t(final infected) = " << welch.t << '\n';
  EXPECT_LT(d_final, critical) << "final infected distributions differ";
  EXPECT_LT(d_half, critical) << "time-to-half-plateau distributions differ";
  // Welch's two-sided critical t at alpha = 0.01 is at most 2.626 once
  // df >= 100 (2.576 as df grows without bound).
  EXPECT_GE(welch.df, 100.0);
  EXPECT_LT(std::abs(welch.t), 2.626) << "mean final infected differs";
}

INSTANTIATE_TEST_SUITE_P(ExtBluetooth, BluetoothEngineEquivalence, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<EquivalenceCase>& param) {
                           return std::string(param.param.name);
                         });

}  // namespace
}  // namespace mvsim
