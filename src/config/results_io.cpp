#include "config/results_io.h"

#include <cstdio>
#include <ostream>

#include "util/duration.h"
#include "util/csv.h"

namespace mvsim::config {

namespace {
json::Value accumulator_to_json(const stats::Accumulator& acc) {
  json::Object o;
  o.set("mean", json::Value(acc.mean()));
  o.set("ci95", json::Value(acc.ci95_half_width()));
  o.set("min", json::Value(acc.min()));
  o.set("max", json::Value(acc.max()));
  return json::Value(std::move(o));
}
}  // namespace

json::Value results_to_json(const core::ScenarioConfig& scenario,
                            const core::ExperimentResult& result) {
  json::Object o;
  o.set("scenario", json::Value(scenario.name));
  o.set("replications", json::Value(result.curve.replication_count()));
  o.set("horizon", json::Value(util::format_duration(scenario.horizon)));
  o.set("expected_unrestrained_plateau",
        json::Value(scenario.expected_unrestrained_plateau()));
  o.set("final_infections", accumulator_to_json(result.final_infections));
  o.set("messages_submitted", accumulator_to_json(result.messages_submitted));
  o.set("messages_blocked", accumulator_to_json(result.messages_blocked));
  o.set("phones_flagged", accumulator_to_json(result.phones_flagged));
  o.set("phones_blacklisted", accumulator_to_json(result.phones_blacklisted));
  o.set("patches_applied", accumulator_to_json(result.patches_applied));
  for (const auto& [name, acc] : result.response_extras) {
    o.set(name, accumulator_to_json(acc));
  }

  // Time landmarks the paper's prose quotes: when the mean curve
  // crosses fractions of the expected unconstrained plateau.
  json::Object landmarks;
  double plateau = scenario.expected_unrestrained_plateau();
  for (double fraction : {0.25, 0.5, 0.75}) {
    SimTime t = result.curve.mean_first_time_at_or_above(plateau * fraction);
    char key[32];
    std::snprintf(key, sizeof key, "t_%.0f_percent", fraction * 100.0);
    landmarks.set(key, t.is_finite() ? json::Value(t.to_hours()) : json::Value(nullptr));
  }
  o.set("hours_to_plateau_fraction", json::Value(std::move(landmarks)));
  return json::Value(std::move(o));
}

void write_curve_csv(const core::ExperimentResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"hours", "mean_infected", "stddev", "ci95", "min", "max"});
  for (const auto& point : result.curve.grid()) {
    csv.row(point.time.to_hours(), point.mean, point.stddev, point.ci95, point.min, point.max);
  }
}

}  // namespace mvsim::config
