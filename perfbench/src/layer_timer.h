// Per-event self time for the traced run: a des::EventTimer passed to
// core::Simulation's constructor, summing the scheduler's per-event
// wall-clock measurements by event type.
#pragma once

#include <array>
#include <cstdint>

#include "des/event_type.h"

namespace perfbench {

class LayerTimer final : public mvsim::des::EventTimer {
 public:
  void record_event(mvsim::des::EventType type, double micros) override;

  /// Self seconds of all events of `type`.
  [[nodiscard]] double seconds(mvsim::des::EventType type) const;
  [[nodiscard]] std::uint64_t count(mvsim::des::EventType type) const;
  /// Self seconds summed over every event type.
  [[nodiscard]] double total_seconds() const;

  /// Folds another timer's sums in (paper-suite sums its replications).
  void add(const LayerTimer& other);

 private:
  std::array<double, mvsim::des::kEventTypeCount> micros_{};
  std::array<std::uint64_t, mvsim::des::kEventTypeCount> counts_{};
};

}  // namespace perfbench
