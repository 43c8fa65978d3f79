#include "layer_timer.h"

namespace perfbench {

void LayerTimer::record_event(mvsim::des::EventType type, double micros) {
  const auto i = static_cast<std::size_t>(type);
  micros_[i] += micros;
  ++counts_[i];
}

double LayerTimer::seconds(mvsim::des::EventType type) const {
  return micros_[static_cast<std::size_t>(type)] * 1e-6;
}

std::uint64_t LayerTimer::count(mvsim::des::EventType type) const {
  return counts_[static_cast<std::size_t>(type)];
}

double LayerTimer::total_seconds() const {
  double total = 0.0;
  for (double m : micros_) total += m;
  return total * 1e-6;
}

void LayerTimer::add(const LayerTimer& other) {
  for (std::size_t i = 0; i < micros_.size(); ++i) {
    micros_[i] += other.micros_[i];
    counts_[i] += other.counts_[i];
  }
}

}  // namespace perfbench
