#include "response/detectability.h"

#include <stdexcept>

namespace mvsim::response {

DetectabilityMonitor::DetectabilityMonitor(std::uint64_t threshold, bool deferred)
    : threshold_(threshold), deferred_(deferred) {}

void DetectabilityMonitor::on_detected(Callback callback) {
  if (detected_) {
    throw std::logic_error("DetectabilityMonitor: registration after detection fired");
  }
  callbacks_.push_back(std::move(callback));
}

void DetectabilityMonitor::on_submitted(const net::MmsMessage& message, SimTime now) {
  if (!message.infected || detected_) return;
  ++seen_;
  if (deferred_) return;  // the coordinator owns the crossing decision
  if (seen_ < threshold_) return;
  detected_ = true;
  detected_at_ = now;
  for (auto& cb : callbacks_) cb(now);
}

void DetectabilityMonitor::force_detect(SimTime at) {
  if (detected_) return;
  detected_ = true;
  detected_at_ = at;
  for (auto& cb : callbacks_) cb(at);
}

}  // namespace mvsim::response
