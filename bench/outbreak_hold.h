// Outbreak-shaped hold model for the calendar queue.
//
// The serial engine's queue during an MMS outbreak holds two
// populations: a dense near term (send attempts 30-60 min ahead, plus
// the deliveries and reads they cause) and a thin far tail (each
// infected phone's next reboot, 18-30 h ahead). It also grows by
// orders of magnitude as the outbreak spreads. A slice width fitted
// once, early, while the queue is still small, is far too wide for the
// near term once it grows. This model reproduces that shape on a bare
// CalendarQueue, so a bench can time it and a test can gate the
// queue's work counters on it.
#pragma once

#include <cstdint>

#include "des/calendar_queue.h"

namespace mvsim::bench_models {

/// Entry ids tag the two populations; the model never removes entries,
/// so ids need not be unique.
inline constexpr std::uint32_t kHoldSend = 0;
inline constexpr std::uint32_t kHoldReboot = 1;

/// Starts from five infected phones and runs `pops` pops. A popped send
/// schedules the phone's next send 30-60 min ahead and, while fewer
/// than `depth` entries are pending, infects one more phone (a send
/// 30-60 min ahead and a reboot 18-30 h ahead). A popped reboot
/// schedules the next one 18-30 h ahead. Returns the sum of popped
/// times (a checksum that keeps the work observable).
inline double outbreak_hold(des::CalendarQueue& queue, std::uint64_t depth, std::uint64_t pops) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  std::uint64_t seq = 0;
  auto uniform = [&state](double lo, double hi) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return lo + (hi - lo) * static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  auto infect = [&](double now) {
    queue.insert(now + uniform(30.0, 60.0), seq++, kHoldSend);
    queue.insert(now + uniform(18.0 * 60.0, 30.0 * 60.0), seq++, kHoldReboot);
  };
  for (int i = 0; i < 5; ++i) infect(uniform(0.0, 30.0));
  double checksum = 0.0;
  for (std::uint64_t i = 0; i < pops && !queue.empty(); ++i) {
    const des::CalendarQueue::Entry top = *queue.peek();
    queue.pop_front();
    checksum += top.at;
    if (top.id == kHoldReboot) {
      queue.insert(top.at + uniform(18.0 * 60.0, 30.0 * 60.0), seq++, kHoldReboot);
      continue;
    }
    queue.insert(top.at + uniform(30.0, 60.0), seq++, kHoldSend);
    if (queue.size() < depth) infect(top.at);
  }
  return checksum;
}

}  // namespace mvsim::bench_models
