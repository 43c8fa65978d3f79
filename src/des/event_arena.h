// Pooled storage for scheduler event records.
//
// EventArena is a chunked bump allocator with freelist recycling: slots
// are handed out from fixed-size chunks, recycled through a freelist
// when events fire or are cancelled, and never returned to the heap
// until the arena dies. Two properties matter to the scheduler:
//
//   * Record addresses are stable for the arena's lifetime (chunks are
//     never moved or released), so a callback can run in place while
//     it schedules new events — even if that allocates a fresh chunk.
//   * In steady state (live-event count at or below the high-water
//     mark) allocate/release touch only the freelist: zero heap
//     allocations per scheduled event. chunk_count() exposes the proof.
//
// Ids are 1-based so a zero id (default EventHandle) is never valid.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/event_fn.h"
#include "des/event_type.h"
#include "util/sim_time.h"

namespace mvsim::des {

/// One pooled event, one cache line: firing it reads a single line.
/// `at` is kept here so eager cancellation can find the calendar bucket
/// without a second lookup structure.
struct alignas(64) EventRecord {
  EventFn fn;
  SimTime at = SimTime::zero();
  std::uint32_t generation = 0;  // bumped on fire/cancel to invalidate handles
  EventType type = EventType::kGeneric;
  bool live = false;
};
static_assert(sizeof(EventRecord) == 64);

class EventArena {
 public:
  static constexpr std::size_t kChunkSize = 256;

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  /// Returns a 1-based slot id, recycling released slots first.
  std::uint32_t allocate() {
    if (!free_.empty()) {
      const std::uint32_t id = free_.back();
      free_.pop_back();
      ++recycled_;
      return id;
    }
    const std::size_t index = high_water_++;
    if (index == chunks_.size() * kChunkSize) {
      chunks_.push_back(std::make_unique<EventRecord[]>(kChunkSize));
    }
    return static_cast<std::uint32_t>(index + 1);
  }

  /// Returns a slot to the freelist. The caller resets the record's
  /// callback first; the slot's generation survives for handle checks.
  void release(std::uint32_t id) { free_.push_back(id); }

  [[nodiscard]] EventRecord& operator[](std::uint32_t id) {
    const std::size_t index = id - 1;
    return chunks_[index / kChunkSize][index % kChunkSize];
  }
  [[nodiscard]] const EventRecord& operator[](std::uint32_t id) const {
    const std::size_t index = id - 1;
    return chunks_[index / kChunkSize][index % kChunkSize];
  }

  /// Slots ever allocated (the bump high-water mark); valid ids are
  /// 1..size().
  [[nodiscard]] std::size_t size() const { return high_water_; }
  /// Chunks currently backing the pool. Constant while the live-event
  /// count stays under a previously reached peak — the zero-allocation
  /// steady-state witness.
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  /// Allocations served from the freelist instead of fresh slots.
  [[nodiscard]] std::uint64_t recycled_count() const { return recycled_; }

 private:
  std::vector<std::unique_ptr<EventRecord[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::size_t high_water_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace mvsim::des
