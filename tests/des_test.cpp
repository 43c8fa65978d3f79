// Unit tests for src/des: scheduler ordering, cancellation, sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "des/calendar_queue.h"
#include "des/sampler.h"
#include "outbreak_hold.h"
#include "des/scheduler.h"

namespace mvsim::des {
namespace {

/// The binary heap the calendar queue replaced, kept as the reference
/// queue of the differential tests: a std::priority_queue over
/// (time, seq) with lazy cancellation (a cancelled entry stays queued
/// until it surfaces, and is reclaimed then).
class ReferenceQueue {
 public:
  using Handle = std::size_t;

  Handle schedule_at(SimTime at, std::function<void()> fn) {
    const Handle id = events_.size();
    events_.push_back({std::move(fn), true});
    heap_.push({at, next_seq_++, id});
    return id;
  }
  Handle schedule_after(SimTime delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  /// False when the event already fired or was cancelled.
  bool cancel(Handle id) {
    if (!events_[id].live) return false;
    events_[id] = {nullptr, false};
    ++cancelled_;
    return true;
  }
  void run_until(SimTime until) {
    while (fire_next(&until)) {
    }
    now_ = until;
  }
  void run_to_quiescence() {
    while (fire_next(nullptr)) {
    }
  }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }
  [[nodiscard]] std::uint64_t cancelled_count() const { return cancelled_; }
  [[nodiscard]] std::uint64_t cancelled_reclaimed_count() const { return reclaimed_; }

 private:
  struct Event {
    std::function<void()> fn;
    bool live;
  };
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // FIFO tie-break for equal times
    Handle id;
    // Min-heap by (at, seq): priority_queue is a max-heap, so invert.
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool fire_next(const SimTime* limit) {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      if (!events_[top.id].live) {  // cancelled: discard lazily
        heap_.pop();
        ++reclaimed_;
        continue;
      }
      if (limit != nullptr && top.at > *limit) return false;
      heap_.pop();
      now_ = top.at;
      std::function<void()> fn = std::move(events_[top.id].fn);
      events_[top.id].live = false;
      ++executed_;
      fn();  // may schedule, growing events_
      return true;
    }
    return false;
  }

  SimTime now_ = SimTime::zero();
  std::priority_queue<Entry> heap_;
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t reclaimed_ = 0;
};

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), SimTime::zero());
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime::minutes(30.0), [&] { order.push_back(3); });
  sched.schedule_at(SimTime::minutes(10.0), [&] { order.push_back(1); });
  sched.schedule_at(SimTime::minutes(20.0), [&] { order.push_back(2); });
  sched.run_until(SimTime::hours(1.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, EqualTimesFireInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(SimTime::minutes(5.0), [&order, i] { order.push_back(i); });
  }
  sched.run_until(SimTime::minutes(5.0));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ClockIsEventTimeDuringCallback) {
  Scheduler sched;
  SimTime observed;
  sched.schedule_at(SimTime::minutes(42.0), [&] { observed = sched.now(); });
  sched.run_until(SimTime::hours(2.0));
  EXPECT_EQ(observed, SimTime::minutes(42.0));
  EXPECT_EQ(sched.now(), SimTime::hours(2.0)) << "clock rests at the horizon";
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler sched;
  SimTime fired;
  sched.schedule_at(SimTime::minutes(10.0), [&] {
    sched.schedule_after(SimTime::minutes(5.0), [&] { fired = sched.now(); });
  });
  sched.run_until(SimTime::hours(1.0));
  EXPECT_EQ(fired, SimTime::minutes(15.0));
}

TEST(Scheduler, RejectsPastTimesAndNegativeDelays) {
  Scheduler sched;
  sched.schedule_at(SimTime::minutes(1.0), [] {});
  sched.run_until(SimTime::minutes(30.0));
  EXPECT_THROW(sched.schedule_at(SimTime::minutes(10.0), [] {}), std::invalid_argument);
  EXPECT_THROW(sched.schedule_after(SimTime::minutes(-1.0), [] {}), std::invalid_argument);
  EXPECT_THROW(sched.run_until(SimTime::minutes(10.0)), std::invalid_argument);
}

TEST(Scheduler, RejectsEmptyCallback) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_after(SimTime::zero(), Scheduler::Callback{}),
               std::invalid_argument);
}

TEST(Scheduler, RunUntilStopsBeforeLaterEvents) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(SimTime::minutes(10.0), [&] { ++fired; });
  sched.schedule_at(SimTime::minutes(50.0), [&] { ++fired; });
  sched.run_until(SimTime::minutes(30.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.pending_count(), 1u);
  sched.run_until(SimTime::minutes(60.0));
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, EventExactlyAtHorizonFires) {
  Scheduler sched;
  bool fired = false;
  sched.schedule_at(SimTime::minutes(30.0), [&] { fired = true; });
  sched.run_until(SimTime::minutes(30.0));
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  EventHandle h = sched.schedule_at(SimTime::minutes(5.0), [&] { fired = true; });
  EXPECT_TRUE(sched.pending(h));
  EXPECT_TRUE(sched.cancel(h));
  EXPECT_FALSE(sched.pending(h));
  sched.run_until(SimTime::hours(1.0));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.cancelled_count(), 1u);
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler sched;
  EventHandle h = sched.schedule_at(SimTime::minutes(5.0), [] {});
  EXPECT_TRUE(sched.cancel(h));
  EXPECT_FALSE(sched.cancel(h));
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler sched;
  EventHandle h = sched.schedule_at(SimTime::minutes(5.0), [] {});
  sched.run_until(SimTime::minutes(10.0));
  EXPECT_FALSE(sched.pending(h));
  EXPECT_FALSE(sched.cancel(h));
}

TEST(Scheduler, DefaultHandleIsInvalid) {
  Scheduler sched;
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(sched.pending(h));
  EXPECT_FALSE(sched.cancel(h));
}

TEST(Scheduler, StaleHandleAfterSlotReuseIsInert) {
  Scheduler sched;
  bool second_fired = false;
  EventHandle first = sched.schedule_at(SimTime::minutes(1.0), [] {});
  sched.run_until(SimTime::minutes(2.0));  // first fires; its slot recycles
  EventHandle second = sched.schedule_at(SimTime::minutes(5.0), [&] { second_fired = true; });
  // Cancelling the stale first handle must not hit the recycled slot.
  EXPECT_FALSE(sched.cancel(first));
  EXPECT_TRUE(sched.pending(second));
  sched.run_until(SimTime::minutes(10.0));
  EXPECT_TRUE(second_fired);
}

TEST(Scheduler, CancelDuringCallbackOfSameTime) {
  Scheduler sched;
  bool late_fired = false;
  EventHandle victim;
  sched.schedule_at(SimTime::minutes(5.0), [&] { sched.cancel(victim); });
  victim = sched.schedule_at(SimTime::minutes(5.0), [&] { late_fired = true; });
  sched.run_until(SimTime::minutes(6.0));
  EXPECT_FALSE(late_fired) << "same-instant FIFO: earlier event cancels the later one";
}

TEST(Scheduler, EventsCanScheduleAtSameInstant) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(SimTime::minutes(5.0), [&] {
    ++fired;
    sched.schedule_at(sched.now(), [&] { ++fired; });
  });
  sched.run_until(SimTime::minutes(5.0));
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunToQuiescenceDrainsChains) {
  Scheduler sched;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 100) sched.schedule_after(SimTime::minutes(1.0), chain);
  };
  sched.schedule_after(SimTime::zero(), chain);
  sched.run_to_quiescence();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sched.pending_count(), 0u);
  EXPECT_EQ(sched.executed_count(), 100u);
}

TEST(Scheduler, PendingCountExcludesCancelled) {
  Scheduler sched;
  EventHandle h1 = sched.schedule_at(SimTime::minutes(1.0), [] {});
  sched.schedule_at(SimTime::minutes(2.0), [] {});
  EXPECT_EQ(sched.pending_count(), 2u);
  sched.cancel(h1);
  EXPECT_EQ(sched.pending_count(), 1u);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler sched;
  SimTime last = SimTime::zero();
  bool monotone = true;
  // Deterministic pseudo-random times via a little LCG.
  std::uint64_t state = 12345;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    double t = static_cast<double>(state >> 40);
    sched.schedule_at(SimTime::minutes(t), [&, t] {
      if (sched.now() < last) monotone = false;
      last = sched.now();
      (void)t;
    });
  }
  sched.run_to_quiescence();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sched.executed_count(), 5000u);
}

// ---------------------------------------------------------------------------
// Calendar-queue-specific stress: the wheel must agree with the documented
// contract (time order, FIFO tie-break, generation-checked cancellation)
// and with ReferenceQueue under workloads that exercise the wheel's slice
// serving, overflow list, width re-fit, and rotation logic.

TEST(Scheduler, SameInstantFifoStormBothImpls) {
  auto storm = [](auto& queue) {
    std::vector<int> order;
    order.reserve(5000);
    // A huge same-time cohort lands in one wheel bucket and must come
    // back in exact schedule order despite LIFO bucket chaining.
    for (int i = 0; i < 5000; ++i) {
      queue.schedule_at(SimTime::minutes(30.0), [&order, i] { order.push_back(i); });
    }
    queue.run_to_quiescence();
    return order;
  };
  Scheduler wheel;
  ReferenceQueue heap;
  const std::vector<int> wheel_order = storm(wheel);
  ASSERT_EQ(wheel_order.size(), 5000u);
  for (int i = 0; i < 5000; ++i) ASSERT_EQ(wheel_order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(wheel_order, storm(heap));
}

TEST(Scheduler, FarHorizonEventsSpanManyRotations) {
  // Dense near-term traffic sets a small bucket width; the far events
  // then live many full wheel rotations (or the overflow list) away.
  Scheduler sched;
  std::vector<double> fired;
  for (int i = 0; i < 256; ++i) {
    double t = 1.0 + 0.001 * i;
    sched.schedule_at(SimTime::minutes(t), [&fired, t] { fired.push_back(t); });
  }
  const double far_minutes[] = {60.0, 24.0 * 60.0, 7.0 * 24.0 * 60.0, 365.0 * 24.0 * 60.0};
  for (double t : far_minutes) {
    sched.schedule_at(SimTime::minutes(t), [&fired, t] { fired.push_back(t); });
  }
  sched.run_to_quiescence();
  ASSERT_EQ(fired.size(), 260u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired.back(), 365.0 * 24.0 * 60.0);
}

TEST(Scheduler, CancelThenRescheduleReusesSlotSafely) {
  Scheduler sched;
  int fired = 0;
  EventHandle h = sched.schedule_at(SimTime::minutes(5.0), [&] { ++fired; });
  ASSERT_TRUE(sched.cancel(h));
  // The recycled slot gets a new generation; the old handle stays dead.
  EventHandle h2 = sched.schedule_at(SimTime::minutes(5.0), [&] { fired += 10; });
  EXPECT_FALSE(sched.cancel(h)) << "stale handle must not cancel the replacement";
  EXPECT_FALSE(sched.pending(h));
  EXPECT_TRUE(sched.pending(h2));
  sched.run_until(SimTime::minutes(6.0));
  EXPECT_EQ(fired, 10);
  // And again, from inside a callback at the same instant.
  EventHandle h3 = sched.schedule_at(SimTime::minutes(10.0), [&] { fired += 100; });
  sched.schedule_at(SimTime::minutes(10.0), [&] {
    // Runs first (FIFO would put h3 first, but h3 was scheduled first) —
    // so cancel-then-reschedule must target a *later* same-time event.
  });
  ASSERT_TRUE(sched.cancel(h3));
  EventHandle h4 = sched.schedule_at(SimTime::minutes(10.0), [&] { fired += 1000; });
  sched.run_until(SimTime::minutes(11.0));
  EXPECT_EQ(fired, 1010);
  EXPECT_FALSE(sched.cancel(h4));
}

TEST(Scheduler, RandomizedDifferentialWheelVsHeap) {
  // Drive the wheel and the reference heap through an identical random
  // mix of schedules and cancellations; the observable fire sequence
  // (time, tag) must match element-for-element. This is the strongest
  // equivalence check we have short of the golden-curve test.
  Scheduler wheel;
  ReferenceQueue heap;
  std::vector<std::pair<double, int>> wheel_fired;
  std::vector<std::pair<double, int>> heap_fired;
  std::vector<EventHandle> wheel_handles;
  std::vector<ReferenceQueue::Handle> heap_handles;

  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next_rand = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };

  for (int i = 0; i < 20000; ++i) {
    std::uint64_t r = next_rand();
    if (r % 8 == 0 && !wheel_handles.empty()) {
      // Cancel the same (possibly stale) handle on both sides.
      std::size_t victim = r % wheel_handles.size();
      bool a = wheel.cancel(wheel_handles[victim]);
      bool b = heap.cancel(heap_handles[victim]);
      ASSERT_EQ(a, b) << "cancel outcome diverged at op " << i;
    } else {
      // Cluster delays to force same-instant ties (integer minutes) and
      // occasionally fling one far out to rotate the wheel. Relative
      // scheduling keeps times valid as the interleaved draining below
      // advances both clocks in lockstep.
      double t = static_cast<double>(r % 512);
      if (r % 97 == 0) t += 1.0e6;
      int tag = i;
      wheel_handles.push_back(wheel.schedule_after(
          SimTime::minutes(t), [&wheel_fired, t, tag] { wheel_fired.emplace_back(t, tag); }));
      heap_handles.push_back(heap.schedule_after(
          SimTime::minutes(t), [&heap_fired, t, tag] { heap_fired.emplace_back(t, tag); }));
    }
    // Interleave partial draining so cancellation hits both pending and
    // already-fired events, and the wheel serves from a live slice.
    if (r % 139 == 0) {
      SimTime upto = wheel.now() + SimTime::minutes(static_cast<double>(r % 256));
      wheel.run_until(upto);
      heap.run_until(upto);
    }
  }
  wheel.run_to_quiescence();
  heap.run_to_quiescence();
  ASSERT_EQ(wheel_fired.size(), heap_fired.size());
  for (std::size_t i = 0; i < wheel_fired.size(); ++i) {
    ASSERT_EQ(wheel_fired[i], heap_fired[i]) << "fire order diverged at index " << i;
  }
  EXPECT_EQ(wheel.executed_count(), heap.executed_count());
  EXPECT_EQ(wheel.cancelled_count(), heap.cancelled_count());
}

TEST(Scheduler, CancelledReclaimedEagerOnWheelLazyOnHeap) {
  // The wheel unlinks and recycles a cancelled record immediately; the
  // reference heap can only discard it when it surfaces at the top. Same
  // results, different reclamation timing — that difference is what
  // des.scheduler.cancelled_reclaimed would show.
  Scheduler wheel;
  ReferenceQueue heap;
  std::vector<EventHandle> wh;
  std::vector<ReferenceQueue::Handle> hh;
  for (int i = 0; i < 100; ++i) {
    double t = static_cast<double>(i + 1);
    wh.push_back(wheel.schedule_at(SimTime::minutes(t), [] {}));
    hh.push_back(heap.schedule_at(SimTime::minutes(t), [] {}));
  }
  for (int i = 0; i < 100; i += 2) {
    wheel.cancel(wh[static_cast<std::size_t>(i)]);
    heap.cancel(hh[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(wheel.cancelled_count(), 50u);
  EXPECT_EQ(wheel.cancelled_reclaimed_count(), 50u) << "wheel reclaims at cancel()";
  EXPECT_EQ(heap.cancelled_count(), 50u);
  EXPECT_EQ(heap.cancelled_reclaimed_count(), 0u) << "heap reclaims lazily at pop";
  wheel.run_to_quiescence();
  heap.run_to_quiescence();
  EXPECT_EQ(wheel.cancelled_reclaimed_count(), 50u);
  EXPECT_EQ(heap.cancelled_reclaimed_count(), 50u) << "drained heap has reclaimed everything";
  EXPECT_EQ(wheel.executed_count(), 50u);
  EXPECT_EQ(heap.executed_count(), 50u);
}

TEST(CalendarQueue, OutbreakShapedQueueKeepsSlicesSmall) {
  // The outbreak's queue grows from ten entries to 30,000: a dense
  // 30-60 min near term and an 18-30 h reboot tail. A width fitted
  // once, while the queue was small (2 x span / count at 8,192
  // entries), serves 130 entries per slice here once it has grown; the
  // head-sampled refit keeps them to a few, in a handful of refits.
  CalendarQueue queue;
  const double checksum = bench_models::outbreak_hold(queue, 30'000, 400'000);
  EXPECT_GT(checksum, 0.0);
  ASSERT_GT(queue.slices_served(), 0u);
  const double mean_entries = static_cast<double>(queue.entries_served()) /
                              static_cast<double>(queue.slices_served());
  EXPECT_LE(mean_entries, 16.0) << "mean entries per served slice";
  EXPECT_LE(queue.refit_count(), 16u) << "refits must stay bounded";
  EXPECT_LE(queue.slice_sorts(), queue.slices_served());
}

TEST(CalendarQueue, SameInstantStormBacksOffRefits) {
  // Every slice holds a cohort of 64 same-instant entries, so no width
  // can make slices small; the refits that try must back off instead
  // of rebuilding the queue every window.
  CalendarQueue queue;
  std::uint64_t seq = 0;
  for (int minute = 0; minute < 4000; ++minute) {
    for (int i = 0; i < 64; ++i) queue.insert(static_cast<double>(minute), seq++, 0);
  }
  while (!queue.empty()) queue.pop_front();
  EXPECT_EQ(queue.entries_served(), seq);
  EXPECT_LE(queue.refit_count(), 8u);
}

TEST(Scheduler, SteadyStateSchedulesWithoutAllocating) {
  // After warmup the schedule→fire→recycle cycle must be allocation-free:
  // the arena never grows a new chunk and every callback fits inline.
  Scheduler sched;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) {
      sched.schedule_after(SimTime::minutes(1.0 + i), [] {});
    }
    sched.run_to_quiescence();
  }
  const std::size_t warm_chunks = sched.arena_chunk_count();
  const std::uint64_t recycled_before = sched.arena_recycled_count();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 64; ++i) {
      sched.schedule_after(SimTime::minutes(1.0 + i), [] {});
    }
    sched.run_to_quiescence();
  }
  EXPECT_EQ(sched.arena_chunk_count(), warm_chunks) << "arena grew in steady state";
  EXPECT_GT(sched.arena_recycled_count(), recycled_before) << "slots must be recycled";
  EXPECT_EQ(sched.callback_heap_fallback_count(), 0u)
      << "every hot-path callback must fit the inline buffer";
}

TEST(PeriodicSampler, SamplesOnGridIncludingZeroAndHorizon) {
  Scheduler sched;
  int value = 0;
  sched.schedule_at(SimTime::minutes(25.0), [&] { value = 7; });
  PeriodicSampler sampler(sched, SimTime::minutes(10.0), SimTime::minutes(40.0),
                          [&] { return static_cast<double>(value); });
  sched.run_until(SimTime::minutes(40.0));
  const auto& samples = sampler.samples();
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_EQ(samples.front().first, SimTime::zero());
  EXPECT_EQ(samples.back().first, SimTime::minutes(40.0));
  EXPECT_DOUBLE_EQ(samples[2].second, 0.0);  // t=20, before the change
  EXPECT_DOUBLE_EQ(samples[3].second, 7.0);  // t=30, after the change
}

TEST(PeriodicSampler, RejectsBadArguments) {
  Scheduler sched;
  EXPECT_THROW(PeriodicSampler(sched, SimTime::zero(), SimTime::hours(1.0), [] { return 0.0; }),
               std::invalid_argument);
  EXPECT_THROW(PeriodicSampler(sched, SimTime::minutes(1.0), SimTime::minutes(-1.0),
                               [] { return 0.0; }),
               std::invalid_argument);
  EXPECT_THROW(PeriodicSampler(sched, SimTime::minutes(1.0), SimTime::hours(1.0), nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace mvsim::des
