// MICRO: scheduler-internals microbenchmarks.
//
// Not a paper figure. Where micro_engine measures the scheduler as the
// simulation uses it (fresh scheduler, modest queue), these cases load
// the calendar queue on the workloads where queue asymptotics matter:
//
//   churn/*        steady-state schedule+fire cycles at a held queue
//                  depth D (the wheel pays O(1) per pop).
//   queue_only/*   the same hold model on the bare data structures:
//                  the calendar queue vs a binary min-heap (O(log D)
//                  per pop), with arena, EventFn and dispatch costs
//                  stripped away, so the gap shows undiluted.
//   outbreak_hold  the bare calendar queue under the outbreak's shape
//                  (bench/outbreak_hold.h): a dense 30-60 min near term
//                  and an 18-30 h reboot tail, grown to the depth of a
//                  10^5-phone outbreak; its slice counters print below.
//   cancel_churn   schedule-then-cancel rounds that never fire; the
//                  wheel unlinks and recycles eagerly.
//   arena_cycle    the schedule→fire→recycle loop on one long-lived
//                  scheduler, with a hard zero-allocation witness:
//                  the run aborts if the arena grows a chunk or any
//                  callback spills to the heap after warmup.
//   rng/*          batched Stream draws vs single-draw engine calls.
//
// After the cases run, a calendar-queue-vs-heap table (p50 ratios) and
// the outbreak_hold slice counters are printed on stdout; the per-case
// numbers land in BENCH_micro_scheduler.json like every other bench.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <queue>

#include "harness.h"
#include "outbreak_hold.h"
#include "des/calendar_queue.h"
#include "des/scheduler.h"
#include "rng/stream.h"

namespace {

using namespace mvsim;

// Keeps a computed value alive so the optimizer cannot delete the work.
volatile std::uint64_t g_sink = 0;

constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ULL;

/// Shared state for the self-replacing churn event. The callback is a
/// trivially copyable 8-byte struct, so it rides EventFn's inline
/// trivial fast path — exactly like the simulation's own hot events.
struct ChurnCtx {
  des::Scheduler* sched;
  std::uint64_t state;
  std::uint64_t remaining;
  std::uint64_t delay_span;  // replacement delays uniform in [1, span]
};

struct ChurnTick {
  ChurnCtx* ctx;
  void operator()() const {
    if (ctx->remaining == 0) return;
    --ctx->remaining;
    ctx->state = ctx->state * kLcgMul + kLcgAdd;
    double delay = static_cast<double>((ctx->state >> 33) % ctx->delay_span) + 1.0;
    ctx->sched->schedule_after(SimTime::minutes(delay), ChurnTick{ctx});
  }
};

/// The classic hold model: keep `depth` events pending, pop the
/// earliest, push a replacement a uniform-random delay ahead — for
/// `churn_ops` pairs, then drain. Replacement delays span `depth`
/// minutes so the pending set stays uniformly spread at every depth;
/// every executed event is one pop plus (until the quota runs out) one
/// push, so events/sec ≈ sustained pair throughput.
std::uint64_t churn_at_depth(std::uint64_t depth, std::uint64_t churn_ops) {
  des::Scheduler sched;
  ChurnCtx ctx{&sched, 0x9e3779b97f4a7c15ULL, churn_ops, depth};
  for (std::uint64_t i = 0; i < depth; ++i) {
    ctx.state = ctx.state * kLcgMul + kLcgAdd;
    double at = static_cast<double>((ctx.state >> 33) % depth) + 1.0;
    sched.schedule_at(SimTime::minutes(at), ChurnTick{&ctx});
  }
  sched.run_to_quiescence();
  g_sink = sched.executed_count();
  return sched.executed_count();
}

/// Rounds of (schedule a burst, cancel the whole burst). Nothing ever
/// fires, so the measured cost is pure queue bookkeeping; the reported
/// events count schedules + cancels.
std::uint64_t cancel_churn(int rounds, int burst) {
  des::Scheduler sched;
  std::vector<des::EventHandle> handles;
  handles.reserve(static_cast<std::size_t>(burst));
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  for (int round = 0; round < rounds; ++round) {
    handles.clear();
    for (int i = 0; i < burst; ++i) {
      state = state * kLcgMul + kLcgAdd;
      double at = static_cast<double>((state >> 33) % 4096) + 1.0;
      handles.push_back(sched.schedule_at(SimTime::minutes(at), [] {}));
    }
    for (des::EventHandle h : handles) sched.cancel(h);
  }
  // Eager cancellation already reclaimed everything; this drains nothing.
  sched.run_to_quiescence();
  g_sink = sched.cancelled_reclaimed_count();
  return sched.cancelled_count() * 2;
}

/// Steady-state schedule→fire→recycle on one long-lived scheduler.
/// Aborts the bench if the cycle allocates after warmup — this is the
/// executable form of the "zero heap allocations per event in steady
/// state" contract.
std::uint64_t arena_cycle() {
  des::Scheduler sched;
  constexpr int kWarmupRounds = 4;
  constexpr int kRounds = 400;
  constexpr int kBurst = 512;
  auto one_round = [&sched] {
    for (int i = 0; i < kBurst; ++i) {
      sched.schedule_after(SimTime::minutes(static_cast<double>(i % 97) + 1.0), [] {});
    }
    sched.run_to_quiescence();
  };
  for (int round = 0; round < kWarmupRounds; ++round) one_round();
  const std::size_t warm_chunks = sched.arena_chunk_count();
  for (int round = 0; round < kRounds; ++round) one_round();
  if (sched.arena_chunk_count() != warm_chunks || sched.callback_heap_fallback_count() != 0) {
    std::fprintf(stderr,
                 "arena_cycle: steady state allocated (chunks %zu -> %zu, heap fallbacks %llu)\n",
                 warm_chunks, sched.arena_chunk_count(),
                 static_cast<unsigned long long>(sched.callback_heap_fallback_count()));
    std::abort();
  }
  g_sink = sched.arena_recycled_count();
  return sched.executed_count();
}

/// The queue the calendar queue replaced, reproduced standalone: a
/// binary min-heap of (time, seq) entries. Used by the queue_only/*
/// cases to measure the data structures themselves.
struct BareHeapEntry {
  double at;
  std::uint64_t seq;
  std::uint32_t id;
  std::uint64_t generation;  // the scheduler's heap entries carried one too
  friend bool operator<(const BareHeapEntry& a, const BareHeapEntry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

/// Hold model on the bare queues: pop the minimum, push a replacement
/// a uniform-random delay (spanning `depth` minutes) ahead. This is
/// where the O(1)-vs-O(log n) gap shows undiluted.
std::uint64_t queue_only_wheel(std::uint64_t depth, std::uint64_t ops) {
  des::CalendarQueue q;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < depth; ++i) {
    state = state * kLcgMul + kLcgAdd;
    q.insert(static_cast<double>((state >> 33) % depth) + 1.0, seq, static_cast<std::uint32_t>(seq));
    ++seq;
  }
  double checksum = 0.0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const des::CalendarQueue::Entry* top = q.peek();
    double now = top->at;
    checksum += now;
    q.pop_front();
    state = state * kLcgMul + kLcgAdd;
    q.insert(now + static_cast<double>((state >> 33) % depth) + 1.0, seq,
             static_cast<std::uint32_t>(seq));
    ++seq;
  }
  while (q.size() > 0) q.pop_front();
  g_sink = static_cast<std::uint64_t>(checksum);
  return ops + depth;
}

std::uint64_t queue_only_heap(std::uint64_t depth, std::uint64_t ops) {
  std::priority_queue<BareHeapEntry> q;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < depth; ++i) {
    state = state * kLcgMul + kLcgAdd;
    q.push({static_cast<double>((state >> 33) % depth) + 1.0, seq,
            static_cast<std::uint32_t>(seq), seq});
    ++seq;
  }
  double checksum = 0.0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    double now = q.top().at;
    checksum += now;
    q.pop();
    state = state * kLcgMul + kLcgAdd;
    q.push({now + static_cast<double>((state >> 33) % depth) + 1.0, seq,
            static_cast<std::uint32_t>(seq), seq});
    ++seq;
  }
  while (!q.empty()) q.pop();
  g_sink = static_cast<std::uint64_t>(checksum);
  return ops + depth;
}

/// Pending entries the outbreak_hold case grows to (the traced
/// 10^5-phone outbreak peaks at 30,770) and the pops it runs.
constexpr std::uint64_t kOutbreakDepth = 30'000;
constexpr std::uint64_t kOutbreakPops = 1'000'000;

std::uint64_t outbreak_hold_once() {
  des::CalendarQueue q;
  g_sink = static_cast<std::uint64_t>(bench_models::outbreak_hold(q, kOutbreakDepth, kOutbreakPops));
  return kOutbreakPops;
}

constexpr std::uint64_t kRngDraws = 20'000'000;

/// Stream's buffered path: one bulk engine fill per 64 draws.
std::uint64_t rng_batched() {
  rng::Stream stream(1234);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < kRngDraws; ++i) sum += stream.uniform01();
  g_sink = static_cast<std::uint64_t>(sum);
  return kRngDraws;
}

/// The pre-batching shape: one counted engine call per draw.
std::uint64_t rng_unbatched() {
  rng::Xoshiro256 engine(1234);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < kRngDraws; ++i) {
    sum += static_cast<double>(engine() >> 11) * 0x1.0p-53;
  }
  g_sink = static_cast<std::uint64_t>(sum);
  return kRngDraws;
}

double case_p50(const std::vector<bench::CaseResult>& cases, const std::string& name) {
  for (const bench::CaseResult& c : cases) {
    if (c.name == name) return bench::sample_quantile(c.wall_seconds, 0.5);
  }
  return 0.0;
}

}  // namespace

int main() {
  bench::Harness harness("micro_scheduler", {.warmup = 1, .repeat = 5});

  const std::uint64_t kChurnOps = 200'000;
  const std::vector<std::uint64_t> depths = {1'000, 10'000, 100'000};
  const std::vector<std::uint64_t> bare_depths = {1'000, 10'000, 100'000, 1'000'000};
  for (std::uint64_t depth : depths) {
    harness.run_case("churn/wheel/depth_" + std::to_string(depth),
                     [depth, kChurnOps] { return churn_at_depth(depth, kChurnOps); });
  }
  const std::uint64_t kBareOps = 1'000'000;
  for (std::uint64_t depth : bare_depths) {
    std::string suffix = "/depth_" + std::to_string(depth);
    harness.run_case("queue_only/wheel" + suffix,
                     [depth, kBareOps] { return queue_only_wheel(depth, kBareOps); });
    harness.run_case("queue_only/heap" + suffix,
                     [depth, kBareOps] { return queue_only_heap(depth, kBareOps); });
  }
  harness.run_case("outbreak_hold/wheel/depth_" + std::to_string(kOutbreakDepth),
                   outbreak_hold_once);
  harness.run_case("cancel_churn/wheel", [] { return cancel_churn(200, 1000); });
  harness.run_case("arena_cycle", arena_cycle);
  harness.run_case("rng/batched", rng_batched);
  harness.run_case("rng/unbatched", rng_unbatched);

  // Calendar-queue-vs-heap p50 speedups, the headline numbers for this bench.
  std::printf("\n%-28s %12s %12s %8s\n", "workload", "wheel p50 s", "heap p50 s", "speedup");
  for (std::uint64_t depth : bare_depths) {
    std::string suffix = "/depth_" + std::to_string(depth);
    double wheel = case_p50(harness.cases(), "queue_only/wheel" + suffix);
    double heap = case_p50(harness.cases(), "queue_only/heap" + suffix);
    std::printf("%-28s %12.6f %12.6f %7.2fx\n", ("queue_only" + suffix).c_str(), wheel, heap,
                wheel > 0.0 ? heap / wheel : 0.0);
  }
  {
    double batched = case_p50(harness.cases(), "rng/batched");
    double unbatched = case_p50(harness.cases(), "rng/unbatched");
    std::printf("%-28s %12.6f %12.6f %7.2fx\n", "rng (batched vs not)", batched, unbatched,
                batched > 0.0 ? unbatched / batched : 0.0);
  }

  {
    // The work behind the outbreak_hold timings: deterministic, so one
    // more run reproduces the counters of every timed one.
    des::CalendarQueue q;
    g_sink = static_cast<std::uint64_t>(bench_models::outbreak_hold(q, kOutbreakDepth, kOutbreakPops));
    const auto slices = static_cast<double>(q.slices_served());
    std::printf("\noutbreak_hold calendar counters: %llu slices served, %.2f entries/slice, "
                "%llu slice sorts, %llu refits, width %.4g min\n",
                static_cast<unsigned long long>(q.slices_served()),
                slices > 0.0 ? static_cast<double>(q.entries_served()) / slices : 0.0,
                static_cast<unsigned long long>(q.slice_sorts()),
                static_cast<unsigned long long>(q.refit_count()), q.bucket_width());
  }

  harness.write_report();
  return 0;
}
