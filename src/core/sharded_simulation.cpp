#include "core/sharded_simulation.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>

#include "core/topology_build.h"
#include "prof/profiler.h"
#include "response/registry.h"
#include "rng/seed.h"

namespace mvsim::core {

namespace {

constexpr double kEventCountBounds[] = {1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8};
constexpr double kBarrierWaitBounds[] = {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0};

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

ShardedSimulation::ShardedSimulation(const ScenarioConfig& config,
                                     std::uint64_t replication_seed,
                                     const ShardingOptions& options,
                                     des::QueueImpl /*des_impl*/,
                                     graph::GraphCache* graph_cache)
    : config_(config),
      options_(options),
      window_(options.window > SimTime::zero() ? options.window : config.delivery_delay_mean),
      topology_stream_(rng::derive_seed(replication_seed, kTopologyStream)),
      consent_(response::consent_for_suite(config.responses, config.eventual_acceptance)),
      mailbox_(std::max(1u, options.shards)) {
  config.validate().throw_if_invalid();
  if (options_.shards == 0) {
    throw std::invalid_argument("ShardedSimulation: shards must be >= 1");
  }
  if (config_.proximity) {
    throw std::invalid_argument(
        "ShardedSimulation: proximity (Bluetooth) scenarios are not shardable — "
        "proximity contacts ignore the graph partition; run with --shards 1");
  }
  if (!(window_ > SimTime::zero())) {
    throw std::invalid_argument("ShardedSimulation: window must be positive");
  }
  workers_ = options_.worker_threads > 0
                 ? std::min<int>(options_.worker_threads, static_cast<int>(options_.shards))
                 : static_cast<int>(options_.shards);

  // Topology, susceptible sampling and patient zero consume the SAME
  // topology-stream sequence as the serial engine, so a sharded run
  // starts from the exact initial conditions (graph, susceptible set,
  // patient zeros) of the serial run with the same seed — only process
  // noise and cross-shard latency differ (docs/parallelism.md).
  graph_ = resolve_topology(config_, replication_seed, topology_stream_, graph_cache);
  partition_ = std::make_unique<graph::Partition>(
      graph::Partition::degree_balanced(*graph_, options_.shards));

  lanes_.resize(options_.shards);
  slices_.reserve(options_.shards);
  for (std::uint32_t s = 0; s < options_.shards; ++s) {
    if (options_.profile) lanes_[s].profiler = std::make_unique<prof::Profiler>();
    slices_.push_back(std::make_unique<EngineSlice>(
        config_, *graph_, consent_, replication_seed,
        EngineSlice::Shard{s, partition_.get(), &mailbox_, window_}, lanes_[s].profiler.get(),
        options_.trace));
  }
  phones_ = populate(config_, topology_stream_, slices());
  // Threshold 0: every slice scheduled its own crossing at t = 0 (see
  // EngineSlice::attach), so the coordinator has nothing to wait for.
  if (config_.responses.detectability_threshold == 0) record_detection(SimTime::zero());
}

ShardedSimulation::~ShardedSimulation() = default;

void ShardedSimulation::exchange_mailboxes() {
  // Drain is cheap on purpose: the coordinator only stages the entries;
  // each destination's worker schedules them at its next window start
  // (flush_staged), keeping the serial section between barriers
  // O(entries copied) rather than O(entries scheduled).
  for (std::uint32_t dst = 0; dst < options_.shards; ++dst) {
    Lane& lane = lanes_[dst];
    mailbox_.drain_to(
        dst, [&lane](const net::CrossShardDelivery& d) { lane.staged.push_back(d); });
  }
}

void ShardedSimulation::check_detectability(SimTime window_end) {
  if (detected_at_ != SimTime::infinity()) return;
  std::uint64_t seen = 0;
  for (const auto& slice : slices_) seen += slice->context().detector().infected_messages_seen();
  if (seen < config_.responses.detectability_threshold) return;
  record_detection(window_end);
  // The crossing executes as an event at the barrier time in every
  // shard, so mechanism reactions (scan activation, immunization
  // development, ...) are ordinary events on the owning scheduler. Like
  // the mailbox entries it is staged here and scheduled by the owning
  // worker at the next window start.
  for (Lane& lane : lanes_) lane.pending_detect = window_end;
}

void ShardedSimulation::record_detection(SimTime at) {
  detected_at_ = at;
  if (options_.trace != nullptr) {
    // Coordinator-level event: the crossing is a global, barrier-
    // quantized decision, so it belongs to no shard (kNoShard).
    trace::Event event;
    event.time = at;
    event.kind = trace::EventKind::kDetectabilityCrossed;
    engine_trace_.record(std::move(event));
  }
}

std::uint64_t ShardedSimulation::events_executed_total() const {
  std::uint64_t total = 0;
  for (const auto& slice : slices_) total += slice->scheduler().executed_count();
  return total;
}

ShardedSimulation::ShardWindowSample ShardedSimulation::sample_window(
    SimTime window_end, double barrier_wait_ms,
    std::chrono::steady_clock::time_point barrier_release) const {
  ShardWindowSample sample;
  sample.window_end = window_end;
  sample.horizon = config_.horizon;
  sample.barrier_wait_ms = barrier_wait_ms;
  sample.mailbox_sent = mailbox_.pushed_total();
  sample.mailbox_received = mailbox_.drained_total();
  const bool threaded = barrier_release != std::chrono::steady_clock::time_point{};
  sample.shards.reserve(slices_.size());
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    const EngineSlice& slice = *slices_[s];
    ShardWindowSample::PerShard per;
    per.events_executed = slice.scheduler().executed_count();
    per.queue_depth = slice.scheduler().pending_count();
    if (threaded) {
      per.barrier_wait_ms =
          std::max(0.0, ms_between(lanes_[s].window_finished, barrier_release));
    }
    sample.events_executed += per.events_executed;
    sample.queue_depth += per.queue_depth;
    sample.infected += slice.infected_count();
    sample.patched += slice.patched_infected() + slice.immunized_healthy();
    sample.messages_blocked += slice.gateway().counters().messages_blocked;
    sample.shards.push_back(per);
  }
  return sample;
}

bool ShardedSimulation::quiescent() const {
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    if (slices_[s]->scheduler().pending_count() != 0) return false;
    if (!lanes_[s].staged.empty() || lanes_[s].pending_detect) return false;
  }
  return mailbox_.empty();
}

void ShardedSimulation::flush_staged(std::size_t s) {
  Lane& lane = lanes_[s];
  EngineSlice& slice = *slices_[s];
  for (const net::CrossShardDelivery& d : lane.staged) slice.deliver_remote(d);
  lane.staged.clear();
  if (lane.pending_detect) {
    slice.schedule_detection(*lane.pending_detect);
    lane.pending_detect.reset();
  }
}

void ShardedSimulation::run_shard(std::size_t s, SimTime until) {
  flush_staged(s);
  Lane& lane = lanes_[s];
  des::Scheduler& scheduler = slices_[s]->scheduler();
  if (lane.profiler) {
    const auto begin = std::chrono::steady_clock::now();
    scheduler.run_until(until);
    lane.window_finished = std::chrono::steady_clock::now();
    lane.profiler->record_shard_window(
        std::chrono::duration<double, std::micro>(lane.window_finished - begin).count());
  } else {
    scheduler.run_until(until);
    // The finish stamp feeds the stats stream's per-shard barrier
    // waits; skip the clock read when nobody consumes it.
    if (stats_observer_) lane.window_finished = std::chrono::steady_clock::now();
  }
}

namespace {

/// Persistent worker pool for one run(): worker j steps shards j, j+W,
/// j+2W, ... (static assignment keeps per-shard cache state warm and
/// the execution schedule deterministic — not that determinism needs
/// it: shards share no mutable state within a window). Two barriers
/// frame each window; the main thread does the exchange work between
/// frames.
class WindowPool {
 public:
  using Step = std::function<void(std::size_t shard, SimTime until)>;

  WindowPool(std::size_t shards, int workers, Step step)
      : shards_(shards),
        workers_(workers),
        step_(std::move(step)),
        start_(workers + 1),
        done_(workers + 1),
        errors_(static_cast<std::size_t>(workers)) {
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int j = 0; j < workers; ++j) {
      threads_.emplace_back([this, j] { worker_loop(j); });
    }
  }

  ~WindowPool() {
    stop_ = true;
    start_.arrive_and_wait();  // release workers into the stop check
    for (auto& t : threads_) t.join();
  }

  /// Runs every shard to `until`; returns the milliseconds the main
  /// thread spent waiting on the completion barrier (the straggler
  /// stall the shard.barrier_wait_ms series reports).
  double run_window(SimTime until) {
    target_ = until;
    start_.arrive_and_wait();
    const auto wait_begin = std::chrono::steady_clock::now();
    done_.arrive_and_wait();
    const double waited = ms_between(wait_begin, std::chrono::steady_clock::now());
    for (auto& error : errors_) {
      if (error) {
        std::exception_ptr e = error;
        error = nullptr;
        std::rethrow_exception(e);
      }
    }
    return waited;
  }

 private:
  void worker_loop(int j) {
    while (true) {
      start_.arrive_and_wait();
      if (stop_) return;
      try {
        for (std::size_t s = static_cast<std::size_t>(j); s < shards_;
             s += static_cast<std::size_t>(workers_)) {
          step_(s, target_);
        }
      } catch (...) {
        errors_[static_cast<std::size_t>(j)] = std::current_exception();
      }
      done_.arrive_and_wait();
    }
  }

  std::size_t shards_;
  int workers_;
  Step step_;
  std::barrier<> start_;
  std::barrier<> done_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;
  SimTime target_ = SimTime::zero();
  bool stop_ = false;
};

}  // namespace

ReplicationResult ShardedSimulation::run() {
  if (ran_) throw std::logic_error("ShardedSimulation::run called twice");
  ran_ = true;

  std::unique_ptr<WindowPool> pool;
  if (workers_ > 1) {
    pool = std::make_unique<WindowPool>(slices_.size(), workers_,
                                        [this](std::size_t s, SimTime until) {
                                          run_shard(s, until);
                                        });
  }

  const SimTime horizon = config_.horizon;
  SimTime t = SimTime::zero();
  while (t < horizon) {
    const SimTime window_end = min(t + window_, horizon);
    double waited_ms = 0.0;
    std::chrono::steady_clock::time_point barrier_release{};
    if (pool) {
      waited_ms = pool->run_window(window_end);
      barrier_release = std::chrono::steady_clock::now();
      barrier_wait_ms_.push_back(waited_ms);
    } else {
      for (std::size_t s = 0; s < slices_.size(); ++s) run_shard(s, window_end);
    }
    t = window_end;
    ++windows_stepped_;
    exchange_mailboxes();
    check_detectability(window_end);
    if (window_observer_) window_observer_(window_end, horizon, events_executed_total());
    // Dead epidemic: no pending events anywhere and nothing in flight
    // between shards — every later window would be a no-op barrier.
    const bool quiet = quiescent();
    if (stats_observer_) {
      ShardWindowSample sample = sample_window(window_end, waited_ms, barrier_release);
      sample.last = quiet || !(window_end < horizon);
      stats_observer_(sample);
    }
    if (quiet) break;
  }
  pool.reset();

  // Tail pass (single-threaded; a handful of events at most): clocks
  // advance to the horizon, entries timestamped exactly at the horizon
  // fire — the serial engine would have fired those too — and whatever
  // they produce is exchanged and scheduled once more so it sits in the
  // queues just like any other never-reached post-horizon event.
  for (std::size_t s = 0; s < slices_.size(); ++s) run_shard(s, horizon);
  exchange_mailboxes();
  for (std::size_t s = 0; s < slices_.size(); ++s) flush_staged(s);

  ReplicationResult r = assemble_result(slices(), topology_stream_, detected_at_);

  // The engine layers its own series on top of the merged slice
  // telemetry: the shard.* group and the per-shard profiles.
  metrics::Registry engine;
  engine.gauge("shard.count").set(options_.shards);
  engine.counter("shard.windows").add(windows_stepped_);
  engine.counter("shard.mailbox.sent").add(mailbox_.pushed_total());
  engine.counter("shard.mailbox.received").add(mailbox_.drained_total());
  auto& events_hist = engine.histogram("shard.events_executed", kEventCountBounds);
  for (const auto& slice : slices_) {
    events_hist.record(static_cast<double>(slice->scheduler().executed_count()));
  }
  auto& wait_hist = engine.histogram("shard.barrier_wait_ms", kBarrierWaitBounds);
  for (double ms : barrier_wait_ms_) wait_hist.record(ms);
  r.metrics.merge(engine.snapshot());
  // Profiler histograms merge commutatively, like any other instrument —
  // the merged profile is shard-order-independent.
  for (const Lane& lane : lanes_) {
    if (lane.profiler) r.metrics.merge(lane.profiler->snapshot());
  }

  if (options_.trace != nullptr) {
    // Deterministic (time, shard) merge of the per-shard buffers plus
    // the coordinator's own events; replaces the caller's buffer.
    std::vector<const trace::TraceBuffer*> buffers;
    buffers.reserve(slices_.size() + 1);
    for (const auto& slice : slices_) buffers.push_back(slice->trace());
    buffers.push_back(&engine_trace_);
    *options_.trace = trace::TraceBuffer::merge_shards(buffers);
  }
  return r;
}

}  // namespace mvsim::core
