// MMS gateway: the service-provider infrastructure every message
// transits.
//
// The gateway is the paper's "point of reception" response location and
// also the vantage point from which a provider observes traffic (the
// "point of dissemination" mechanisms consume its per-send
// notifications). It is deliberately mechanism-agnostic: response
// mechanisms plug in as DeliveryFilters (may block a message in
// transit) and GatewayObservers (see every submission); the phone-side
// sending process consults OutgoingMmsPolicys (may delay or block a
// phone's sends at the source).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "des/scheduler.h"
#include "net/message.h"
#include "rng/stream.h"
#include "util/sim_time.h"

namespace mvsim::net {

/// A reception-point mechanism: decides whether a message in transit is
/// delivered. Filters run in registration order; the first Block wins.
class DeliveryFilter {
 public:
  virtual ~DeliveryFilter() = default;
  enum class Decision { kDeliver, kBlock };
  [[nodiscard]] virtual Decision inspect(const MmsMessage& message, SimTime now) = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Observes every message submission (before filtering), delivery and
/// block. Dissemination-point mechanisms and the detectability monitor
/// are observers.
class GatewayObserver {
 public:
  virtual ~GatewayObserver() = default;
  /// A phone handed a message to the network (even if every recipient
  /// is an invalid number or a filter later blocks it).
  virtual void on_submitted(const MmsMessage& message, SimTime now) = 0;
  /// A filter blocked the message; `blocked_by` is the filter's name()
  /// (the mechanism's registry name), valid only for the call's duration.
  virtual void on_blocked(const MmsMessage& message, const char* blocked_by, SimTime now) {
    (void)message;
    (void)blocked_by;
    (void)now;
  }
  /// The message reached a valid recipient (once per recipient, at
  /// delivery time, after the transit delay).
  virtual void on_delivered(PhoneId recipient, const MmsMessage& message, SimTime now) {
    (void)recipient;
    (void)message;
    (void)now;
  }
};

/// A dissemination-point policy consulted by sending phones.
class OutgoingMmsPolicy {
 public:
  virtual ~OutgoingMmsPolicy() = default;
  /// True if `phone` is barred from sending MMS entirely (blacklist).
  [[nodiscard]] virtual bool is_blocked(PhoneId phone, SimTime now) const = 0;
  /// Extra minimum gap imposed between consecutive sends from `phone`
  /// (monitoring's forced wait); zero when the phone is not flagged.
  [[nodiscard]] virtual SimTime forced_min_gap(PhoneId phone, SimTime now) const = 0;
};

/// Routes recipients that live on another shard of a sharded run (see
/// docs/parallelism.md). The serial engine never sets one; with no
/// router the gateway behaves exactly as before.
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;
  /// Extra transit latency every cross-shard recipient pays on top of
  /// the sampled delivery delay. This is the conservative-lookahead
  /// floor: it must be >= the synchronization window so a routed
  /// delivery can never land inside the window that produced it.
  [[nodiscard]] virtual SimTime remote_extra_latency() const = 0;
  /// Claims `recipient` if it is owned by another shard: the router
  /// enqueues the delivery (timestamped `deliver_at`) into that shard's
  /// mailbox and returns true; returns false for local recipients,
  /// which the gateway then delivers through its normal transit event.
  virtual bool route_remote(PhoneId recipient, const MmsMessage& message,
                            SimTime deliver_at) = 0;
};

/// Statistics the gateway keeps; exposed to metrics and tests.
struct GatewayCounters {
  std::uint64_t messages_submitted = 0;
  std::uint64_t infected_messages_submitted = 0;
  std::uint64_t messages_blocked = 0;
  std::uint64_t recipients_delivered = 0;
  std::uint64_t invalid_recipients_dropped = 0;
};

class Gateway {
 public:
  /// Called once per (message, valid recipient) at delivery time.
  using DeliveryCallback = std::function<void(PhoneId recipient, const MmsMessage& message)>;

  /// `delivery_delay_mean` models transit latency through the provider
  /// network (exponential); must be positive.
  Gateway(des::Scheduler& scheduler, rng::Stream& stream, SimTime delivery_delay_mean);

  /// Non-owning registration; callers keep the objects alive for the
  /// gateway's lifetime (the Simulation owns both).
  void add_filter(DeliveryFilter& filter);
  void add_observer(GatewayObserver& observer);

  void set_delivery_callback(DeliveryCallback callback);

  /// Sharded runs only: recipients the router claims are handed to it
  /// (bound for another shard's mailbox) instead of the local transit
  /// event. Null (the default) keeps the classic single-engine path.
  void set_shard_router(ShardRouter* router) { router_ = router; }

  /// A phone hands a message to the network. The gateway notifies
  /// observers, runs the filter chain and schedules delivery to each
  /// valid recipient after a random transit delay.
  void submit(MmsMessage message);

  [[nodiscard]] const GatewayCounters& counters() const { return counters_; }

 private:
  /// Transit blocks of size class c hold 2^c recipients.
  [[nodiscard]] static std::size_t size_class_of(std::size_t count);
  /// Copies a multi-recipient list into a transit block.
  std::span<DialedRecipient> stash_recipients(std::span<const DialedRecipient> recipients);
  /// The transit event's body: hands each valid recipient to the
  /// delivery callback and the observers.
  void deliver(const MmsMessage& message);

  des::Scheduler* scheduler_;
  rng::Stream* stream_;
  SimTime delivery_delay_mean_;
  std::vector<DeliveryFilter*> filters_;
  std::vector<GatewayObserver*> observers_;
  DeliveryCallback deliver_;
  ShardRouter* router_ = nullptr;
  GatewayCounters counters_;
  std::uint64_t next_sequence_ = 0;
  // Recipient lists of multi-recipient messages in flight (a single
  // recipient rides inline in the transit event). A list of n takes a
  // block of the next power of two, carved from 32 KiB chunks and
  // recycled through one free list per size class, so transit
  // allocates a chunk now and then, never per message.
  static constexpr std::size_t kTransitChunk = 4096;  // recipients
  std::vector<std::unique_ptr<DialedRecipient[]>> transit_chunks_;
  DialedRecipient* chunk_next_ = nullptr;
  std::size_t chunk_left_ = 0;
  std::vector<std::vector<DialedRecipient*>> free_blocks_;  // by size class
};

}  // namespace mvsim::net
