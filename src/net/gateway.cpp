#include "net/gateway.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace mvsim::net {

Gateway::Gateway(des::Scheduler& scheduler, rng::Stream& stream, SimTime delivery_delay_mean)
    : scheduler_(&scheduler), stream_(&stream), delivery_delay_mean_(delivery_delay_mean) {
  if (!(delivery_delay_mean > SimTime::zero())) {
    throw std::invalid_argument("Gateway: delivery_delay_mean must be positive");
  }
}

void Gateway::add_filter(DeliveryFilter& filter) { filters_.push_back(&filter); }

void Gateway::add_observer(GatewayObserver& observer) { observers_.push_back(&observer); }

void Gateway::set_delivery_callback(DeliveryCallback callback) {
  deliver_ = std::move(callback);
}

void Gateway::submit(MmsMessage message) {
  message.sequence = next_sequence_++;
  const SimTime now = scheduler_->now();

  ++counters_.messages_submitted;
  if (message.infected) ++counters_.infected_messages_submitted;
  for (GatewayObserver* obs : observers_) obs->on_submitted(message, now);

  for (DeliveryFilter* filter : filters_) {
    if (filter->inspect(message, now) == DeliveryFilter::Decision::kBlock) {
      ++counters_.messages_blocked;
      for (GatewayObserver* obs : observers_) obs->on_blocked(message, filter->name(), now);
      return;
    }
  }

  if (!deliver_) return;  // no subscriber (unit tests exercising counters only)

  // One transit event per message; recipients share the transit delay.
  // Invalid numbers are dropped here — the provider's switch discovers
  // at routing time that the dialed number has no subscriber.
  std::size_t valid = message.valid_recipient_count();
  counters_.invalid_recipients_dropped +=
      static_cast<std::uint64_t>(message.recipients().size() - valid);
  if (valid == 0) return;
  counters_.recipients_delivered += valid;

  SimTime delay = stream_->exponential(delivery_delay_mean_);

  // Sharded runs: recipients owned by other shards leave through the
  // router (mailbox + lookahead latency) and are struck from the local
  // transit event. The delay draw above happens either way, so the RNG
  // sequence — and with it the shards-1 golden gate — is unchanged.
  if (router_ != nullptr) {
    const SimTime remote_at = scheduler_->now() + delay + router_->remote_extra_latency();
    std::size_t local = 0;
    for (DialedRecipient& r : message.recipients()) {
      if (!r.valid) continue;
      if (router_->route_remote(r.phone, message, remote_at)) {
        r.valid = false;  // claimed; the local event skips it
      } else {
        ++local;
      }
    }
    if (local == 0) return;
  }

  // The message fits EventFn's inline buffer, so a one-recipient
  // transit event costs no allocation; a longer list moves into a
  // recycled transit block.
  if (message.recipients().size() == 1) {
    scheduler_->schedule_after(delay, des::EventType::kMessageDelivery,
                               [this, message] { deliver(message); });
    return;
  }
  message.set_recipients(stash_recipients(message.recipients()));
  scheduler_->schedule_after(delay, des::EventType::kMessageDelivery,
                             [this, message]() mutable {
    deliver(message);
    const std::span<DialedRecipient> block = message.recipients();
    free_blocks_[size_class_of(block.size())].push_back(block.data());
  });
}

std::size_t Gateway::size_class_of(std::size_t count) {
  return static_cast<std::size_t>(std::bit_width(count - 1));
}

std::span<DialedRecipient> Gateway::stash_recipients(
    std::span<const DialedRecipient> recipients) {
  const std::size_t size_class = size_class_of(recipients.size());
  if (size_class >= free_blocks_.size()) free_blocks_.resize(size_class + 1);
  std::vector<DialedRecipient*>& free = free_blocks_[size_class];
  DialedRecipient* block = nullptr;
  if (!free.empty()) {
    block = free.back();
    free.pop_back();
  } else {
    const std::size_t capacity = std::size_t{1} << size_class;
    if (capacity > chunk_left_) {
      // The rest of the current chunk is dropped; a list longer than a
      // chunk gets a chunk of its own.
      const std::size_t chunk = std::max(capacity, kTransitChunk);
      transit_chunks_.push_back(std::make_unique_for_overwrite<DialedRecipient[]>(chunk));
      chunk_next_ = transit_chunks_.back().get();
      chunk_left_ = chunk;
    }
    block = chunk_next_;
    chunk_next_ += capacity;
    chunk_left_ -= capacity;
  }
  std::copy(recipients.begin(), recipients.end(), block);
  return {block, recipients.size()};
}

void Gateway::deliver(const MmsMessage& message) {
  const SimTime at = scheduler_->now();
  for (const DialedRecipient& r : message.recipients()) {
    if (r.valid) {
      deliver_(r.phone, message);
      for (GatewayObserver* obs : observers_) obs->on_delivered(r.phone, message, at);
    }
  }
}

}  // namespace mvsim::net
