// MMS message model.
//
// The simulator only carries the virus's MMS traffic (the paper's model
// "does not track the delivery of legitimate messages"); a message is a
// sender, a recipient list and an infected flag. Virus 3 dials random
// numbers of which only a fraction are live subscribers, so recipients
// carry a validity bit — invalid numbers consume the sender's sending
// budget and count toward provider-side message counters, but deliver
// nowhere (exactly the property that makes blacklisting potent against
// random-dialing viruses, §5.2).
//
// A message never owns heap storage for its recipients. One recipient
// (Virus 1, 3 and 4, and every cross-shard delivery) is held inline;
// longer lists (Virus 2 addresses up to 100 contacts) are borrowed from
// storage the caller keeps alive for the message's lifetime: the
// sender's reused recipient buffer at submission, a gateway transit
// block while the message is in flight. So a message is 32 bytes and
// copies into an event's inline capture.
#pragma once

#include <cstdint>
#include <span>

#include "util/ids.h"

namespace mvsim::net {

// Net-layer aliases of the one shared id vocabulary (util/ids.h);
// historically these were duplicate definitions twinned with
// graph::PhoneId.
using mvsim::PhoneId;
using mvsim::kInvalidPhoneId;
using mvsim::kInvalidMessageId;

/// One dialed destination of an MMS message.
struct DialedRecipient {
  PhoneId phone = 0;   ///< meaningful only when `valid`
  bool valid = true;   ///< false = dialed number is not a live subscriber
};

class MmsMessage {
 public:
  PhoneId sender = 0;
  bool infected = false;
  /// Monotone per-simulation sequence number (assigned by the Gateway).
  std::uint64_t sequence = 0;

  /// Makes `recipient` the only recipient, stored inline.
  void set_recipient(DialedRecipient recipient) {
    one_ = recipient;
    count_ = 1;
  }
  /// Borrows `recipients`, which must outlive every use of the message
  /// (a single recipient is copied inline instead).
  void set_recipients(std::span<DialedRecipient> recipients) {
    if (recipients.size() <= 1) {
      one_ = recipients.empty() ? DialedRecipient{} : recipients.front();
      count_ = static_cast<std::uint32_t>(recipients.size());
      return;
    }
    list_ = recipients.data();
    count_ = static_cast<std::uint32_t>(recipients.size());
  }

  [[nodiscard]] std::span<const DialedRecipient> recipients() const {
    return {count_ > 1 ? list_ : &one_, count_};
  }
  /// Mutable view: the gateway strikes recipients claimed by another
  /// shard from the local delivery.
  [[nodiscard]] std::span<DialedRecipient> recipients() {
    return {count_ > 1 ? list_ : &one_, count_};
  }

  [[nodiscard]] std::size_t valid_recipient_count() const;

 private:
  std::uint32_t count_ = 0;
  union {
    DialedRecipient one_{};   ///< count_ <= 1
    DialedRecipient* list_;   ///< count_ > 1: the borrowed list
  };
};
static_assert(sizeof(MmsMessage) == 32, "a transit event captures a message inline");

}  // namespace mvsim::net
