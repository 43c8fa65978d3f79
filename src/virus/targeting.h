// Target selection strategies (paper §4.1: "the propagation process can
// identify new target phones either by using the contact lists of
// infected phones or by randomly selecting mobile phone numbers").
//
// Targeters write the next message's recipients into a buffer the
// caller owns and reuses, and hold no storage of their own: a contact
// list's permutation lives wherever the caller keeps it (the
// SenderTable's contact arena), and random dialing needs only the
// shared population parameters.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/message.h"
#include "rng/stream.h"

namespace mvsim::virus {

using net::DialedRecipient;
using net::PhoneId;

/// Round-robin over the infected phone's own permutation of its contact
/// list, reshuffling after each full pass. The cycle repeats forever:
/// real MMS worms (CommWarrior) keep re-spamming the same contacts, and
/// the paper's plateau math (eventual acceptance 0.40) depends on every
/// contact receiving "enough" messages.
class ContactListTargeter {
 public:
  ContactListTargeter() = default;
  /// `order` holds a copy of the contact list that the targeter permutes
  /// in place; it must outlive the targeter. Shuffles it once (the
  /// phone's first draw at infection).
  ContactListTargeter(std::span<PhoneId> order, rng::Stream& stream);

  /// Replaces `out` with up to `count` recipients (none only for an
  /// empty contact list). Never repeats a contact within one message.
  void next_targets(std::uint32_t count, rng::Stream& stream,
                    std::vector<DialedRecipient>& out);
  /// Distinct destinations before a repeat (the contact count).
  [[nodiscard]] std::size_t universe_size() const { return size_; }

 private:
  PhoneId* order_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cursor_ = 0;
};

/// Dials uniformly random numbers in the mobile prefix; a dialed number
/// is a live subscriber with probability `valid_fraction`, in which
/// case it maps to a uniformly random phone other than the sender.
class RandomDialTargeter {
 public:
  RandomDialTargeter(PhoneId population, double valid_fraction);

  /// Replaces `out` with `count` numbers dialed by phone `self`.
  void next_targets(PhoneId self, std::uint32_t count, rng::Stream& stream,
                    std::vector<DialedRecipient>& out) const;
  /// Effectively unbounded.
  [[nodiscard]] static std::size_t universe_size() { return SIZE_MAX; }

 private:
  PhoneId population_;
  double valid_fraction_;
};

}  // namespace mvsim::virus
