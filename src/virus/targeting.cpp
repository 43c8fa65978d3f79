#include "virus/targeting.h"

#include <stdexcept>

namespace mvsim::virus {

ContactListTargeter::ContactListTargeter(std::span<PhoneId> order, rng::Stream& stream)
    : order_(order.data()), size_(static_cast<std::uint32_t>(order.size())) {
  stream.shuffle(order);
}

void ContactListTargeter::next_targets(std::uint32_t count, rng::Stream& stream,
                                       std::vector<DialedRecipient>& out) {
  out.clear();
  // One message never addresses the same contact twice, so a single
  // message covers at most the whole contact list.
  const std::uint32_t take = count < size_ ? count : size_;
  for (std::uint32_t i = 0; i < take; ++i) {
    if (cursor_ == size_) {
      stream.shuffle(std::span<PhoneId>(order_, size_));
      cursor_ = 0;
    }
    out.push_back(DialedRecipient{order_[cursor_++], true});
  }
}

RandomDialTargeter::RandomDialTargeter(PhoneId population, double valid_fraction)
    : population_(population), valid_fraction_(valid_fraction) {
  if (population < 2) throw std::invalid_argument("RandomDialTargeter: population must be >= 2");
  if (!(valid_fraction > 0.0) || valid_fraction > 1.0) {
    throw std::invalid_argument("RandomDialTargeter: valid_fraction must be in (0, 1]");
  }
}

void RandomDialTargeter::next_targets(PhoneId self, std::uint32_t count, rng::Stream& stream,
                                      std::vector<DialedRecipient>& out) const {
  out.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!stream.bernoulli(valid_fraction_)) {
      out.push_back(DialedRecipient{0, false});
      continue;
    }
    // Uniform over live subscribers other than the dialer itself.
    auto pick = static_cast<PhoneId>(stream.uniform_index(population_ - 1));
    if (pick >= self) ++pick;
    out.push_back(DialedRecipient{pick, true});
  }
}

}  // namespace mvsim::virus
