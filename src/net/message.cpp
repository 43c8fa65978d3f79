#include "net/message.h"

#include <algorithm>

namespace mvsim::net {

std::size_t MmsMessage::valid_recipient_count() const {
  const std::span<const DialedRecipient> list = recipients();
  return static_cast<std::size_t>(
      std::count_if(list.begin(), list.end(), [](const DialedRecipient& r) { return r.valid; }));
}

}  // namespace mvsim::net
