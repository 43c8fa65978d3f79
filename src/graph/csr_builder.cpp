#include "graph/csr_builder.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace mvsim::graph {

CsrBuilder::CsrBuilder(PhoneId node_count) : node_count_(node_count) {
  offsets_.assign(static_cast<std::size_t>(node_count) + 1, 0);
}

void CsrBuilder::check_edge(PhoneId a, PhoneId b) const {
  if (a >= node_count_ || b >= node_count_) {
    throw std::invalid_argument("ContactGraph: edge endpoint out of range (" + std::to_string(a) +
                                "," + std::to_string(b) + ")");
  }
  if (a == b) {
    throw std::invalid_argument("ContactGraph: self-loop at phone " + std::to_string(a));
  }
}

void CsrBuilder::count_edge(PhoneId a, PhoneId b) {
  if (filling_) throw std::logic_error("CsrBuilder: count_edge after begin_fill");
  check_edge(a, b);
  ++offsets_[a + 1ULL];
  ++offsets_[b + 1ULL];
  ++edge_count_;
}

void CsrBuilder::begin_fill() {
  if (filling_) throw std::logic_error("CsrBuilder: begin_fill called twice");
  filling_ = true;
  if (2 * edge_count_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("CsrBuilder: adjacency exceeds 32-bit offset range");
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  fill_.resize(static_cast<std::size_t>(2 * edge_count_));
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
}

void CsrBuilder::fill_edge(PhoneId a, PhoneId b) {
  if (!filling_) throw std::logic_error("CsrBuilder: fill_edge before begin_fill");
  check_edge(a, b);
  std::uint32_t slot_a = cursor_[a]++;
  std::uint32_t slot_b = cursor_[b]++;
  if (slot_a >= offsets_[a + 1ULL] || slot_b >= offsets_[b + 1ULL]) {
    throw std::logic_error("CsrBuilder: fill sequence does not match count sequence");
  }
  fill_[slot_a] = b;
  fill_[slot_b] = a;
}

ContactGraph CsrBuilder::finish(std::vector<PhoneId> target) && {
  if (!filling_) {
    // A graph counted but never filled is only valid when empty.
    begin_fill();
  }
  for (PhoneId p = 0; p < node_count_; ++p) {
    if (cursor_[p] != offsets_[p + 1ULL]) {
      throw std::logic_error("CsrBuilder: fill sequence does not match count sequence");
    }
  }
  // Transpose: walk the filled lists in ascending source order and
  // append each source to its neighbours' lists, so every list comes
  // out sorted. Fill placed both ends of every edge, so list q receives
  // exactly deg(q) sources and the offsets carry over. The two copies
  // of a duplicate edge land next to each other in the target list.
  target.resize(fill_.size());
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (PhoneId p = 0; p < node_count_; ++p) {
    for (std::uint32_t i = offsets_[p]; i < offsets_[p + 1ULL]; ++i) {
      const PhoneId q = fill_[i];
      const std::uint32_t slot = cursor_[q]++;
      if (slot != offsets_[q] && target[slot - 1] == p) {
        throw std::invalid_argument("ContactGraph: duplicate edge at phone " + std::to_string(p));
      }
      target[slot] = p;
    }
  }
  if (target.capacity() != target.size()) {
    // A spent buffer with spare room would keep it for the graph's
    // lifetime; the fill array has the exact size, so move back there.
    std::copy(target.begin(), target.end(), fill_.begin());
    target.swap(fill_);
  }
  fill_ = {};
  cursor_ = {};
  return ContactGraph(std::move(offsets_), std::move(target));
}

}  // namespace mvsim::graph
