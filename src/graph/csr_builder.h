// Streaming CSR construction.
//
// A generator emits its edge sequence twice into CsrBuilder — count
// pass, then fill pass — instead of handing ContactGraph a
// ContactGraph::Edge vector. For stochastic generators the second
// emission replays the first bit-identically by running the count pass
// on a copy of the RNG stream and the fill pass on the real one
// (rng::Stream is a value type; copying captures the exact
// mid-sequence state).
//
// Usage:
//   CsrBuilder b(n);
//   for (edge e : sequence) b.count_edge(e.a, e.b);   // pass 1
//   b.begin_fill();
//   for (edge e : sequence) b.fill_edge(e.a, e.b);    // same sequence
//   ContactGraph g = std::move(b).finish(std::move(spent));
//
// The fill pass leaves each contact list in emission order. finish()
// sorts them without a comparison sort: it transposes the filled lists
// into a second buffer, appending each source to its neighbours' lists
// in ascending source order (one counting-sort pass per endpoint, i.e.
// a two-digit radix sort). A generator that kept its own edge list
// passes that spent buffer as the transpose target, so the build never
// holds more than two adjacency-size arrays, and the graph keeps one of
// them with no spare capacity. finish() also enforces the
// simple-graph invariants with the same std::invalid_argument contract
// as the ContactGraph edge-list constructor (self-loop, duplicate edge,
// endpoint out of range).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/contact_graph.h"

namespace mvsim::graph {

class CsrBuilder {
 public:
  explicit CsrBuilder(PhoneId node_count);

  /// Pass 1: tally one undirected edge. Validates endpoints eagerly so
  /// a bad edge is reported at its first appearance.
  void count_edge(PhoneId a, PhoneId b);

  /// Seals pass 1: prefix-sums the per-node counts and allocates the
  /// fill array. Throws std::length_error if the graph needs more than
  /// 2^32-1 adjacency entries (the documented 32-bit offset limit).
  void begin_fill();

  /// Pass 2: place one undirected edge. The fill sequence must repeat
  /// the count sequence (checked: a mismatch overruns a node's slot
  /// range and throws std::logic_error).
  void fill_edge(PhoneId a, PhoneId b);

  /// Transposes the filled lists into `target` (resized to the
  /// adjacency size; its old contents are ignored), so every contact
  /// list comes out sorted, rejects duplicate edges, and adopts the
  /// arrays into a ContactGraph. Passing a spent buffer whose capacity
  /// covers the adjacency avoids an allocation. The graph keeps
  /// whichever of `target` and the fill array has no spare capacity
  /// and the other is released. Consumes the builder.
  [[nodiscard]] ContactGraph finish(std::vector<PhoneId> target = {}) &&;

 private:
  void check_edge(PhoneId a, PhoneId b) const;

  PhoneId node_count_;
  bool filling_ = false;
  std::uint64_t edge_count_ = 0;
  // During pass 1 this holds per-node degree counts at [p + 1]; after
  // begin_fill it is the final offset array, with cursor_ tracking each
  // node's next free slot (in fill_ during pass 2, in the transpose
  // target during finish).
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> cursor_;
  std::vector<PhoneId> fill_;  ///< contact lists in emission order
};

}  // namespace mvsim::graph
