// Topology construction shared by the serial and sharded engines.
//
// Both engines must build byte-identical contact graphs from the same
// (config, replication seed) pair — the graph, the stream it consumes,
// and the GraphCache key all have to match or the sharded engine's
// initial conditions would silently drift from the serial ones. These
// helpers are that single source of truth.
#pragma once

#include <cstdint>
#include <memory>

#include "core/scenario.h"
#include "graph/contact_graph.h"
#include "graph/graph_cache.h"
#include "rng/stream.h"

namespace mvsim::core {

/// Sub-stream indices under the replication seed; distinct constants
/// keep every component's randomness independent of the others. The
/// sharded engine derives per-shard streams one level deeper:
/// derive_seed(derive_seed(replication_seed, shard-tag), index).
enum StreamIndex : std::uint64_t {
  kTopologyStream = 1,
  kUserStream = 2,
  kVirusStream = 3,
  kNetStream = 4,
  kResponseStream = 5,
  kMobilityStream = 6,
  kProximityStream = 7,
};

/// Builds the configured topology, consuming randomness from `stream`.
graph::ContactGraph build_graph_for(const ScenarioConfig& config, rng::Stream& stream);

/// Hash of every generator-relevant parameter: two configs with equal
/// hashes (and equal seeds) run bit-identical builds.
std::uint64_t topology_params_hash(const ScenarioConfig& config);

/// The seed the topology stream is (re)built from. With shared_seed
/// set, it is decoupled from the replication seed so every replication
/// resolves to the same graph; susceptible sampling and patient zero
/// still draw from the per-replication topology stream either way.
std::uint64_t topology_build_seed(const ScenarioConfig& config, std::uint64_t replication_seed);

graph::GraphCacheKey topology_cache_key(const ScenarioConfig& config,
                                        std::uint64_t replication_seed);

/// The shared build-or-fetch step both engines run: resolves the
/// replication's graph, routing through `graph_cache` when provided.
/// `topology_stream` is the replication's topology stream (already
/// seeded from the replication seed); on return it is positioned
/// exactly where a private, uncached, unshared build would have left
/// it — the continuation point susceptible sampling and patient zero
/// draw from (see graph::GraphCache for the cache-hit restore
/// contract).
std::shared_ptr<const graph::ContactGraph> resolve_topology(const ScenarioConfig& config,
                                                            std::uint64_t replication_seed,
                                                            rng::Stream& topology_stream,
                                                            graph::GraphCache* graph_cache);

}  // namespace mvsim::core
