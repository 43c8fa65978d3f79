#include "core/simulation.h"

#include <stdexcept>

#include "core/topology_build.h"
#include "response/registry.h"
#include "rng/seed.h"

namespace mvsim::core {

Simulation::Simulation(const ScenarioConfig& config, std::uint64_t replication_seed,
                       trace::TraceBuffer* trace, des::EventTimer* event_timer,
                       des::QueueImpl /*des_impl*/, graph::GraphCache* graph_cache)
    : config_(config),
      topology_stream_(rng::derive_seed(replication_seed, kTopologyStream)),
      consent_(response::consent_for_suite(config.responses, config.eventual_acceptance)) {
  config.validate().throw_if_invalid();
  graph_ = resolve_topology(config_, replication_seed, topology_stream_, graph_cache);
  slice_ = std::make_unique<EngineSlice>(config_, *graph_, consent_, replication_seed,
                                         std::nullopt, event_timer, trace);
  phones_ = populate(config_, topology_stream_, slices());
}

Simulation::~Simulation() = default;

void Simulation::run_until(SimTime t) { slice_->scheduler().run_until(t); }

ReplicationResult Simulation::run() {
  if (ran_) throw std::logic_error("Simulation::run called twice");
  ran_ = true;
  run_until(config_.horizon);
  return result();
}

ReplicationResult Simulation::result() const {
  return assemble_result(slices(), topology_stream_, slice_->context().detector().detected_at());
}

metrics::Snapshot Simulation::collect_metrics() const { return result().metrics; }

bool prewarm_shared_graph(const ScenarioConfig& config, graph::GraphCache& cache) {
  if (!config.topology.shared_seed) return false;
  config.validate().throw_if_invalid();
  // The replication seed is irrelevant under shared_seed (the key is
  // derived from the shared seed alone); 0 stands in for it. The
  // topology stream here is a throwaway: shared-seed resolution never
  // touches it.
  rng::Stream scratch(topology_build_seed(config, 0));
  (void)resolve_topology(config, 0, scratch, &cache);
  return true;
}

}  // namespace mvsim::core
