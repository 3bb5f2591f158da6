// DFS-based stochastic routing after Hua & Pei (EDBT 2010) [10] — the
// routing algorithm the paper integrates its estimator into (Sec. 4.3,
// Fig. 18): find the path that maximizes the probability of arriving
// within a travel-time budget.
//
// The search explores simple paths depth-first, extending "path + another
// edge" with an IncrementalEstimator, and prunes a prefix when even its
// fastest possible completion (prefix support minimum + admissible
// reverse-Dijkstra lower bound to the destination) exceeds the budget.
#pragma once

#include <cstddef>
#include <vector>

#include "common/cancel_token.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/estimator.h"
#include "roadnet/graph.h"
#include "roadnet/shortest_path.h"
#include "routing/pruning.h"

namespace pcde {
namespace routing {

struct RouterConfig {
  /// Safety factor (< 1) on free-flow edge times for the admissible lower
  /// bound; sampled travel can beat the speed limit slightly.
  double lower_bound_factor = 0.8;
  /// Hard cap on DFS expansions; the search space of simple paths within a
  /// generous budget is exponential (also true of [10]).
  size_t max_expansions = 500000;
  size_t max_path_edges = 150;
  /// Worker threads for the root fan-out (the DFS subtrees under distinct
  /// first edges run as parallel pool tasks); 0 = hardware concurrency.
  size_t num_threads = 0;
  /// External pool for the root fan-out (not owned): amortizes thread
  /// start-up across Route calls — serving::Engine passes its shared pool
  /// here. When set, `num_threads` only gates the fan-out decision
  /// (1 = run sequentially, skipping the pool entirely).
  ThreadPool* pool = nullptr;
  /// Optional shared result cache (not owned): complete candidate paths are
  /// looked up by decomposition identity before finalizing the chain state,
  /// so repeated Route() calls over the same region (multi-user serving)
  /// reuse each other's sub-path distributions. Must be backed by the same
  /// weight function as the router. nullptr disables caching.
  core::QueryCache* query_cache = nullptr;
  /// Opt-in search pruners (routing/pruning.h). All default off, which is
  /// bit-identical to the pre-pruning router. With num_threads == 1,
  /// incumbent and dominance pruning return exactly the same
  /// (path, probability) as the plain search; cheap_first (an exploration
  /// reorder) and the parallel fan-out preserve the probability exactly
  /// but may resolve an exact probability tie to a different equally-good
  /// path.
  PruningOptions pruning;
  /// Expansion slots a branch reserves from the shared budget per
  /// fetch_add (clamped internally to max_expansions / 8 + 1 so small
  /// caps still truncate near the cap). 1 reproduces the per-node
  /// fetch_add of the baseline.
  size_t expansion_stride = 64;
};

struct RouteResult {
  roadnet::Path best_path;
  double best_probability = 0.0;  // P(travel time <= budget)
  size_t expansions = 0;
  size_t candidate_paths = 0;     // complete paths whose distribution was
                                  // evaluated
  bool truncated = false;         // expansion cap hit
  /// Per-pruner attribution counters (summed over root branches).
  /// bound_pruned counts admissible free-flow bound cuts (always active);
  /// the other cut counters stay zero unless their pruner is enabled.
  uint64_t bound_pruned = 0;
  uint64_t incumbent_pruned = 0;
  uint64_t dominance_pruned = 0;
  /// IncrementalEstimator copies actually paid (pruned edges never clone).
  uint64_t estimator_clones = 0;
};

/// \brief Probabilistic budget routing with a pluggable cost-distribution
/// estimator (LB / HP / OD — Fig. 18 compares them by total routing time).
class DfsStochasticRouter {
 public:
  DfsStochasticRouter(const roadnet::Graph& graph,
                      const core::PathWeightFunction& wp,
                      core::EstimateOptions estimate_options,
                      RouterConfig config = RouterConfig());

  /// Finds the path from `from` to `to`, departing at `departure_time`,
  /// with the highest probability of total travel time <= `budget_seconds`.
  /// Returns NotFound when no path can make the budget.
  ///
  /// `cancel` (optional) is polled once per DFS expansion across every root
  /// branch; a tripped token makes the whole search unwind with the token's
  /// Status (kDeadlineExceeded / kCancelled) — never a partial best-path —
  /// with overshoot bounded by one expansion (one estimator extension +
  /// one candidate distribution).
  ///
  /// `pruning_override` (optional) replaces `config.pruning` for this call
  /// only — serving::Engine uses it for per-request pruning knobs.
  StatusOr<RouteResult> Route(roadnet::VertexId from, roadnet::VertexId to,
                              double departure_time, double budget_seconds,
                              const CancelToken* cancel = nullptr,
                              const PruningOptions* pruning_override =
                                  nullptr) const;

 private:
  const roadnet::Graph& graph_;
  const core::PathWeightFunction& wp_;
  core::EstimateOptions estimate_options_;
  RouterConfig config_;
  /// Shared lower-bound oracle (built once in the constructor): per edge,
  /// the larger of factor * free-flow and the minimum support cost over
  /// the edge's unit variables — still admissible, usually much tighter.
  /// Route() runs its reverse Dijkstra over these weights when incumbent
  /// or dominance pruning is on; cuts from the tighter bound remove only
  /// zero-probability completions, so route quality is unchanged.
  std::vector<double> oracle_weight_seconds_;
};

}  // namespace routing
}  // namespace pcde
