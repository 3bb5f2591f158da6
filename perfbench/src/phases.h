// The benchmark's operation phases. A Context holds one seeded world, its
// simulated trips and the model built from them; each Phase generates the
// inputs of one kind of operation over a Context, runs them as whole
// rounds (untraced, for the end-to-end metrics), checks the program's
// outputs against the reference computations, and runs them once traced,
// replaying each request through the layer functions the engine calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/params.h"
#include "core/weight_function.h"
#include "inputs.h"
#include "serving/engine.h"
#include "trace.h"

namespace perfbench {

/// Fixed sizes of the inputs (README "Inputs").
struct Sizes {
  size_t trips = 2000;             // trip history of the served model
  size_t refresh_sets = 8;         // generations the build workload rebuilds
  size_t refresh_new_trips = 100;  // new trips per generation, replacing
                                   // the history's oldest
  size_t beta = 20;                // qualified-trajectory threshold
  size_t eval_requests = 200;      // CRPS / on-time evaluation subset
  size_t eval_samples = 200;       // simulator samples per evaluated request
  size_t budget_samples = 32;      // simulator samples behind a request budget
};

/// One model build: the offline pipeline's products.
struct BuiltModel {
  std::shared_ptr<const pcde::core::PathWeightFunction> model;
  size_t unit_from_trajectories = 0;
  size_t unit_from_speed_limit = 0;
  std::string artifact;
  double artifact_mb = 0.0;
};

/// trips -> TrajectoryStore -> instantiation -> freeze -> binary save. With
/// a tracer, records traj.store / core.instantiate / core.freeze /
/// core.save spans and replays the histogram fits (hist.fit_unit /
/// hist.fit_joint) over windows the benchmark gathers itself.
pcde::StatusOr<BuiltModel> BuildModel(
    const World& world, const std::vector<pcde::traj::MatchedTrajectory>& trips,
    const pcde::core::HybridParams& params, const std::string& artifact,
    Tracer* tracer);

/// Everything a phase runs against.
struct Context {
  uint64_t seed = 0;
  std::string workdir;
  Sizes sizes;
  pcde::core::HybridParams params;
  std::unique_ptr<World> world;
  std::vector<pcde::traj::MatchedTrajectory> trips;
  BuiltModel built;
  double build_seconds = 0.0;  // store .. save + engine open
  std::vector<size_t> edge_traversals;
};

/// World + simulated trips + model + one engine open, recorded into
/// `tracer` when given (traj.generate, the BuildModel spans, core.load).
pcde::Status SetupContext(Context* ctx, Tracer* tracer);

/// Engine options shared by every phase: the context's graph and the
/// given pool size and query-cache budget.
pcde::serving::EngineOptions BaseEngineOptions(const Context& ctx,
                                               size_t num_threads,
                                               size_t cache_bytes);

struct RoundStats {
  /// Latency quantiles are taken per block of kBlock consecutive calls
  /// (p99 then has 10 calls beyond it) and reported as the median over the
  /// blocks, which a passing stall on the host does not move. Memory stays
  /// flat however many rounds run, so peak RSS does not depend on speed.
  static constexpr size_t kBlock = 1000;
  void AddLatency(double seconds);
  /// q = 0.5 or 0.99, in seconds.
  double LatencyQuantile(double q);
  uint64_t calls = 0;
  double call_seconds = 0.0;  // summed over every call

  /// Throughput of each fixed-size chunk of the stream; the run reports
  /// their median.
  std::vector<double> chunk_rates;
  uint64_t ops = 0;
  uint64_t failed = 0;
  void AddChunk(uint64_t chunk_ops, double seconds) {
    chunk_rates.push_back(static_cast<double>(chunk_ops) / seconds);
  }

 private:
  void CloseBlock();
  std::vector<double> block_;
  std::vector<double> block_p50_;
  std::vector<double> block_p99_;
};

struct Quality {
  double crps_s = 0.0;
  double on_time_truth = 0.0;
  double model_mb = 0.0;  // set when the phase builds its own model
};

class Phase {
 public:
  virtual ~Phase() = default;
  /// One whole round of the phase's fixed operation stream.
  virtual pcde::Status Round(RoundStats* stats) = 0;
  /// Checks the outputs of the first round (and anything the phase keeps).
  virtual pcde::Status Check(Checker* checker, Quality* quality) = 0;
  /// One traced round: every operation through the engine, then replayed
  /// through the layer functions.
  virtual pcde::Status Traced(Tracer* tracer) = 0;
  /// Adds this phase's per-layer metrics from its summary.
  virtual void LayerMetrics(const TraceSummary& summary,
                            std::vector<Metric>* metrics) const = 0;
  /// Share of operations served from the query cache in the first round.
  virtual double CacheHitShare() const { return 0.0; }
};

enum class PhaseKind { kOd, kBatch, kRoute, kRefresh };

/// The phase at full size (warmed up), or at census size: the small pass
/// a traced run makes over layers its own workload does not exercise.
pcde::StatusOr<std::unique_ptr<Phase>> MakePhase(PhaseKind kind, Context* ctx,
                                                 bool census);

}  // namespace perfbench
