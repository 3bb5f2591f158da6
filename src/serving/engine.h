// serving::Engine — the unified front door over the estimator, router, and
// caches. Every caller used to hand-wire HybridEstimator + cache attachment
// + RouterConfig + ThreadPool; the Engine owns that stack once:
//
//   EngineOptions options;
//   options.model_path = "model.pcdewf";   // frozen PCDEWF1 artifact
//   options.graph = &graph;                // enables OD specs and Route
//   auto engine = Engine::Open(options);   // StatusOr<unique_ptr<Engine>>
//
//   EstimateRequest req;
//   req.path = PathSpec::OdPair(home, airport);
//   req.departure_time = 8 * 3600.0;
//   req.budget_seconds = 45 * 60.0;
//   auto response = (*engine)->Estimate(req);  // CostSummary + provenance
//
// Open loads a frozen model (binary artifact via buffered read or mmap, or
// the text format), opens a PCDEMF1 shard manifest (core/shard_writer.h;
// told apart from a model artifact by its magic), or adopts an already-
// built PathWeightFunction; it constructs the work-stealing ThreadPool and
// sizes/attaches the QueryCache declaratively from the options. Estimation
// through the Engine is bit-identical to direct HybridEstimator wiring
// with the same options (tests/serving_engine_test.cc proves it, with and
// without caches) — the facade adds request resolution and summary
// derivation, not semantics.
//
// Generations: the Engine serves one immutable *generation* at a time — a
// sequence number, a fingerprint, a shard manifest, and one slot per shard
// holding that shard's epoch (model + estimator + router). A model artifact
// is a 1-shard generation under a synthetic manifest; a manifest names N
// per-region shards that attach lazily on first touch (an optional LRU
// cap bounds how many stay resident). Every request runs through one
// serve path: a path whose edges all fall in one shard is served by that
// shard exactly as the unsplit model would serve it (the shard holds the
// same candidate rows in the same order); a path crossing shard boundaries
// is segmented at the boundaries, each segment estimated on its owning
// shard, and the segments convolved left to right with the departure time
// advanced by each segment's mean — the stitch the sparse-coverage ladder
// uses across uncovered gaps, flagged degradation >= kSubpath with a
// length-weighted covered_fraction.
//
// Thread safety: Estimate / EstimateBatch / Route are const and safe to
// call concurrently (the underlying estimators are read-only over frozen
// models and the QueryCache is sharded). Swap may run concurrently with all
// of them: it builds and verifies the whole next generation off to the
// side and publishes it with one atomic shared_ptr store; every request
// pins the generation it entered on, so a swap mid-request changes nothing
// for that request and a replaced model is destroyed only when its last
// in-flight request finishes. Concurrent Swap calls serialize against each
// other.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel_token.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/estimator.h"
#include "core/query_cache.h"
#include "core/shard_writer.h"
#include "routing/stochastic_router.h"
#include "serving/admission.h"
#include "serving/request.h"

namespace pcde {
namespace serving {

/// \brief One pre-publish verification query: Swap runs the request
/// against the CANDIDATE generation before publishing it. A probe whose
/// estimate errors rejects the candidate; when a reference summary is
/// stamped, so does any divergence from it (estimation is bit-identical
/// across save/load, so a stamped reference computed on the model that
/// produced the artifact must reproduce exactly — a mismatch means the
/// artifact or the serving wiring is bad). A rejected candidate never
/// serves a single request: the old epoch stays published throughout.
struct GoldenProbe {
  EstimateRequest request;
  /// The expected response summary, as served by the model generation the
  /// artifact was built from (stamp it from EstimateResponse::summary).
  /// Without a reference the probe only asserts the candidate serves the
  /// request cleanly.
  bool has_reference = false;
  CostSummary reference;
};

/// \brief Model-refresh robustness policy. The default is bit-identical to
/// a policy-free engine: one load attempt, no probes, no retained epochs.
struct SwapPolicy {
  /// Load attempts per artifact per Swap(path) call (each changed shard of
  /// a manifest swap gets its own attempts). Content errors (corrupt artifact,
  /// version skew: kInvalidArgument) fail immediately — the bytes will not
  /// fix themselves; IO errors and missing files (kInternal / kNotFound —
  /// e.g. a publisher mid-rename or flaky storage) are retried up to this
  /// many attempts with exponential backoff. 0 behaves as 1.
  size_t max_attempts = 1;
  /// Backoff before retry k (1-based) is
  /// min(initial * multiplier^(k-1), max) scaled by a jitter factor drawn
  /// uniformly from [1 - jitter_fraction, 1 + jitter_fraction] under
  /// jitter_seed (deterministic, so tests replay). The sleep polls the
  /// Swap call's cancel token and aborts the wait when it trips.
  double initial_backoff_seconds = 0.01;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.5;
  double jitter_fraction = 0.5;
  uint64_t jitter_seed = 42;
  /// Engine-wide pre-publish probes, run on every swap candidate (per-call
  /// probes in SwapOptions take precedence). Empty = no verification.
  std::vector<GoldenProbe> probes;
  /// Replaced generations retained for RollbackToPrevious(), newest first
  /// out. 0 disables retention (a replaced generation is torn down as soon
  /// as its last in-flight request finishes, exactly the policy-free
  /// lifecycle).
  size_t rollback_capacity = 0;
};

/// \brief Per-call Swap knobs. References ride on the call rather than the
/// engine because they are stamped per model generation.
struct SwapOptions {
  /// Checked before every load attempt and during backoff sleeps; a
  /// tripped token abandons the swap (the old generation keeps serving).
  const CancelToken* cancel = nullptr;
  /// When non-empty, replaces SwapPolicy::probes for this call.
  std::vector<GoldenProbe> probes;
};

/// Declarative configuration of the full serving stack.
struct EngineOptions {
  /// Artifact to serve when Open(options) is used: a frozen model
  /// (core/serialization: PCDEWF1 binary or text v2) or a PCDEMF1 shard
  /// manifest (core/shard_writer), told apart by their magic. Ignored by
  /// the adopting Open.
  std::string model_path;
  /// Map binary artifacts (the model, or every shard of a manifest)
  /// PROT_READ/MAP_SHARED and parse in place (one page-cache copy across
  /// co-resident engines serving the same file). See
  /// LoadWeightFunctionBinary for the atomic-replace lifecycle requirement.
  bool use_mmap = false;

  /// Road network backing OD-pair PathSpecs (free-flow shortest-path
  /// resolution), explicit-path validation, and Route. May stay null when
  /// every request uses explicit edge paths and Route is never called.
  const roadnet::Graph* graph = nullptr;

  /// Decomposition policy, rank cap, and chain options of every estimate
  /// (the OD / OD-x / HP / LB method choice).
  core::EstimateOptions estimate;

  /// Workers of the engine's pool (batch fan-out and the router's root
  /// fan-out). 0 = hardware concurrency.
  size_t num_threads = 0;

  /// Byte budget of the result cache (core/query_cache.h), one budget for
  /// the whole engine — every shard of a sharded generation shares it; 0
  /// disables caching. Results are bit-identical either way.
  size_t query_cache_bytes = size_t{64} << 20;
  size_t query_cache_shards = 8;
  /// Departure-time bucket width folded into cache keys.
  double cache_time_bucket_seconds = 300.0;

  /// DFS router knobs (see routing::RouterConfig for semantics).
  double route_lower_bound_factor = 0.8;
  size_t route_max_expansions = 500000;
  size_t route_max_path_edges = 150;
  /// Opt-in routing pruners (routing/pruning.h); all default off, which
  /// keeps Route bit-identical to the pre-pruning engine. Individual
  /// RouteRequests can override via use_pruning_override.
  routing::PruningOptions route_pruning;

  /// LRU cap on the attached shards of a sharded generation: attaching past
  /// the cap detaches the least-recently-touched other shard (its
  /// in-flight requests finish on their pinned epoch; the next touch
  /// re-attaches from the artifact). 0 = unbounded. A 1-shard generation
  /// is never evicted.
  size_t max_resident_shards = 0;

  /// Admission control (overload protection). Requests — each single
  /// Estimate/Route call, and each request of a batch individually —
  /// acquire an admission slot before doing any work; at capacity they
  /// shed with kResourceExhausted instead of queueing without limit.
  /// 0 (default) = unlimited: admission never sheds and the serving path
  /// is behaviorally identical to an engine without admission control.
  size_t max_inflight_requests = 0;
  /// Requests allowed to wait for a slot at capacity (bounded queue);
  /// beyond it — or whenever queue_timeout_seconds <= 0 — shed
  /// immediately.
  size_t max_queue_depth = 0;
  /// Longest a queued request may wait for a slot before shedding.
  double queue_timeout_seconds = 0.0;

  /// Refresh robustness: retry/backoff for transient swap failures,
  /// pre-publish probe verification, and the last-known-good rollback
  /// ring. The default policy is bit-identical to pre-policy serving.
  SwapPolicy swap_policy;
};

/// \brief Overload-observability counters, monotonically increasing over
/// the engine's lifetime (inflight / highwater track live load; every shard
/// of a generation serves behind the one admission gate). Snapshot via
/// Engine::stats(); responses carry their own inflight_at_admit.
struct EngineStats {
  uint64_t admitted = 0;           // requests that acquired a slot
  uint64_t shed = 0;               // kResourceExhausted at admission
  uint64_t deadline_exceeded = 0;  // unwound with kDeadlineExceeded
  uint64_t cancelled = 0;          // unwound with kCancelled
  uint64_t inflight = 0;           // currently admitted requests
  uint64_t inflight_highwater = 0;  // peak concurrent admissions
  /// Routing pruning attribution, summed over every successful Route
  /// (see routing::RouteResult for per-counter semantics).
  uint64_t route_bound_pruned = 0;
  uint64_t route_incumbent_pruned = 0;
  uint64_t route_dominance_pruned = 0;
  uint64_t route_estimator_clones = 0;
  /// Refresh robustness (ISSUE 9). swap_attempts counts artifact load
  /// attempts by Swap(path) — retries included; swap_retries counts just
  /// the re-attempts after a transient failure. probe_failures counts
  /// candidates rejected by pre-publish verification; rollbacks counts
  /// RollbackToPrevious() republishes.
  uint64_t swap_attempts = 0;
  uint64_t swap_retries = 0;
  uint64_t probe_failures = 0;
  uint64_t rollbacks = 0;
  /// Sharded serving. shards_resident is a point-in-time gauge of the
  /// published generation's attached shards (1 for a served model); the
  /// other three count lazy attaches, LRU evictions, and requests whose
  /// path crossed a shard boundary (stitched serve) over the engine's
  /// lifetime.
  uint64_t shards_resident = 0;
  uint64_t shard_attaches = 0;
  uint64_t shard_evictions = 0;
  uint64_t cross_shard_requests = 0;
};

/// \brief Derives the serving-visible CostSummary from a cost
/// distribution: only the statistics selected by `stats` are computed
/// (unselected fields stay NaN / empty). Exposed for tests, which pin
/// these numbers against brute-force integration of the histogram.
CostSummary SummarizeDistribution(const hist::Histogram1D& dist,
                                  StatsMask stats, double budget_seconds,
                                  const std::vector<double>& quantiles);


class Engine {
 public:
  /// Opens options.model_path — a frozen model (loaded now) or a shard
  /// manifest (every shard file validated against it now: existence, size,
  /// header fingerprint; payloads load on first touch) — and builds the
  /// serving stack around it.
  static StatusOr<std::unique_ptr<Engine>> Open(EngineOptions options);

  /// Adopts an already-built (or already-loaded) frozen model instead of
  /// reading an artifact — the embedded/offline wiring, and the path tests
  /// use to compare Engine serving against direct estimator wiring over
  /// the very same model (engine->model()).
  static StatusOr<std::unique_ptr<Engine>> Open(
      core::PathWeightFunction model, EngineOptions options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// \brief Zero-downtime refresh to the model artifact or shard manifest
  /// at `path` (sniffed like Open). The next generation is built off to the
  /// side: every shard file is validated, changed shards that are attached
  /// now are reloaded (through the retry policy below), unchanged shards
  /// keep their epochs, detached ones load on next touch, and the probes
  /// run against the candidate. Then it publishes with one atomic store —
  /// or, on any failure, nothing changes and the loader's Status returns:
  /// no request ever sees a mix of generations. In-flight and subsequent
  /// requests are never failed by the transition; responses carry the
  /// pinned generation's epoch + fingerprint. An artifact whose fingerprint
  /// matches the served generation short-circuits to a no-op. The shard
  /// count must not change (re-sharding needs a fresh Open). The QueryCache
  /// survives swaps: its keys carry each model's fingerprint, so entries of
  /// replaced models decay into misses, never false hits. Returns the
  /// now-serving epoch sequence. Under a non-default SwapPolicy loads are
  /// retried on transient failures (with cancel-aware exponential backoff)
  /// and the candidate is probe-verified before publication.
  StatusOr<uint64_t> Swap(const std::string& path);
  /// Same, with per-call cancellation and probe references.
  StatusOr<uint64_t> Swap(const std::string& path,
                          const SwapOptions& swap_options);

  /// Adopting form: publishes an already-built (or already-loaded) frozen
  /// model as a new 1-shard generation — the embedded wiring, e.g. a delta
  /// rebuild (WeightFunctionBuilder::FromFrozen + InstantiateIntoBuilder)
  /// frozen in process and swapped in without touching disk. Probe
  /// verification applies; the retry loop does not (there is no IO).
  StatusOr<uint64_t> Swap(core::PathWeightFunction model);
  StatusOr<uint64_t> Swap(core::PathWeightFunction model,
                          const SwapOptions& swap_options);

  /// \brief Republishes the most recently replaced generation as a NEW
  /// epoch (sequence moves forward — a response's epoch number never goes
  /// backward), popping it from the last-known-good ring. The ring only
  /// holds generations replaced by successful swaps while
  /// SwapPolicy::rollback_capacity > 0; the generation being rolled back
  /// OFF of is deliberately not retained (it is the suspect one). Fails
  /// with kFailedPrecondition when nothing is retained.
  StatusOr<uint64_t> RollbackToPrevious();

  /// Generations currently retained for rollback.
  size_t rollback_depth() const;

  /// Sequence number of the currently published generation (starts at 1;
  /// incremented by every successful non-short-circuited Swap).
  uint64_t epoch_sequence() const;
  /// The published generation's manifest (a synthetic 1-shard manifest
  /// covering the whole key space for a model artifact, whose fingerprint
  /// is the model's). Its fingerprint is the one stamped on responses
  /// served right now. Swap-safe.
  std::shared_ptr<const core::ShardManifest> manifest_snapshot() const;

  const EngineOptions& options() const { return options_; }
  /// The model of the published 1-shard generation. The reference stays
  /// valid until the next successful Swap; under concurrent swaps prefer
  /// model_snapshot(), which the caller pins.
  const core::PathWeightFunction& model() const;
  /// Swap-safe model access for a 1-shard generation (attaching its shard
  /// if it is not resident): the returned shared_ptr keeps the model (and
  /// its arena) alive past any number of subsequent swaps. nullptr for a
  /// multi-shard generation, or when the shard fails to attach.
  std::shared_ptr<const core::PathWeightFunction> model_snapshot() const;
  /// Sum / max of the published generation's attached shard models'
  /// resident bytes — the flat-memory claim sharding exists for; detached
  /// shards cost nothing.
  size_t ResidentBytes() const;
  size_t MaxShardResidentBytes() const;
  /// nullptr when query_cache_bytes == 0.
  core::QueryCache* query_cache() const { return cache_.get(); }
  ThreadPool& pool() const { return *pool_; }

  /// Resolves a PathSpec to the edge path that will be costed: OD pairs go
  /// through the free-flow shortest path (deterministic, so repeated OD
  /// queries hit the same cache entries); explicit paths are validated
  /// against the graph when one is configured. Errors: InvalidArgument
  /// (empty/invalid path, unknown vertex), FailedPrecondition (OD spec
  /// with no graph), NotFound (unreachable pair).
  StatusOr<roadnet::Path> ResolvePath(const PathSpec& spec) const;

  /// One cost-distribution query end to end on the calling thread:
  /// admission, resolution, shard routing, estimate (through the attached
  /// cache) or cross-shard stitch, summary.
  StatusOr<EstimateResponse> Estimate(const EstimateRequest& request) const;

  /// Many queries concurrently on the engine's pool, all pinned to one
  /// generation; response i corresponds to requests[i] and carries its own
  /// Status — a malformed request (bad path, unresolvable OD pair) fails
  /// alone, never the batch. Every request returns exactly what Estimate
  /// would.
  std::vector<StatusOr<EstimateResponse>> EstimateBatch(
      const EstimateRequest* requests, size_t num_requests) const;
  std::vector<StatusOr<EstimateResponse>> EstimateBatch(
      const std::vector<EstimateRequest>& requests) const {
    return EstimateBatch(requests.data(), requests.size());
  }

  /// Probabilistic budget routing (Sec. 4.3) on the engine's stack: the
  /// DFS router runs with the engine's estimate options, query cache, and
  /// pool. Requires options.graph and a 1-shard generation
  /// (FailedPrecondition otherwise).
  StatusOr<RouteResponse> Route(const RouteRequest& request) const;

  /// Point-in-time snapshot of the engine's counters (admission traffic,
  /// deadline/cancel unwinds, inflight high-water mark, swaps, shards).
  EngineStats stats() const;

 private:
  /// One shard's model and the stack wired to it. Immutable; shared by
  /// every generation whose slot holds it (a swap reuses unchanged
  /// shards' epochs), torn down when the last holder — slot or in-flight
  /// request — drops it. The QueryCache and ThreadPool are engine-level:
  /// cache keys carry the model fingerprint, so sharing is
  /// correctness-neutral.
  struct Epoch {
    std::shared_ptr<const core::PathWeightFunction> model;
    std::unique_ptr<core::HybridEstimator> estimator;
    std::unique_ptr<routing::DfsStochasticRouter> router;  // iff graph set
  };

  /// One shard of a generation. `epoch` is null while the shard is
  /// detached; it is written under attach_mutex_ (or before publication)
  /// and read with atomic shared_ptr loads.
  struct Slot {
    std::string path;  // artifact to attach from; empty for adopted models
    mutable std::shared_ptr<const Epoch> epoch;
    mutable std::atomic<uint64_t> last_touch{0};  // LRU clock at last use
  };

  /// \brief One published serving generation. Everything but the slots'
  /// epochs is fixed before publication; requests pin it with one
  /// shared_ptr copy at entry.
  struct Generation {
    explicit Generation(size_t num_shards) : slots(num_shards) {}
    uint64_t sequence = 0;
    core::ShardManifest manifest;  // fingerprint: the generation identity
    std::vector<Slot> slots;
  };

  explicit Engine(EngineOptions options);

  /// The engine-level stack (cache, pool, admission) with nothing
  /// published yet.
  static StatusOr<std::unique_ptr<Engine>> Make(EngineOptions options);

  /// Loads one model artifact the way the options say (mmap or buffered).
  StatusOr<core::PathWeightFunction> LoadModel(const std::string& path) const;
  /// Swap's load: LoadModel under the SwapPolicy's retry/backoff.
  StatusOr<core::PathWeightFunction> LoadWithRetry(
      const std::string& path, const SwapOptions& swap_options);

  /// Wires an epoch (estimator + edge fallback + router) around a frozen
  /// model. Pure construction over validated input — no failure mode.
  std::shared_ptr<const Epoch> BuildEpoch(
      std::shared_ptr<const core::PathWeightFunction> model) const;
  /// The 1-shard generation serving `model` (already attached), under a
  /// synthetic manifest whose one shard owns the whole key space.
  std::shared_ptr<Generation> ModelGeneration(
      std::shared_ptr<const core::PathWeightFunction> model,
      std::string path) const;
  /// The generation a shard manifest names, every shard file validated
  /// against it (existence, size, header fingerprint — cheap peeks, no
  /// payload reads); every slot starts detached.
  static StatusOr<std::shared_ptr<Generation>> ManifestGeneration(
      const std::string& manifest_path);

  /// The generation pin every request takes exactly once at entry.
  std::shared_ptr<const Generation> CurrentGeneration() const;

  /// The epoch of `generation`'s shard `idx`, attaching it (and evicting
  /// other shards past the LRU cap) on first touch.
  StatusOr<std::shared_ptr<const Epoch>> AttachShard(
      const Generation& generation, size_t idx) const;
  /// Detaches least-recently-touched shards of `generation` other than
  /// `keep` until the resident count fits the cap; caller holds
  /// attach_mutex_.
  void EnforceResidentCapLocked(const Generation& generation,
                                size_t keep) const;

  /// The one serve path behind Estimate, EstimateBatch, and swap probes:
  /// admission (skipped for probes, which must not be shed), cancellation
  /// setup, resolution, shard routing, estimation or the cross-shard
  /// stitch, and provenance stamping.
  StatusOr<EstimateResponse> ServeOne(const Generation& generation,
                                      const EstimateRequest& request,
                                      bool admit = true) const;
  /// ServeOne's cross-shard stitch (see the header comment's contract):
  /// fills `provenance` with the stitched level and coverage.
  StatusOr<hist::Histogram1D> EstimateStitched(
      const Generation& generation, const roadnet::Path& path,
      double departure_time, const CancelToken* cancel,
      core::FallbackProvenance* provenance) const;

  /// Runs `probes` against the unpublished candidate; on the first probe
  /// error or reference divergence counts a probe_failure and returns the
  /// rejection Status (the candidate is then dropped unpublished).
  Status VerifyCandidate(const Generation& candidate,
                         const std::vector<GoldenProbe>& probes) const;

  /// Stamps `generation` with the next sequence and publishes it,
  /// retaining the replaced generation in the rollback ring when the policy
  /// keeps one; caller holds swap_mutex_ (or owns the engine exclusively).
  uint64_t PublishLocked(std::shared_ptr<Generation> generation);

  /// Verifies the candidate with the per-call (or policy) probes and
  /// publishes the very object that was verified; caller holds
  /// swap_mutex_.
  StatusOr<uint64_t> VerifyAndPublishLocked(
      std::shared_ptr<Generation> candidate, const SwapOptions& swap_options);

  /// Bumps the deadline_exceeded / cancelled counter matching a request's
  /// terminal Status (no-op for other codes).
  void CountUnwind(const Status& status) const;

  EngineOptions options_;
  // Engine-level (generation-independent) members; unique_ptr keeps their
  // addresses stable for the epochs' estimators and routers.
  std::unique_ptr<core::QueryCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  // The published generation, read with std::atomic_load (one acquire per
  // request) and replaced with std::atomic_store under swap_mutex_.
  std::shared_ptr<const Generation> generation_;
  // Serializes Swap/Rollback callers; mutable so const observers
  // (rollback_depth) can take it.
  mutable std::mutex swap_mutex_;
  // Serializes lazy attach / LRU evict decisions.
  mutable std::mutex attach_mutex_;
  uint64_t next_sequence_ = 1;  // guarded by swap_mutex_ after Make
  // Last-known-good ring (newest at the back), bounded by
  // SwapPolicy::rollback_capacity; guarded by swap_mutex_. Retaining a
  // generation keeps its attached models (mmap included) alive — capacity
  // is a deliberate memory knob, not a cache.
  std::deque<std::shared_ptr<const Generation>> previous_generations_;
  // Admission gate + counters (request methods are const; the counters
  // are serving telemetry, not model state). Set once in Make.
  std::unique_ptr<AdmissionController> admission_;
  mutable std::atomic<uint64_t> deadline_exceeded_{0};
  mutable std::atomic<uint64_t> cancelled_{0};
  // Routing pruning attribution (summed over successful Route calls).
  mutable std::atomic<uint64_t> route_bound_pruned_{0};
  mutable std::atomic<uint64_t> route_incumbent_pruned_{0};
  mutable std::atomic<uint64_t> route_dominance_pruned_{0};
  mutable std::atomic<uint64_t> route_estimator_clones_{0};
  // Refresh robustness counters; see EngineStats.
  mutable std::atomic<uint64_t> swap_attempts_{0};
  mutable std::atomic<uint64_t> swap_retries_{0};
  mutable std::atomic<uint64_t> probe_failures_{0};
  mutable std::atomic<uint64_t> rollbacks_{0};
  // Sharded serving counters; see EngineStats.
  mutable std::atomic<uint64_t> touch_clock_{0};
  mutable std::atomic<uint64_t> shard_attaches_{0};
  mutable std::atomic<uint64_t> shard_evictions_{0};
  mutable std::atomic<uint64_t> cross_shard_requests_{0};
};

}  // namespace serving
}  // namespace pcde
