#include "serving/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/instantiation.h"
#include "core/serialization.h"
#include "roadnet/shortest_path.h"

namespace pcde {
namespace serving {

using core::PathWeightFunction;
using hist::Histogram1D;
using roadnet::Path;

CostSummary SummarizeDistribution(const Histogram1D& dist, StatsMask stats,
                                  double budget_seconds,
                                  const std::vector<double>& quantiles) {
  CostSummary summary;
  summary.num_buckets = dist.NumBuckets();
  if (dist.empty()) return summary;
  if (stats & kStatMean) summary.mean = dist.Mean();
  if (stats & kStatVariance) summary.variance = dist.Variance();
  if (stats & kStatSupport) {
    summary.support_lo = dist.Min();
    summary.support_hi = dist.Max();
  }
  if ((stats & kStatCdfAtBudget) && !std::isnan(budget_seconds)) {
    summary.prob_within_budget = dist.ProbWithin(budget_seconds);
  }
  if (stats & kStatQuantiles) {
    summary.quantiles.reserve(quantiles.size());
    for (double q : quantiles) summary.quantiles.push_back(dist.Quantile(q));
  }
  return summary;
}

Engine::Engine(EngineOptions options) : options_(std::move(options)) {}

namespace {

/// The last rung of the degradation ladder: synthesize an uncovered edge's
/// distribution exactly as instantiation's speed-limit prior would have —
/// an edge missing from the frozen model estimates identically to one
/// whose fallback variable was baked in at build time.
core::EdgeFallbackFn MakeEdgeFallback(const roadnet::Graph& graph) {
  return [&graph](roadnet::EdgeId e) -> StatusOr<hist::Histogram1D> {
    if (static_cast<size_t>(e) >= graph.NumEdges()) {
      return Status::InvalidArgument("edge fallback: unknown edge " +
                                     std::to_string(e));
    }
    return core::FreeFlowEdgeHistogram(graph.edge(e), core::HybridParams());
  };
}

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return std::string(".");
  if (slash == 0) return std::string("/");
  return path.substr(0, slash);
}

/// Existence / size / header-fingerprint check of one shard artifact
/// against its manifest record (cheap: no payload read).
Status ValidateShardFile(const core::ShardInfo& info, size_t shard,
                         const std::string& path) {
  std::error_code ec;
  const uintmax_t nbytes = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status::NotFound("Engine: shard " + std::to_string(shard) +
                            " artifact missing (" + path + ")");
  }
  if (static_cast<uint64_t>(nbytes) != info.bytes) {
    return Status::InvalidArgument(
        "Engine: shard " + std::to_string(shard) + " artifact is " +
        std::to_string(nbytes) + " bytes, manifest declares " +
        std::to_string(info.bytes) + " (" + path + ")");
  }
  // The header peek re-validates magic/version/alpha, so a shard file that
  // is the right size but the wrong content fails here too.
  PCDE_ASSIGN_OR_RETURN(fingerprint, core::PeekBinaryArtifactFingerprint(path));
  if (fingerprint != info.fingerprint) {
    return Status::InvalidArgument(
        "Engine: shard " + std::to_string(shard) +
        " artifact fingerprint does not match the manifest (" + path + ")");
  }
  return Status::OK();
}

Status CheckShardCount(size_t served, size_t incoming) {
  if (served == incoming) return Status::OK();
  return Status::InvalidArgument(
      "Engine::Swap: shard count changed (" + std::to_string(served) +
      " -> " + std::to_string(incoming) +
      "); re-sharding requires a fresh Open");
}

/// A transient swap failure is one a retry can plausibly fix: an IO error
/// (kInternal) or a missing file (kNotFound — a publisher mid-rename).
/// Content errors (kInvalidArgument: corrupt payload, version skew) are
/// permanent — the bytes will not fix themselves.
bool IsTransientSwapFailure(const Status& status) {
  return status.code() == StatusCode::kInternal ||
         status.code() == StatusCode::kNotFound;
}

/// Exponential backoff with deterministic jitter before retry `attempt`
/// (1-based count of attempts already made). Sleeps in short slices so a
/// tripping cancel token abandons the wait within ~10 ms.
void BackoffBeforeRetry(const SwapPolicy& policy, size_t attempt, Rng* jitter,
                        const CancelToken* cancel) {
  double backoff = policy.initial_backoff_seconds *
                   std::pow(policy.backoff_multiplier,
                            static_cast<double>(attempt - 1));
  backoff = std::min(backoff, policy.max_backoff_seconds);
  const double j = std::min(std::max(policy.jitter_fraction, 0.0), 1.0);
  if (j > 0.0) backoff *= jitter->Uniform(1.0 - j, 1.0 + j);
  if (backoff <= 0.0) return;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(backoff));
  while (std::chrono::steady_clock::now() < deadline) {
    if (CancelToken::Check(cancel)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Builds the per-request cancellation context: when the request sets a
/// timeout, a deadline token lives in `storage` (the caller's frame, so
/// batch workers get independent deadlines) linked under the request's
/// external token. Returns the token the estimator polls — null when the
/// request has neither, which is the exact pre-deadline serving path.
const CancelToken* SetupCancel(double timeout_seconds,
                               const CancelToken* external,
                               std::optional<CancelToken>* storage) {
  if (timeout_seconds <= 0.0) return external;
  storage->emplace(CancelToken::DeadlineAfter(timeout_seconds));
  (*storage)->set_parent(external);
  return &storage->value();
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction and generations
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<Engine>> Engine::Make(EngineOptions options) {
  if (options.query_cache_bytes > 0 &&
      options.cache_time_bucket_seconds <= 0.0) {
    return Status::InvalidArgument(
        "Engine: cache_time_bucket_seconds must be positive");
  }
  std::unique_ptr<Engine> engine(new Engine(std::move(options)));
  const EngineOptions& opts = engine->options_;
  if (opts.query_cache_bytes > 0) {
    core::QueryCacheOptions cache_options;
    cache_options.max_bytes = opts.query_cache_bytes;
    cache_options.num_shards = opts.query_cache_shards;
    cache_options.time_bucket_seconds = opts.cache_time_bucket_seconds;
    engine->cache_ = std::make_unique<core::QueryCache>(cache_options);
  }
  engine->pool_ = std::make_unique<ThreadPool>(opts.num_threads);
  AdmissionController::Options admission_options;
  admission_options.max_inflight = opts.max_inflight_requests;
  admission_options.max_queue_depth = opts.max_queue_depth;
  admission_options.queue_timeout_seconds = opts.queue_timeout_seconds;
  engine->admission_ =
      std::make_unique<AdmissionController>(admission_options);
  return engine;
}

StatusOr<std::unique_ptr<Engine>> Engine::Open(EngineOptions options) {
  if (options.model_path.empty()) {
    return Status::InvalidArgument(
        "Engine::Open: options.model_path is empty (or adopt a built model "
        "via Open(PathWeightFunction, options))");
  }
  if (PCDE_FAULT_POINT("serving.open.load")) {
    return Status::Internal("Engine::Open: injected load fault for " +
                            options.model_path);
  }
  PCDE_ASSIGN_OR_RETURN(engine, Make(std::move(options)));
  const std::string& path = engine->options_.model_path;
  std::shared_ptr<Generation> generation;
  if (core::IsShardManifest(path)) {
    PCDE_ASSIGN_OR_RETURN(sharded, ManifestGeneration(path));
    generation = std::move(sharded);
  } else {
    PCDE_ASSIGN_OR_RETURN(model, engine->LoadModel(path));
    generation = engine->ModelGeneration(
        std::make_shared<const PathWeightFunction>(std::move(model)), path);
  }
  engine->PublishLocked(std::move(generation));  // no readers yet
  return engine;
}

StatusOr<std::unique_ptr<Engine>> Engine::Open(PathWeightFunction model,
                                               EngineOptions options) {
  PCDE_ASSIGN_OR_RETURN(engine, Make(std::move(options)));
  engine->PublishLocked(engine->ModelGeneration(
      std::make_shared<const PathWeightFunction>(std::move(model)), ""));
  return engine;
}

StatusOr<PathWeightFunction> Engine::LoadModel(const std::string& path) const {
  return options_.use_mmap
             ? core::LoadWeightFunctionBinary(path, /*use_mmap=*/true)
             : core::LoadWeightFunction(path);
}

std::shared_ptr<const Engine::Epoch> Engine::BuildEpoch(
    std::shared_ptr<const PathWeightFunction> model) const {
  auto epoch = std::make_shared<Epoch>();
  epoch->model = std::move(model);
  epoch->estimator = std::make_unique<core::HybridEstimator>(
      *epoch->model, options_.estimate);
  epoch->estimator->set_query_cache(cache_.get());
  if (options_.graph != nullptr) {
    epoch->estimator->set_edge_fallback(MakeEdgeFallback(*options_.graph));
    routing::RouterConfig config;
    config.lower_bound_factor = options_.route_lower_bound_factor;
    config.max_expansions = options_.route_max_expansions;
    config.max_path_edges = options_.route_max_path_edges;
    config.num_threads = pool_->num_threads();
    config.pool = pool_.get();
    config.query_cache = cache_.get();
    config.pruning = options_.route_pruning;
    epoch->router = std::make_unique<routing::DfsStochasticRouter>(
        *options_.graph, *epoch->model, options_.estimate, config);
  }
  return epoch;
}

std::shared_ptr<Engine::Generation> Engine::ModelGeneration(
    std::shared_ptr<const PathWeightFunction> model, std::string path) const {
  auto generation = std::make_shared<Generation>(1);
  const uint64_t fingerprint = model->fingerprint();
  core::ShardInfo whole;
  whole.key_lo = 0;
  whole.key_hi = core::kMaxArtifactEdgeId - 1;
  whole.fingerprint = fingerprint;
  whole.file = path;
  generation->manifest.alpha_seconds = model->binning().alpha_seconds();
  generation->manifest.source_fingerprint = fingerprint;
  generation->manifest.fingerprint = fingerprint;
  generation->manifest.shards.push_back(std::move(whole));
  generation->slots[0].path = std::move(path);
  generation->slots[0].epoch = BuildEpoch(std::move(model));
  return generation;
}

StatusOr<std::shared_ptr<Engine::Generation>> Engine::ManifestGeneration(
    const std::string& manifest_path) {
  PCDE_ASSIGN_OR_RETURN(manifest, core::LoadShardManifest(manifest_path));
  const std::string dir = DirOf(manifest_path);
  auto generation = std::make_shared<Generation>(manifest.shards.size());
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    std::string path = dir + "/" + manifest.shards[s].file;
    PCDE_RETURN_NOT_OK(ValidateShardFile(manifest.shards[s], s, path));
    generation->slots[s].path = std::move(path);
  }
  generation->manifest = std::move(manifest);
  return generation;
}

std::shared_ptr<const Engine::Generation> Engine::CurrentGeneration() const {
  return std::atomic_load(&generation_);
}

StatusOr<std::shared_ptr<const Engine::Epoch>> Engine::AttachShard(
    const Generation& generation, size_t idx) const {
  const Slot& slot = generation.slots[idx];
  if (options_.max_resident_shards > 0) {
    slot.last_touch.store(
        touch_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }
  if (auto epoch = std::atomic_load(&slot.epoch)) return epoch;

  std::lock_guard<std::mutex> lock(attach_mutex_);
  if (auto epoch = std::atomic_load(&slot.epoch)) return epoch;
  if (PCDE_FAULT_POINT("serving.shard.attach")) {
    return Status::Internal("Engine: injected attach fault for shard " +
                            std::to_string(idx));
  }
  // Re-verify identity at attach time (the file may have changed since
  // Open/Swap validated it): a stale or foreign artifact must not serve
  // under this generation's stamp.
  const core::ShardInfo& info = generation.manifest.shards[idx];
  PCDE_ASSIGN_OR_RETURN(fingerprint,
                        core::PeekBinaryArtifactFingerprint(slot.path));
  if (fingerprint != info.fingerprint) {
    return Status::InvalidArgument(
        "Engine: shard " + std::to_string(idx) +
        " artifact fingerprint does not match the manifest (" + slot.path +
        ")");
  }
  PCDE_ASSIGN_OR_RETURN(model, LoadModel(slot.path));
  std::shared_ptr<const Epoch> epoch =
      BuildEpoch(std::make_shared<const PathWeightFunction>(std::move(model)));
  std::atomic_store(&slot.epoch, epoch);
  shard_attaches_.fetch_add(1, std::memory_order_relaxed);
  EnforceResidentCapLocked(generation, idx);
  return epoch;
}

void Engine::EnforceResidentCapLocked(const Generation& generation,
                                      size_t keep) const {
  const size_t cap = options_.max_resident_shards;
  if (cap == 0) return;
  const size_t n = generation.slots.size();
  while (true) {
    size_t resident = 0;
    size_t victim = n;
    uint64_t victim_touch = UINT64_MAX;
    for (size_t s = 0; s < n; ++s) {
      const Slot& slot = generation.slots[s];
      if (std::atomic_load(&slot.epoch) == nullptr) continue;
      ++resident;
      if (s == keep) continue;
      const uint64_t touch = slot.last_touch.load(std::memory_order_relaxed);
      if (touch < victim_touch) {
        victim_touch = touch;
        victim = s;
      }
    }
    if (resident <= cap || victim == n) return;
    // Detach: requests that already pinned this epoch finish on it (the
    // shared_ptr keeps it alive); new touches re-attach from the artifact.
    std::atomic_store(&generation.slots[victim].epoch,
                      std::shared_ptr<const Epoch>());
    shard_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Publication: swap, verify, rollback
// ---------------------------------------------------------------------------

uint64_t Engine::PublishLocked(std::shared_ptr<Generation> generation) {
  const uint64_t sequence = next_sequence_++;
  generation->sequence = sequence;
  std::shared_ptr<const Generation> replaced = std::atomic_load(&generation_);
  std::atomic_store(&generation_,
                    std::shared_ptr<const Generation>(std::move(generation)));
  // Retain the replaced generation for RollbackToPrevious when the policy
  // keeps a ring; with capacity 0 (default) `replaced` drops here and its
  // models tear down when their last in-flight request finishes — the
  // exact policy-free lifecycle.
  const size_t capacity = options_.swap_policy.rollback_capacity;
  if (capacity > 0 && replaced != nullptr) {
    previous_generations_.push_back(std::move(replaced));
    while (previous_generations_.size() > capacity) {
      previous_generations_.pop_front();
    }
  }
  return sequence;
}

Status Engine::VerifyCandidate(const Generation& candidate,
                               const std::vector<GoldenProbe>& probes) const {
  auto reject = [this](const std::string& what) {
    probe_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("Engine::Swap: candidate rejected: " +
                                   what);
  };
  if (PCDE_FAULT_POINT("serving.swap.verify")) {
    return reject("injected verification fault");
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    const GoldenProbe& probe = probes[i];
    const std::string which = "golden probe #" + std::to_string(i);
    auto served = ServeOne(candidate, probe.request, /*admit=*/false);
    if (!served.ok()) {
      return reject(which + " errored: " + served.status().message());
    }
    if (probe.has_reference &&
        !served->summary.ExactlyEquals(probe.reference)) {
      return reject(which + " diverged from its stamped reference");
    }
  }
  return Status::OK();
}

StatusOr<uint64_t> Engine::VerifyAndPublishLocked(
    std::shared_ptr<Generation> candidate, const SwapOptions& swap_options) {
  // Verify the candidate unpublished and publish the very object that was
  // verified: a rejected candidate is dropped here without ever being
  // reachable by a request.
  const std::vector<GoldenProbe>& probes = swap_options.probes.empty()
                                               ? options_.swap_policy.probes
                                               : swap_options.probes;
  PCDE_RETURN_NOT_OK(VerifyCandidate(*candidate, probes));
  return PublishLocked(std::move(candidate));
}

StatusOr<PathWeightFunction> Engine::LoadWithRetry(
    const std::string& path, const SwapOptions& swap_options) {
  const SwapPolicy& policy = options_.swap_policy;
  const size_t max_attempts = std::max<size_t>(policy.max_attempts, 1);
  Rng jitter(policy.jitter_seed);
  for (size_t attempt = 1;; ++attempt) {
    if (CancelToken::Check(swap_options.cancel)) {
      return CancelToken::StatusOf(swap_options.cancel);
    }
    swap_attempts_.fetch_add(1, std::memory_order_relaxed);
    StatusOr<PathWeightFunction> loaded =
        PCDE_FAULT_POINT("serving.swap.load")
            ? StatusOr<PathWeightFunction>(Status::Internal(
                  "Engine::Swap: injected transient load fault for " + path))
            : LoadModel(path);
    if (loaded.ok() || !IsTransientSwapFailure(loaded.status()) ||
        attempt >= max_attempts) {
      return loaded;
    }
    swap_retries_.fetch_add(1, std::memory_order_relaxed);
    BackoffBeforeRetry(policy, attempt, &jitter, swap_options.cancel);
  }
}

StatusOr<uint64_t> Engine::Swap(const std::string& path) {
  return Swap(path, SwapOptions());
}

StatusOr<uint64_t> Engine::Swap(const std::string& path,
                                const SwapOptions& swap_options) {
  if (path.empty()) {
    return Status::InvalidArgument("Engine::Swap: path is empty");
  }
  std::lock_guard<std::mutex> lock(swap_mutex_);
  const std::shared_ptr<const Generation> current = CurrentGeneration();
  if (!core::IsShardManifest(path)) {
    // Short-circuit a refresh to content already being served: the header
    // checksum IS the model fingerprint. A failed peek (text artifact,
    // unreadable file) is not a swap failure yet — the full load below is
    // the authority, and it validates the whole payload either way.
    auto peek = core::PeekBinaryArtifactFingerprint(path);
    if (peek.ok() && peek.value() == current->manifest.fingerprint) {
      return current->sequence;
    }
    PCDE_RETURN_NOT_OK(CheckShardCount(current->slots.size(), 1));
    // Rejection leaves the published generation untouched: the old model
    // keeps serving and the caller gets the loader's Status verbatim.
    PCDE_ASSIGN_OR_RETURN(model, LoadWithRetry(path, swap_options));
    return VerifyAndPublishLocked(
        ModelGeneration(
            std::make_shared<const PathWeightFunction>(std::move(model)), path),
        swap_options);
  }
  // A manifest: validate every shard file of the incoming generation before
  // loading anything, then build it off to the side.
  PCDE_ASSIGN_OR_RETURN(next, ManifestGeneration(path));
  if (next->manifest.fingerprint == current->manifest.fingerprint) {
    return current->sequence;
  }
  PCDE_RETURN_NOT_OK(
      CheckShardCount(current->slots.size(), next->slots.size()));
  for (size_t s = 0; s < next->slots.size(); ++s) {
    std::shared_ptr<const Epoch> epoch =
        std::atomic_load(&current->slots[s].epoch);
    if (epoch == nullptr) continue;  // detached: loads on next touch
    if (next->manifest.shards[s].fingerprint !=
        current->manifest.shards[s].fingerprint) {
      PCDE_ASSIGN_OR_RETURN(model,
                            LoadWithRetry(next->slots[s].path, swap_options));
      epoch = BuildEpoch(
          std::make_shared<const PathWeightFunction>(std::move(model)));
    }
    next->slots[s].epoch = std::move(epoch);
  }
  return VerifyAndPublishLocked(std::move(next), swap_options);
}

StatusOr<uint64_t> Engine::Swap(PathWeightFunction model) {
  return Swap(std::move(model), SwapOptions());
}

StatusOr<uint64_t> Engine::Swap(PathWeightFunction model,
                                const SwapOptions& swap_options) {
  std::lock_guard<std::mutex> lock(swap_mutex_);
  PCDE_RETURN_NOT_OK(CheckShardCount(CurrentGeneration()->slots.size(), 1));
  return VerifyAndPublishLocked(
      ModelGeneration(
          std::make_shared<const PathWeightFunction>(std::move(model)), ""),
      swap_options);
}

StatusOr<uint64_t> Engine::RollbackToPrevious() {
  std::lock_guard<std::mutex> lock(swap_mutex_);
  if (previous_generations_.empty()) {
    return Status::FailedPrecondition(
        "Engine::RollbackToPrevious: no retained generation (set "
        "SwapPolicy::rollback_capacity > 0, and at least one successful "
        "swap must have replaced a generation)");
  }
  std::shared_ptr<const Generation> previous = previous_generations_.back();
  previous_generations_.pop_back();
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  // Republish the retained generation under a NEW sequence (epoch numbers
  // never move backward in responses) WITHOUT retaining the generation
  // being rolled back off of — it is the suspect one, not a known good.
  auto next = std::make_shared<Generation>(previous->slots.size());
  next->manifest = previous->manifest;
  for (size_t s = 0; s < next->slots.size(); ++s) {
    next->slots[s].path = previous->slots[s].path;
    next->slots[s].epoch = std::atomic_load(&previous->slots[s].epoch);
  }
  next->sequence = next_sequence_++;
  const uint64_t sequence = next->sequence;
  std::atomic_store(&generation_,
                    std::shared_ptr<const Generation>(std::move(next)));
  return sequence;
}

size_t Engine::rollback_depth() const {
  std::lock_guard<std::mutex> lock(swap_mutex_);
  return previous_generations_.size();
}

// ---------------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------------

uint64_t Engine::epoch_sequence() const {
  return CurrentGeneration()->sequence;
}

std::shared_ptr<const core::ShardManifest> Engine::manifest_snapshot() const {
  auto generation = CurrentGeneration();
  // Aliasing constructor: the returned pointer keeps the whole generation
  // alive.
  return std::shared_ptr<const core::ShardManifest>(generation,
                                                    &generation->manifest);
}

const PathWeightFunction& Engine::model() const { return *model_snapshot(); }

std::shared_ptr<const PathWeightFunction> Engine::model_snapshot() const {
  const auto generation = CurrentGeneration();
  if (generation->slots.size() != 1) return nullptr;
  auto epoch = AttachShard(*generation, 0);
  return epoch.ok() ? epoch.value()->model : nullptr;
}

size_t Engine::ResidentBytes() const {
  size_t total = 0;
  const auto generation = CurrentGeneration();
  for (const Slot& slot : generation->slots) {
    if (auto epoch = std::atomic_load(&slot.epoch)) {
      total += epoch->model->ResidentBytes();
    }
  }
  return total;
}

size_t Engine::MaxShardResidentBytes() const {
  size_t max_bytes = 0;
  const auto generation = CurrentGeneration();
  for (const Slot& slot : generation->slots) {
    if (auto epoch = std::atomic_load(&slot.epoch)) {
      max_bytes = std::max(max_bytes, epoch->model->ResidentBytes());
    }
  }
  return max_bytes;
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

StatusOr<Path> Engine::ResolvePath(const PathSpec& spec) const {
  if (spec.is_od) {
    const roadnet::Graph* graph = options_.graph;
    if (graph == nullptr) {
      return Status::FailedPrecondition(
          "ResolvePath: OD PathSpec needs EngineOptions::graph");
    }
    if (spec.from >= graph->NumVertices() || spec.to >= graph->NumVertices()) {
      return Status::InvalidArgument("ResolvePath: unknown vertex");
    }
    if (spec.from == spec.to) {
      return Status::InvalidArgument("ResolvePath: from == to");
    }
    // Free-flow resolution is deterministic and departure-independent, so
    // repeated OD queries select the same path — and therefore the same
    // shard routing, decomposition, and cache entries.
    return roadnet::ShortestPath(*graph, spec.from, spec.to,
                                 roadnet::FreeFlowWeight(*graph));
  }
  if (spec.edges.empty()) {
    return Status::InvalidArgument("ResolvePath: empty edge path");
  }
  if (options_.graph != nullptr) {
    PCDE_RETURN_NOT_OK(roadnet::ValidatePath(*options_.graph,
                                             spec.edges.edges()));
  }
  return spec.edges;
}

StatusOr<EstimateResponse> Engine::ServeOne(const Generation& generation,
                                            const EstimateRequest& request,
                                            bool admit) const {
  Stopwatch watch;
  // Admission before any work: at capacity the request sheds with
  // kResourceExhausted instead of joining an unbounded queue.
  AdmissionController::Slot slot;
  uint64_t inflight_now = 0;
  if (admit) PCDE_RETURN_NOT_OK(admission_->Acquire(&slot, &inflight_now));
  // The deadline clock starts at admission, not at estimation: queueing
  // time (when queue_timeout_seconds allows it) counts against the budget.
  std::optional<CancelToken> deadline_token;
  const CancelToken* cancel =
      SetupCancel(request.timeout_seconds, request.cancel, &deadline_token);
  PCDE_ASSIGN_OR_RETURN(path, ResolvePath(request.path));

  // Shard routing. A 1-shard generation owns every path; otherwise the
  // path is single-shard when every edge falls in its front edge's shard,
  // which then holds every candidate variable the unsplit model would
  // consult (same front-edge CSR rows, same order) — a bit-identical serve.
  size_t owner = 0;
  bool cross_shard = false;
  if (generation.slots.size() > 1) {
    owner = generation.manifest.ShardOf(path[0]);
    for (size_t k = 1; k < path.size() && !cross_shard; ++k) {
      cross_shard = generation.manifest.ShardOf(path[k]) != owner;
    }
  }
  core::EstimateBreakdown breakdown;
  core::FallbackProvenance provenance;
  auto estimate = [&]() -> StatusOr<Histogram1D> {
    if (cross_shard) {
      return EstimateStitched(generation, path, request.departure_time,
                              cancel, &provenance);
    }
    PCDE_ASSIGN_OR_RETURN(epoch, AttachShard(generation, owner));
    return epoch->estimator->EstimateWithFallback(
        path, request.departure_time, &provenance, &breakdown, cancel);
  };
  StatusOr<Histogram1D> dist = estimate();
  if (!dist.ok()) {
    CountUnwind(dist.status());
    return dist.status();
  }

  EstimateResponse response;
  response.summary = SummarizeDistribution(
      dist.value(), request.stats, request.budget_seconds, request.quantiles);
  // Provenance: which published generation served this response and how
  // far the degradation ladder (or the stitch) descended for it.
  response.summary.degradation = provenance.level;
  response.summary.covered_fraction = provenance.covered_fraction;
  response.resolved_path = std::move(path);
  response.served_from_cache = breakdown.cache_hit;
  if (request.want_breakdown) response.breakdown = breakdown;
  if (request.want_distribution) {
    response.distribution = std::move(dist).value();
  }
  response.model_fingerprint = generation.manifest.fingerprint;
  response.epoch = generation.sequence;
  response.inflight_at_admit = inflight_now;
  response.serve_seconds = watch.ElapsedSeconds();
  return response;
}

StatusOr<Histogram1D> Engine::EstimateStitched(
    const Generation& generation, const Path& path, double departure_time,
    const CancelToken* cancel, core::FallbackProvenance* provenance) const {
  cross_shard_requests_.fetch_add(1, std::memory_order_relaxed);
  const size_t max_buckets = options_.estimate.chain.max_result_buckets;
  const core::ShardManifest& manifest = generation.manifest;
  const std::vector<roadnet::EdgeId>& edges = path.edges();
  Histogram1D total;
  core::DegradationLevel worst = core::DegradationLevel::kFull;
  double covered_weighted = 0.0;
  double t = departure_time;
  for (size_t begin = 0, end = 0; begin < edges.size(); begin = end) {
    const size_t shard = manifest.ShardOf(edges[begin]);
    for (end = begin + 1;
         end < edges.size() && manifest.ShardOf(edges[end]) == shard; ++end) {
    }
    // Segment [begin, end) lives wholly in `shard`; estimate it there
    // through the full degradation ladder at the advanced departure time
    // (the one request deadline polls every segment).
    PCDE_ASSIGN_OR_RETURN(epoch, AttachShard(generation, shard));
    core::FallbackProvenance segment;
    PCDE_ASSIGN_OR_RETURN(
        seg, epoch->estimator->EstimateWithFallback(
                 path.Slice(begin, end - begin), t, &segment,
                 /*breakdown=*/nullptr, cancel));
    worst = std::max(worst, segment.level);
    covered_weighted +=
        segment.covered_fraction * static_cast<double>(end - begin);
    // The ladder's stitch semantics, applied at shard boundaries: advance
    // the clock by the segment's mean, convolve under independence.
    t += seg.Mean();
    if (begin == 0) {
      total = std::move(seg);
    } else {
      PCDE_ASSIGN_OR_RETURN(conv, hist::Convolve(total, seg, max_buckets));
      total = std::move(conv);
    }
  }
  // Cross-shard provenance contract: never better than kSubpath (the
  // boundary severed the decomposition even when every segment was served
  // at kFull), never better than the worst segment; coverage is the
  // length-weighted mean over segments.
  provenance->level = std::max(core::DegradationLevel::kSubpath, worst);
  provenance->covered_fraction =
      covered_weighted / static_cast<double>(edges.size());
  return total;
}

StatusOr<EstimateResponse> Engine::Estimate(
    const EstimateRequest& request) const {
  // Pin one generation for the whole request: resolution, routing,
  // estimation, and provenance all read the same published generation
  // even if Swap lands mid-request.
  return ServeOne(*CurrentGeneration(), request);
}

std::vector<StatusOr<EstimateResponse>> Engine::EstimateBatch(
    const EstimateRequest* requests, size_t num_requests) const {
  // One generation pin for the whole batch: every response of a batch is
  // served by the same published generation, whatever Swap does meanwhile.
  const std::shared_ptr<const Generation> generation = CurrentGeneration();
  std::vector<StatusOr<EstimateResponse>> responses(
      num_requests, Status::Internal("EstimateBatch: request not run"));
  // One pool task per request, resolution included (OD resolution is a
  // Dijkstra run — the dominant per-request cost of the OD scenario, so it
  // must not serialize on the caller thread). Each request is admitted,
  // fails, and meets its deadline alone — a bad or shed request never
  // fails the batch. Serving is deterministic, so the fan-out cannot
  // change results.
  pool_->ParallelFor(num_requests, [this, requests, &responses,
                                    &generation](size_t i) {
    responses[i] = ServeOne(*generation, requests[i]);
  });
  return responses;
}

StatusOr<RouteResponse> Engine::Route(const RouteRequest& request) const {
  AdmissionController::Slot slot;
  uint64_t inflight_now = 0;
  PCDE_RETURN_NOT_OK(admission_->Acquire(&slot, &inflight_now));
  std::optional<CancelToken> deadline_token;
  const CancelToken* cancel =
      SetupCancel(request.timeout_seconds, request.cancel, &deadline_token);
  const std::shared_ptr<const Generation> generation = CurrentGeneration();
  if (generation->slots.size() != 1) {
    return Status::FailedPrecondition(
        "Engine::Route serves 1-shard generations only");
  }
  PCDE_ASSIGN_OR_RETURN(epoch, AttachShard(*generation, 0));
  if (epoch->router == nullptr) {
    return Status::FailedPrecondition(
        "Engine::Route needs EngineOptions::graph");
  }
  auto result = epoch->router->Route(
      request.from, request.to, request.departure_time,
      request.budget_seconds, cancel,
      request.use_pruning_override ? &request.pruning : nullptr);
  if (!result.ok()) {
    CountUnwind(result.status());
    return result.status();
  }
  RouteResponse response;
  response.best_path = std::move(result.value().best_path);
  response.on_time_probability = result.value().best_probability;
  response.expansions = result.value().expansions;
  response.candidate_paths = result.value().candidate_paths;
  response.truncated = result.value().truncated;
  response.bound_pruned = result.value().bound_pruned;
  response.incumbent_pruned = result.value().incumbent_pruned;
  response.dominance_pruned = result.value().dominance_pruned;
  response.estimator_clones = result.value().estimator_clones;
  route_bound_pruned_.fetch_add(response.bound_pruned,
                                std::memory_order_relaxed);
  route_incumbent_pruned_.fetch_add(response.incumbent_pruned,
                                    std::memory_order_relaxed);
  route_dominance_pruned_.fetch_add(response.dominance_pruned,
                                    std::memory_order_relaxed);
  route_estimator_clones_.fetch_add(response.estimator_clones,
                                    std::memory_order_relaxed);
  response.model_fingerprint = generation->manifest.fingerprint;
  response.epoch = generation->sequence;
  response.inflight_at_admit = inflight_now;
  return response;
}

void Engine::CountUnwind(const Status& status) const {
  if (status.code() == StatusCode::kDeadlineExceeded) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  } else if (status.code() == StatusCode::kCancelled) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
}

EngineStats Engine::stats() const {
  const AdmissionController::Stats admission = admission_->stats();
  EngineStats stats;
  stats.admitted = admission.admitted;
  stats.shed = admission.shed;
  stats.inflight = admission.inflight;
  stats.inflight_highwater = admission.inflight_highwater;
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.route_bound_pruned =
      route_bound_pruned_.load(std::memory_order_relaxed);
  stats.route_incumbent_pruned =
      route_incumbent_pruned_.load(std::memory_order_relaxed);
  stats.route_dominance_pruned =
      route_dominance_pruned_.load(std::memory_order_relaxed);
  stats.route_estimator_clones =
      route_estimator_clones_.load(std::memory_order_relaxed);
  stats.swap_attempts = swap_attempts_.load(std::memory_order_relaxed);
  stats.swap_retries = swap_retries_.load(std::memory_order_relaxed);
  stats.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  stats.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  const auto generation = CurrentGeneration();
  for (const Slot& slot : generation->slots) {
    if (std::atomic_load(&slot.epoch) != nullptr) ++stats.shards_resident;
  }
  stats.shard_attaches = shard_attaches_.load(std::memory_order_relaxed);
  stats.shard_evictions = shard_evictions_.load(std::memory_order_relaxed);
  stats.cross_shard_requests =
      cross_shard_requests_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace serving
}  // namespace pcde
