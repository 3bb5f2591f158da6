#include "phases.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "core/chain_estimator.h"
#include "core/estimator.h"
#include "core/instantiation.h"
#include "core/serialization.h"
#include "hist/histogram_nd.h"
#include "hist/voptimal.h"
#include "reference.h"
#include "roadnet/shortest_path.h"
#include "traj/store.h"

namespace perfbench {

using pcde::Status;
using pcde::StatusOr;
using pcde::core::PathWeightFunction;
using pcde::roadnet::Path;
using pcde::roadnet::VertexId;
using pcde::serving::Engine;
using pcde::serving::EngineOptions;
using pcde::serving::EstimateRequest;
using pcde::serving::EstimateResponse;
using pcde::serving::PathSpec;
using pcde::serving::RouteRequest;
using pcde::serving::RouteResponse;

namespace {

constexpr double kBudgetQuantile = 0.8;  // estimate-request budgets
constexpr double kRouteBudgetQuantile = 0.5;
constexpr uint64_t kHistorySeed = 0;  // trip history of the served model

double FreeFlow(const pcde::roadnet::Edge& e) { return e.FreeFlowSeconds(); }

bool NearlyEqual(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(1.0, std::fabs(b));
}

/// Replays the histogram fits of an instantiation over windows the
/// benchmark gathers itself: V-optimal unit fits and joint N-d fits.
void ReplayFits(const std::vector<pcde::traj::MatchedTrajectory>& trips,
                const pcde::core::HybridParams& params, Tracer* tracer) {
  const WindowCensus census = CountFrequentWindows(
      trips, params.AlphaSeconds(), params.beta,
      params.max_instantiated_rank, /*keep_samples=*/true);
  for (const auto& [rank, windows] : census.samples) {
    ScopedSpan span(tracer, rank == 1 ? "hist.fit_unit" : "hist.fit_joint", 0);
    for (const auto& rows : windows) {
      if (rank == 1) {
        std::vector<double> samples;
        samples.reserve(rows.size());
        for (const auto& row : rows) samples.push_back(row[0]);
        (void)pcde::hist::BuildAutoHistogram(samples, params.bucket_options);
      } else {
        (void)pcde::hist::HistogramND::BuildFromSamples(rows,
                                                        params.bucket_options);
      }
    }
  }
}

std::unique_ptr<Engine> OpenEngine(const EngineOptions& options,
                                   Status* status) {
  auto engine = Engine::Open(options);
  if (!engine.ok()) {
    *status = engine.status();
    return nullptr;
  }
  return std::move(engine).value();
}

/// Where the overlap with the part after `i` begins (the part's own end for
/// the last part), as the chain sweep expects it.
size_t NextOverlapStart(const pcde::core::Decomposition& parts, size_t i) {
  return i + 1 < parts.size() ? parts[i + 1].start : parts[i].end();
}

/// The replayed layer calls of one estimate: OD resolution (for OD
/// requests), decomposition (OI), and on a cache miss the chain sweep (JC)
/// and finalization (MC), with the engine's default options.
void ReplayEstimate(const Context& ctx, const pcde::core::HybridEstimator& est,
                    const EstimateRequest& request, const Path& path,
                    bool cache_hit, uint64_t id, Tracer* tracer) {
  if (request.path.is_od) {
    ScopedSpan span(tracer, "roadnet.resolve", id);
    (void)pcde::roadnet::ShortestPath(
        ctx.world->graph, request.path.from, request.path.to,
        pcde::roadnet::FreeFlowWeight(ctx.world->graph));
  }
  std::optional<StatusOr<pcde::core::Decomposition>> de;
  {
    ScopedSpan span(tracer, "core.decompose", id);
    de.emplace(est.Decompose(path, request.departure_time));
  }
  if (!de->ok()) return;
  const pcde::core::Decomposition& parts = de->value();
  tracer->AddCount("core.parts", id, static_cast<double>(parts.size()));
  tracer->AddCount("core.cache_hit", id, cache_hit ? 1.0 : 0.0);
  if (cache_hit) return;
  const pcde::core::ChainOptions base = est.options().chain;
  for (int attempt = 0; attempt < 2; ++attempt) {
    pcde::core::ChainOptions options = base;
    options.force_independence = base.force_independence || attempt == 1;
    std::optional<pcde::core::ChainSweeper> sweeper;
    {
      ScopedSpan span(tracer, "core.sweep", id);
      sweeper.emplace(options);
      for (size_t i = 0; i < parts.size(); ++i) {
        sweeper->ApplyPart(parts[i], NextOverlapStart(parts, i));
      }
    }
    // The state's peak footprint, from an untimed second sweep so the
    // probes do not count as sweep time.
    pcde::core::ChainSweeper probe(options);
    size_t peak = 0;
    for (size_t i = 0; i < parts.size(); ++i) {
      probe.ApplyPart(parts[i], NextOverlapStart(parts, i));
      peak = std::max(peak, probe.MemoryBytes());
    }
    tracer->AddCount("core.sweep_peak_bytes", id, static_cast<double>(peak));
    std::optional<StatusOr<pcde::hist::Histogram1D>> dist;
    {
      ScopedSpan span(tracer, "core.finalize", id);
      dist.emplace(sweeper->Finalize());
    }
    if (dist->ok() ||
        dist->status().code() != pcde::StatusCode::kFailedPrecondition) {
      return;
    }
  }
}

/// Splits a round's stream into chunks of `size` operations and records
/// each full chunk's throughput.
class ChunkClock {
 public:
  ChunkClock(RoundStats* stats, size_t size)
      : stats_(stats), size_(size), start_(NowSeconds()) {}
  void Done(size_t ops) {
    done_ += ops;
    if (done_ < size_) return;
    const double now = NowSeconds();
    stats_->AddChunk(done_, now - start_);
    done_ = 0;
    start_ = now;
  }

 private:
  RoundStats* stats_;
  size_t size_;
  size_t done_ = 0;
  double start_;
};

/// Checks a summary's quantiles: non-decreasing and inside the support.
bool QuantilesSane(const pcde::serving::CostSummary& s) {
  for (size_t i = 0; i < s.quantiles.size(); ++i) {
    if (!(s.quantiles[i] >= s.support_lo && s.quantiles[i] <= s.support_hi)) {
      return false;
    }
    if (i > 0 && s.quantiles[i] < s.quantiles[i - 1]) return false;
  }
  return true;
}

double MassSum(const pcde::hist::Histogram1D& h) {
  double sum = 0.0;
  for (const auto& b : h.buckets()) sum += b.prob;
  return sum;
}

/// Ground-truth evaluation of one served distribution.
struct Evaluation {
  std::vector<double> crps;
  std::vector<double> on_time;
  void Add(const World& world, const Path& path, double depart, double budget,
           const pcde::hist::Histogram1D& dist, size_t samples,
           pcde::Rng* rng) {
    const std::vector<double> truth =
        SampleTravelTimes(world, path, depart, samples, rng);
    crps.push_back(Crps(PiecesOf(dist), truth));
    on_time.push_back(ShareWithin(truth, budget));
  }
  void Into(Quality* quality) const {
    quality->crps_s = Mean(crps);
    quality->on_time_truth = Mean(on_time);
  }
};

/// Serves `request` as an explicit-path request with the distribution
/// attached, on a reference engine.
StatusOr<EstimateResponse> ExplicitWithDistribution(const Engine& engine,
                                                    EstimateRequest request,
                                                    const Path& path) {
  request.path = PathSpec::ExplicitPath(path);
  request.want_distribution = true;
  return engine.Estimate(request);
}

// ---- od_serve ---------------------------------------------------------------

class OdPhase : public Phase {
 public:
  OdPhase(Context* ctx, size_t n) : ctx_(ctx), n_(n) {}

  Status Init() {
    const World& world = *ctx_->world;
    pcde::Rng rng(DeriveSeed(ctx_->seed, 21));
    std::map<std::pair<VertexId, VertexId>, size_t> index;
    for (const Demand& d : SampleDemand(world, n_, DeriveSeed(ctx_->seed, 20))) {
      auto [it, fresh] = index.try_emplace({d.from, d.to}, pairs_.size());
      if (fresh) {
        Pair pair;
        const ShortestPathTree tree =
            Dijkstra(world.graph, d.from, FreeFlow, d.to);
        pair.path = TreePath(world.graph, tree, d.to);
        pair.dist = tree.dist[d.to];
        pair.budget = SampleQuantile(
            SampleTravelTimes(world, pair.path, d.depart,
                              ctx_->sizes.budget_samples, &rng),
            kBudgetQuantile);
        pairs_.push_back(std::move(pair));
      }
      EstimateRequest request;
      request.path = PathSpec::OdPair(d.from, d.to);
      request.departure_time = d.depart;
      request.budget_seconds = pairs_[it->second].budget;
      requests_.push_back(std::move(request));
      pair_of_.push_back(it->second);
    }
    Status status;
    engine_ = OpenEngine(Options(), &status);
    return status;
  }

  Status WarmUp() {
    const Engine* engine = engine_.get();
    for (size_t i = 0; i < std::min<size_t>(500, requests_.size()); ++i) {
      (void)engine->Estimate(requests_[i]);
    }
    return Status::OK();
  }

  Status Round(RoundStats* stats) override {
    const Engine* engine = ColdEngine();
    const bool keep = responses_.empty();
    ChunkClock clock(stats, kChunk);
    for (const EstimateRequest& request : requests_) {
      const double t0 = NowSeconds();
      auto response = engine->Estimate(request);
      stats->AddLatency(NowSeconds() - t0);
      clock.Done(1);
      ++stats->ops;
      if (!response.ok()) ++stats->failed;
      if (keep) responses_.push_back(std::move(response));
    }
    return Status::OK();
  }

  Status Check(Checker* checker, Quality* quality) override {
    const World& world = *ctx_->world;
    Status status;
    auto reference = OpenEngine(ReferenceOptions(), &status);
    if (reference == nullptr) return status;
    std::vector<uint8_t> pair_checked(pairs_.size(), 0);
    size_t explicit_checks = 0;
    Evaluation eval;
    pcde::Rng rng(DeriveSeed(ctx_->seed, 22));
    for (size_t i = 0; i < responses_.size(); ++i) {
      if (!responses_[i].ok()) continue;
      const EstimateResponse& r = responses_[i].value();
      const EstimateRequest& q = requests_[i];
      const Pair& pair = pairs_[pair_of_[i]];
      const std::string tag = "od request " + std::to_string(i);
      checker->Expect(IsSimplePathBetween(world.graph, r.resolved_path,
                                          q.path.from, q.path.to),
                      tag + ": resolved path is not a simple path from origin "
                            "to destination");
      checker->Expect(
          NearlyEqual(FreeFlowCost(world.graph, r.resolved_path), pair.dist,
                      1e-9),
          tag + ": resolved path free-flow cost differs from Dijkstra");
      checker->Expect(QuantilesSane(r.summary),
                      tag + ": quantiles not monotone inside the support");
      if (pair_checked[pair_of_[i]] || explicit_checks >= kMaxExplicitChecks) {
        continue;
      }
      pair_checked[pair_of_[i]] = 1;
      ++explicit_checks;
      auto ex = ExplicitWithDistribution(*reference, q, r.resolved_path);
      checker->Expect(ex.ok() && ex->summary.ExactlyEquals(r.summary),
                      tag + ": OD response differs from the explicit-path "
                            "response for its resolved path");
      if (!ex.ok()) continue;
      const auto& dist = *ex->distribution;
      checker->Expect(
          NearlyEqual(CdfAt(PiecesOf(dist), q.budget_seconds),
                      r.summary.prob_within_budget, 1e-9),
          tag + ": prob_within_budget differs from integrating the buckets");
      checker->Expect(NearlyEqual(MassSum(dist), 1.0, 1e-9),
                      tag + ": bucket masses do not sum to 1");
      if (eval.crps.size() < ctx_->sizes.eval_requests) {
        eval.Add(world, r.resolved_path, q.departure_time, q.budget_seconds,
                 dist, ctx_->sizes.eval_samples, &rng);
      }
    }
    eval.Into(quality);
    return Status::OK();
  }

  Status Traced(Tracer* tracer) override {
    const Engine* engine = ColdEngine();
    const auto model = engine->model_snapshot();
    const pcde::core::HybridEstimator est(*model, engine->options().estimate);
    for (size_t i = 0; i < requests_.size(); ++i) {
      const int32_t span = tracer->Begin("serving.estimate", i);
      auto response = engine->Estimate(requests_[i]);
      const double end = NowSeconds();
      if (response.ok()) {
        ReplayEstimate(*ctx_, est, requests_[i], response->resolved_path,
                       response->served_from_cache, i, tracer);
      }
      tracer->EndAt(span, end);
    }
    return Status::OK();
  }

  void LayerMetrics(const TraceSummary& s,
                    std::vector<Metric>* metrics) const override {
    EstimateLayerMetrics(s, metrics);
    metrics->push_back(
        {"roadnet.resolve_ms", s.span("roadnet.resolve").mean() * 1e3, "ms"});
  }

  double CacheHitShare() const override {
    size_t hits = 0, served = 0;
    for (const auto& r : responses_) {
      if (!r.ok()) continue;
      ++served;
      hits += r->served_from_cache ? 1 : 0;
    }
    return served == 0 ? 0.0 : static_cast<double>(hits) / served;
  }

  /// The estimate-path layer metrics shared with the batch phase.
  static void EstimateLayerMetrics(const TraceSummary& s,
                                   std::vector<Metric>* metrics) {
    const SpanStats& sweep = s.span("core.sweep");
    metrics->push_back({"serving.estimate_self_ms",
                        s.span("serving.estimate").mean_self() * 1e3, "ms"});
    metrics->push_back(
        {"core.decompose_ms", s.span("core.decompose").mean() * 1e3, "ms"});
    metrics->push_back(
        {"core.parts_per_path", s.count("core.parts").mean(), "count"});
    metrics->push_back({"core.sweep_ms", sweep.mean() * 1e3, "ms"});
    metrics->push_back(
        {"core.sweep_p99_ms", Quantile(sweep.seconds, 0.99) * 1e3, "ms"});
    metrics->push_back({"core.sweep_peak_kb",
                        s.count("core.sweep_peak_bytes").mean() / 1024.0,
                        "KiB"});
    metrics->push_back(
        {"core.finalize_ms", s.span("core.finalize").mean() * 1e3, "ms"});
    metrics->push_back({"core.cache_hit_ratio",
                        s.count("core.cache_hit").mean(), "ratio"});
  }

 private:
  static constexpr size_t kMaxExplicitChecks = 2000;
  static constexpr size_t kChunk = 1000;

  struct Pair {
    Path path;
    double dist = 0.0;
    double budget = 0.0;
  };

  EngineOptions Options() const {
    return BaseEngineOptions(*ctx_, 1, size_t{64} << 20);
  }
  EngineOptions ReferenceOptions() const {
    return BaseEngineOptions(*ctx_, 1, 0);
  }

  /// The serving engine with an empty query cache: every round serves
  /// its stream from a cold cache.
  const Engine* ColdEngine() const {
    if (engine_->query_cache() != nullptr) engine_->query_cache()->Clear();
    return engine_.get();
  }

  Context* ctx_;
  size_t n_;
  std::unique_ptr<Engine> engine_;
  std::vector<Pair> pairs_;
  std::vector<EstimateRequest> requests_;
  std::vector<size_t> pair_of_;
  std::vector<StatusOr<EstimateResponse>> responses_;
};

// ---- path_batch -------------------------------------------------------------

class BatchPhase : public Phase {
 public:
  BatchPhase(Context* ctx, size_t n) : ctx_(ctx), n_(n) {}

  Status Init() {
    const World& world = *ctx_->world;
    paths_ = ObservedBiasedPaths(world, ctx_->edge_traversals, n_, 20, 80,
                                 DeriveSeed(ctx_->seed, 30));
    pcde::Rng rng(DeriveSeed(ctx_->seed, 31));
    for (const Path& path : paths_) {
      EstimateRequest request;
      request.path = PathSpec::ExplicitPath(path);
      request.departure_time = world.simulator->SampleDeparture(&rng);
      request.budget_seconds = SampleQuantile(
          SampleTravelTimes(world, path, request.departure_time,
                            ctx_->sizes.budget_samples, &rng),
          kBudgetQuantile);
      requests_.push_back(std::move(request));
    }
    Status status;
    engine_ = OpenEngine(Options(), &status);
    return status;
  }

  Status WarmUp() {
    const Engine* engine = engine_.get();
    for (size_t b = 0; b < 2 && (b + 1) * kBatch <= requests_.size(); ++b) {
      (void)engine->EstimateBatch(&requests_[b * kBatch], kBatch);
    }
    return Status::OK();
  }

  Status Round(RoundStats* stats) override {
    const Engine* engine = ColdEngine();
    const bool keep = results_.empty();
    ChunkClock clock(stats, kChunk);
    for (size_t b = 0; (b + 1) * kBatch <= requests_.size(); ++b) {
      const double t0 = NowSeconds();
      auto batch = engine->EstimateBatch(&requests_[b * kBatch], kBatch);
      stats->AddLatency(NowSeconds() - t0);
      clock.Done(kBatch);
      stats->ops += kBatch;
      for (auto& r : batch) {
        if (!r.ok()) ++stats->failed;
        if (keep) results_.push_back(std::move(r));
      }
    }
    return Status::OK();
  }

  Status Check(Checker* checker, Quality* quality) override {
    Status status;
    auto reference = OpenEngine(BaseEngineOptions(*ctx_, 1, 0), &status);
    if (reference == nullptr) return status;
    Evaluation eval;
    pcde::Rng rng(DeriveSeed(ctx_->seed, 32));
    for (size_t i = 0; i < results_.size(); ++i) {
      if (!results_[i].ok()) continue;
      const std::string tag = "batch request " + std::to_string(i);
      auto solo = ExplicitWithDistribution(*reference, requests_[i], paths_[i]);
      checker->Expect(solo.ok() &&
                          solo->summary.ExactlyEquals(results_[i]->summary),
                      tag + ": batch result differs from the solo estimate");
      if (!solo.ok()) continue;
      const auto& dist = *solo->distribution;
      checker->Expect(NearlyEqual(MassSum(dist), 1.0, 1e-9),
                      tag + ": bucket masses do not sum to 1");
      if (eval.crps.size() < ctx_->sizes.eval_requests) {
        eval.Add(*ctx_->world, paths_[i], requests_[i].departure_time,
                 requests_[i].budget_seconds, dist, ctx_->sizes.eval_samples,
                 &rng);
      }
    }
    eval.Into(quality);
    return Status::OK();
  }

  Status Traced(Tracer* tracer) override {
    Status status;
    const Engine* engine = ColdEngine();
    auto solo = OpenEngine(BaseEngineOptions(*ctx_, 1, 0), &status);
    if (solo == nullptr) return status;
    const auto model = engine->model_snapshot();
    const pcde::core::HybridEstimator est(*model, engine->options().estimate);
    // The batches back to back, as in an untraced round (replays between
    // them would let the workers fall asleep), then every request solo on
    // a cache-free engine with its layer replay.
    for (size_t b = 0; (b + 1) * kBatch <= requests_.size(); ++b) {
      ScopedSpan span(tracer, "serving.batch", b);
      (void)engine->EstimateBatch(&requests_[b * kBatch], kBatch);
    }
    for (size_t i = 0; i < requests_.size() / kBatch * kBatch; ++i) {
      const int32_t span = tracer->Begin("serving.estimate", i);
      auto response = solo->Estimate(requests_[i]);
      const double end = NowSeconds();
      if (response.ok()) {
        ReplayEstimate(*ctx_, est, requests_[i], paths_[i],
                       response->served_from_cache, i, tracer);
      }
      tracer->EndAt(span, end);
    }
    return Status::OK();
  }

  void LayerMetrics(const TraceSummary& s,
                    std::vector<Metric>* metrics) const override {
    OdPhase::EstimateLayerMetrics(s, metrics);
    const double solo = s.span("serving.estimate").total();
    const double batch = s.span("serving.batch").total();
    metrics->push_back({"serving.batch_efficiency",
                        solo / (batch * static_cast<double>(kWorkers)),
                        "ratio"});
  }

  double CacheHitShare() const override {
    size_t hits = 0;
    for (const auto& r : results_) hits += r.ok() && r->served_from_cache;
    return results_.empty() ? 0.0 : static_cast<double>(hits) / results_.size();
  }

 private:
  static constexpr size_t kBatch = 256;
  static constexpr size_t kChunk = kBatch;

  EngineOptions Options() const {
    return BaseEngineOptions(*ctx_, kWorkers, size_t{64} << 20);
  }

  /// The serving engine with an empty query cache: every round serves
  /// its stream from a cold cache.
  const Engine* ColdEngine() const {
    if (engine_->query_cache() != nullptr) engine_->query_cache()->Clear();
    return engine_.get();
  }

  Context* ctx_;
  size_t n_;
  std::unique_ptr<Engine> engine_;
  // One pool worker and 256-request batches. On a shared 4-vCPU host,
  // every extra runnable thread exposed the batch to other tenants' load:
  // over five seeds the batch p99 spread 0.28-0.38 with 2 workers (256 or
  // 512 requests), and with 64 requests it jumped between 4.3 and 10.5 ms
  // from run to run.
  static constexpr size_t kWorkers = 1;
  std::vector<Path> paths_;
  std::vector<EstimateRequest> requests_;
  std::vector<StatusOr<EstimateResponse>> results_;
};

// ---- route ------------------------------------------------------------------

class RoutePhase : public Phase {
 public:
  RoutePhase(Context* ctx, size_t n) : ctx_(ctx), n_(n) {}

  /// Draws kStrata * n candidate pairs, orders them by budget slack (the
  /// budget over the free-flow time, which sets how many paths fit the
  /// budget and so how far the search must go) and keeps every kStrata-th:
  /// the stream's mix of easy and hard searches is then a fixed set of
  /// slack quantiles rather than a fresh random draw per seed.
  Status Init() {
    const World& world = *ctx_->world;
    pcde::Rng rng(DeriveSeed(ctx_->seed, 51));
    std::set<std::pair<VertexId, VertexId>> seen;
    struct Candidate {
      RouteRequest request;
      Path shortest;
      double slack;
    };
    std::vector<Candidate> candidates;
    const std::vector<Demand> demand =
        SampleDemand(world, n_ * kStrata * 40, DeriveSeed(ctx_->seed, 50));
    for (const Demand& d : demand) {
      if (candidates.size() == n_ * kStrata) break;
      if (!seen.insert({d.from, d.to}).second) continue;
      const ShortestPathTree tree =
          Dijkstra(world.graph, d.from, FreeFlow, d.to);
      Candidate c;
      c.shortest = TreePath(world.graph, tree, d.to);
      if (c.shortest.size() < kMinEdges || c.shortest.size() > kMaxEdges) {
        continue;
      }
      c.request.from = d.from;
      c.request.to = d.to;
      c.request.departure_time = d.depart;
      c.request.budget_seconds = SampleQuantile(
          SampleTravelTimes(world, c.shortest, d.depart, kBudgetSamples, &rng),
          kRouteBudgetQuantile);
      c.slack = c.request.budget_seconds / tree.dist[d.to];
      candidates.push_back(std::move(c));
    }
    if (candidates.size() < n_ * kStrata) {
      return Status::Internal("route: too few OD pairs in the length range");
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.slack < b.slack;
                     });
    // Every kStrata-th by slack, then back into draw order (a fixed
    // permutation) so easy and hard searches interleave in the stream.
    std::vector<size_t> picked;
    for (size_t i = kStrata / 2; i < candidates.size(); i += kStrata) {
      picked.push_back(i);
    }
    pcde::Rng order(DeriveSeed(ctx_->seed, 53));
    order.Shuffle(&picked);
    for (size_t i : picked) {
      requests_.push_back(candidates[i].request);
      shortest_.push_back(std::move(candidates[i].shortest));
      slack_.push_back(candidates[i].slack);
    }
    Status status;
    engine_ = OpenEngine(Options(), &status);
    return status;
  }

  Status WarmUp() {
    const Engine* engine = engine_.get();
    for (size_t i = 0; i < std::min<size_t>(10, requests_.size()); ++i) {
      (void)engine->Route(requests_[i]);
    }
    return Status::OK();
  }

  Status Round(RoundStats* stats) override {
    const Engine* engine = ColdEngine();
    const bool keep = responses_.empty();
    // Chunks of 10 routes: the median chunk holds no search that runs to
    // the expansion cap, so the rate follows the typical search and not
    // how many capped searches a seed's stream happens to hold (whole-round
    // rates spread 0.34 over ten seeds); the capped tail is latency_p99_ms.
    ChunkClock clock(stats, kChunk);
    for (const RouteRequest& request : requests_) {
      const double t0 = NowSeconds();
      auto response = engine->Route(request);
      stats->AddLatency(NowSeconds() - t0);
      clock.Done(1);
      ++stats->ops;
      if (!response.ok()) ++stats->failed;
      if (keep) responses_.push_back(std::move(response));
    }
    return Status::OK();
  }

  Status Check(Checker* checker, Quality* quality) override {
    const World& world = *ctx_->world;
    Status status;
    auto reference = OpenEngine(BaseEngineOptions(*ctx_, 1, 0), &status);
    if (reference == nullptr) return status;
    // The unpruned reference search gets a larger expansion budget, so
    // more of the compared searches run to completion.
    EngineOptions plain_options = Options();
    plain_options.route_max_expansions = kCheckExpansions;
    auto plain_engine = OpenEngine(plain_options, &status);
    if (plain_engine == nullptr) return status;
    const auto model = reference->model_snapshot();
    Evaluation eval;
    std::vector<double> promised;
    pcde::Rng rng(DeriveSeed(ctx_->seed, 52));
    // The unpruned comparison runs on the tightest budgets, where the
    // unpruned search's bound cuts let it finish within its cap.
    std::vector<size_t> by_slack(responses_.size());
    for (size_t i = 0; i < by_slack.size(); ++i) by_slack[i] = i;
    std::stable_sort(by_slack.begin(), by_slack.end(),
                     [this](size_t a, size_t b) { return slack_[a] < slack_[b]; });
    std::vector<uint8_t> compare(responses_.size(), 0);
    for (size_t k = 0; k < std::min(kPlainChecks, by_slack.size()); ++k) {
      compare[by_slack[k]] = 1;
    }
    for (size_t i = 0; i < responses_.size(); ++i) {
      if (!responses_[i].ok()) continue;
      const RouteResponse& r = responses_[i].value();
      const RouteRequest& q = requests_[i];
      const std::string tag = "route " + std::to_string(i);
      const bool simple =
          IsSimplePathBetween(world.graph, r.best_path, q.from, q.to);
      checker->Expect(simple, tag + ": returned path is not a simple path "
                                    "from origin to destination");
      if (!simple) continue;
      if (!r.truncated) {
        const double p_shortest =
            IncrementalProbability(*model, shortest_[i], q);
        checker->Expect(r.on_time_probability >= p_shortest - 1e-12,
                        tag + ": route probability below the free-flow "
                              "shortest path's");
        if (compare[i]) {
          RouteRequest plain = q;
          plain.use_pruning_override = true;
          plain.pruning = pcde::routing::PruningOptions();
          auto unpruned = plain_engine->Route(plain);
          // An unpruned search that hits its expansion cap is no reference:
          // it reports truncation, or NotFound when it was cut off before
          // reaching the destination at all.
          if (unpruned.ok() && !unpruned->truncated) {
            ++plain_compared_;
            checker->Expect(
                unpruned->on_time_probability == r.on_time_probability,
                tag + ": pruned probability differs from the unpruned "
                      "search's");
          } else if (!unpruned.ok() &&
                     unpruned.status().code() != pcde::StatusCode::kNotFound) {
            checker->Expect(false, tag + ": unpruned search failed: " +
                                       unpruned.status().ToString());
          }
        }
      }
      if (eval.crps.size() < ctx_->sizes.eval_requests) {
        EstimateRequest estimate;
        estimate.departure_time = q.departure_time;
        estimate.budget_seconds = q.budget_seconds;
        auto ex = ExplicitWithDistribution(*reference, estimate, r.best_path);
        checker->Expect(ex.ok(), tag + ": estimate of the returned path failed");
        if (ex.ok()) {
          eval.Add(world, r.best_path, q.departure_time, q.budget_seconds,
                   *ex->distribution, ctx_->sizes.eval_samples, &rng);
          promised.push_back(r.on_time_probability);
        }
      }
    }
    eval.Into(quality);
    std::printf("route: %zu of the %zu tightest-budget routes compared with "
                "a complete unpruned search; on the evaluated routes the "
                "engine promised P(on time) %.3f on average, the simulator "
                "gave %.3f\n",
                plain_compared_, kPlainChecks, Mean(promised),
                quality->on_time_truth);
    return Status::OK();
  }

  Status Traced(Tracer* tracer) override {
    const Engine* engine = ColdEngine();
    const auto model = engine->model_snapshot();
    const pcde::roadnet::Graph& graph = ctx_->world->graph;
    for (size_t i = 0; i < requests_.size(); ++i) {
      const RouteRequest& q = requests_[i];
      const int32_t span = tracer->Begin("serving.route", i);
      auto response = engine->Route(q);
      const double end = NowSeconds();
      if (response.ok()) {
        tracer->AddCount("routing.expansions", i, response->expansions);
        tracer->AddCount("routing.clones", i, response->estimator_clones);
        tracer->AddCount("routing.cuts", i,
                         response->bound_pruned + response->incumbent_pruned +
                             response->dominance_pruned);
        {
          ScopedSpan lb(tracer, "roadnet.lower_bound", i);
          (void)pcde::roadnet::ReverseShortestPathTree(
              graph, q.to, pcde::roadnet::FreeFlowWeight(graph));
        }
        const Path& best = response->best_path;
        pcde::core::IncrementalEstimator inc(*model, engine->options().estimate,
                                             best[0], q.departure_time);
        for (size_t k = 1; k < best.size(); ++k) {
          ScopedSpan ext(tracer, "core.extend", i);
          (void)inc.ExtendByEdge(best[k]);
        }
      }
      tracer->EndAt(span, end);
    }
    return Status::OK();
  }

  void LayerMetrics(const TraceSummary& s,
                    std::vector<Metric>* metrics) const override {
    const double expansions = s.count("routing.expansions").sum();
    const double cuts = s.count("routing.cuts").sum();
    metrics->push_back({"roadnet.lower_bound_ms",
                        s.span("roadnet.lower_bound").mean() * 1e3, "ms"});
    metrics->push_back(
        {"core.extend_us", s.span("core.extend").mean() * 1e6, "us"});
    metrics->push_back({"routing.expansions",
                        s.count("routing.expansions").mean(), "count"});
    metrics->push_back(
        {"routing.clones", s.count("routing.clones").mean(), "count"});
    metrics->push_back(
        {"routing.prune_ratio", cuts / (cuts + expansions), "ratio"});
    metrics->push_back({"routing.us_per_expansion",
                        s.span("serving.route").total() / expansions * 1e6,
                        "us"});
  }

 private:
  static constexpr size_t kMinEdges = 6;
  static constexpr size_t kMaxEdges = 12;
  static constexpr size_t kBudgetSamples = 64;
  static constexpr size_t kPlainChecks = 16;
  static constexpr size_t kStrata = 4;
  // With a 10,000-expansion cap the heaviest search of a seed's stream set
  // the process's peak RSS (16.7 or 20-22 MB, depending on the seed); at
  // 3,000 no search outgrows the set-up (18.7-18.8 MB over twenty runs).
  static constexpr size_t kMaxExpansions = 3000;
  static constexpr size_t kCheckExpansions = 100000;
  static constexpr size_t kChunk = 10;

  EngineOptions Options() const {
    EngineOptions options = BaseEngineOptions(*ctx_, 1, size_t{64} << 20);
    options.route_pruning.incumbent = true;
    options.route_pruning.dominance = true;
    options.route_pruning.cheap_first = true;
    options.route_max_expansions = kMaxExpansions;
    return options;
  }

  /// P(cost <= budget) of `path` under the incremental estimator the
  /// router evaluates candidates with.
  static double IncrementalProbability(const PathWeightFunction& model,
                                       const Path& path,
                                       const RouteRequest& q) {
    pcde::core::IncrementalEstimator inc(
        model, pcde::core::EstimateOptions(), path[0], q.departure_time);
    for (size_t k = 1; k < path.size(); ++k) {
      if (!inc.ExtendByEdge(path[k]).ok()) return 0.0;
    }
    auto dist = inc.CurrentDistribution();
    return dist.ok() ? dist->ProbWithin(q.budget_seconds) : 0.0;
  }

  /// The serving engine with an empty query cache: every round serves
  /// its stream from a cold cache.
  const Engine* ColdEngine() const {
    if (engine_->query_cache() != nullptr) engine_->query_cache()->Clear();
    return engine_.get();
  }

  Context* ctx_;
  size_t n_;
  std::unique_ptr<Engine> engine_;
  std::vector<RouteRequest> requests_;
  std::vector<Path> shortest_;
  std::vector<double> slack_;  // budget over free-flow time, per request
  std::vector<StatusOr<RouteResponse>> responses_;
  size_t plain_compared_ = 0;
};

// ---- build ------------------------------------------------------------------

class RefreshPhase : public Phase {
 public:
  /// The census pass refreshes once; the workload's own traced round
  /// refreshes every generation, like an untraced round.
  RefreshPhase(Context* ctx, bool census) : ctx_(ctx), census_(census) {}

  Status Init() {
    const World& world = *ctx_->world;
    // Refresh k rebuilds from a rolling window: the served model's trip
    // history without its oldest refresh_new_trips, plus the k-th batch of
    // that many new trips. Each generation is mostly the history, so
    // refreshes cost about the same whatever the seed; built from seeded
    // trips alone, the mean refresh spread 0.21 and its p99 0.31 over five
    // seeds.
    const size_t kept = ctx_->trips.size() - ctx_->sizes.refresh_new_trips;
    sets_.resize(ctx_->sizes.refresh_sets);
    for (size_t k = 0; k < sets_.size(); ++k) {
      sets_[k].trips.assign(ctx_->trips.end() - kept, ctx_->trips.end());
      for (auto& trip : SimulateTrips(
               world,
               SampleDemand(world, ctx_->sizes.refresh_new_trips,
                            DeriveSeed(ctx_->seed, 100 + 2 * k)),
               DeriveSeed(ctx_->seed, 101 + 2 * k))) {
        sets_[k].trips.push_back(std::move(trip));
      }
      for (size_t i = 0; i < sets_[k].trips.size(); ++i) {
        sets_[k].trips[i].id = i;
      }
      sets_[k].artifact =
          ctx_->workdir + "/refresh_" + std::to_string(k) + ".pcdewf";
    }
    pcde::Rng rng(DeriveSeed(ctx_->seed, 43));
    for (const Demand& d : SampleDemand(world, ctx_->sizes.eval_requests,
                                        DeriveSeed(ctx_->seed, 42))) {
      const ShortestPathTree tree = Dijkstra(world.graph, d.from, FreeFlow, d.to);
      EstimateRequest request;
      request.path = PathSpec::ExplicitPath(TreePath(world.graph, tree, d.to));
      request.departure_time = d.depart;
      request.budget_seconds = SampleQuantile(
          SampleTravelTimes(world, request.path.edges, d.depart,
                            ctx_->sizes.budget_samples, &rng),
          kBudgetQuantile);
      eval_.push_back(std::move(request));
    }
    Status status;
    engine_ = OpenEngine(BaseEngineOptions(*ctx_, 1, size_t{64} << 20), &status);
    if (engine_ == nullptr) return status;
    epoch_ = engine_->epoch_sequence();
    return Status::OK();
  }

  /// One refresh of every generation in turn. Each refresh is one latency
  /// sample and the round one throughput chunk: generations differ in
  /// refresh time (the V-optimal fit cost grows with the square of each
  /// window's cost range), so throughput is taken over whole rounds.
  Status Round(RoundStats* stats) override {
    const double start = NowSeconds();
    for (size_t k = 0; k < sets_.size(); ++k) {
      const double t0 = NowSeconds();
      if (!Cycle(nullptr).ok()) ++stats->failed;
      stats->AddLatency(NowSeconds() - t0);
      ++stats->ops;
    }
    stats->AddChunk(sets_.size(), NowSeconds() - start);
    return Status::OK();
  }

  Status Check(Checker* checker, Quality* quality) override {
    const World& world = *ctx_->world;
    checker->Expect(swap_failures_ == 0, "a verified swap failed");
    checker->Expect(epoch_errors_ == 0,
                    "a verified swap did not publish the next epoch");
    checker->Expect(fingerprint_errors_ == 0,
                    "the engine does not serve the model just built");
    for (Set& set : sets_) {
      if (!set.built) continue;
      const std::string tag = "build of " + set.artifact;
      const WindowCensus census = CountFrequentWindows(
          set.trips, ctx_->params.AlphaSeconds(), ctx_->params.beta,
          ctx_->params.max_instantiated_rank, /*keep_samples=*/false);
      const size_t units =
          census.frequent_by_rank.count(1) ? census.frequent_by_rank.at(1) : 0;
      checker->Expect(set.unit_from_trajectories == units,
                      tag + ": unit-from-trajectory count " +
                          std::to_string(set.unit_from_trajectories) +
                          " != frequent unit windows " + std::to_string(units));
      checker->Expect(set.unit_from_speed_limit == world.graph.NumEdges(),
                      tag + ": speed-limit variables != edges");
      checker->Expect(set.by_rank == census.frequent_by_rank,
                      tag + ": per-level variable counts differ from the "
                            "frequent-window count");
      auto loaded = pcde::core::LoadWeightFunctionBinary(set.artifact);
      checker->Expect(loaded.ok() && loaded->fingerprint() == set.fingerprint,
                      tag + ": save -> load changed the fingerprint");
    }
    // Quality of the first set's model against a speed-limit-only model
    // built from the same trips, on the same evaluation requests.
    if (!sets_[0].built) return Status::OK();
    const double built_crps = EvalCrps(sets_[0].artifact, quality);
    pcde::core::HybridParams speed_only = ctx_->params;
    speed_only.beta = std::numeric_limits<size_t>::max();
    const std::string sl_artifact = ctx_->workdir + "/speed_limit.pcdewf";
    auto sl = BuildModel(world, sets_[0].trips, speed_only, sl_artifact, nullptr);
    if (!sl.ok()) return sl.status();
    Quality sl_quality;
    const double sl_crps = EvalCrps(sl_artifact, &sl_quality);
    std::printf("build: crps %.4f s vs speed-limit-only %.4f s\n", built_crps,
                sl_crps);
    checker->Expect(built_crps < sl_crps,
                    "the built model's CRPS does not beat a speed-limit-only "
                    "model's");
    double mb = 0.0;
    for (const Set& set : sets_) mb += set.artifact_mb;
    quality->model_mb = mb / static_cast<double>(sets_.size());
    return Status::OK();
  }

  Status Traced(Tracer* tracer) override {
    for (size_t k = 0; k < (census_ ? 1 : sets_.size()); ++k) {
      PCDE_RETURN_NOT_OK(Cycle(tracer));
    }
    return Status::OK();
  }

  void LayerMetrics(const TraceSummary& s,
                    std::vector<Metric>* metrics) const override {
    metrics->push_back({"serving.swap_s", s.span("serving.swap").mean(), "s"});
  }

 private:
  struct Set {
    std::vector<pcde::traj::MatchedTrajectory> trips;
    std::string artifact;
    bool built = false;
    size_t unit_from_trajectories = 0;
    size_t unit_from_speed_limit = 0;
    std::map<size_t, size_t> by_rank;
    uint64_t fingerprint = 0;
    double artifact_mb = 0.0;
  };

  /// One refresh: build the next generation from the next trip set, stamp
  /// golden probes on it, and swap it into the serving engine.
  Status Cycle(Tracer* tracer) {
    Set& set = sets_[cycles_ % sets_.size()];
    ++cycles_;
    ScopedSpan span(tracer, "serving.refresh", cycles_);
    auto built =
        BuildModel(*ctx_->world, set.trips, ctx_->params, set.artifact, tracer);
    if (!built.ok()) return built.status();
    pcde::serving::SwapOptions options;
    {
      ScopedSpan stamp(tracer, "serving.stamp_probes", cycles_);
      options.probes = StampProbes(*built->model);
    }
    StatusOr<uint64_t> epoch = Status::Internal("swap not run");
    {
      ScopedSpan swap(tracer, "serving.swap", cycles_);
      epoch = engine_->Swap(set.artifact, options);
    }
    if (!epoch.ok()) {
      ++swap_failures_;
      return epoch.status();
    }
    if (epoch.value() != epoch_ + 1) ++epoch_errors_;
    epoch_ = epoch.value();
    if (engine_->model_snapshot()->fingerprint() != built->model->fingerprint()) {
      ++fingerprint_errors_;
    }
    set.built = true;
    set.unit_from_trajectories = built->unit_from_trajectories;
    set.unit_from_speed_limit = built->unit_from_speed_limit;
    set.by_rank = built->model->CountByRank(/*include_speed_limit=*/false);
    set.fingerprint = built->model->fingerprint();
    set.artifact_mb = built->artifact_mb;
    return Status::OK();
  }

  /// Reference summaries of the probe requests, computed on the freshly
  /// built model exactly as a served response would carry them.
  std::vector<pcde::serving::GoldenProbe> StampProbes(
      const PathWeightFunction& model) const {
    const pcde::roadnet::Graph& graph = ctx_->world->graph;
    pcde::core::HybridEstimator est(model, engine_->options().estimate);
    est.set_edge_fallback([&graph](pcde::roadnet::EdgeId e)
                              -> StatusOr<pcde::hist::Histogram1D> {
      return pcde::core::FreeFlowEdgeHistogram(graph.edge(e),
                                               pcde::core::HybridParams());
    });
    std::vector<pcde::serving::GoldenProbe> probes;
    for (size_t i = 0; i < std::min(kProbes, eval_.size()); ++i) {
      const EstimateRequest& q = eval_[i];
      pcde::core::FallbackProvenance provenance;
      auto dist = est.EstimateWithFallback(q.path.edges, q.departure_time,
                                           &provenance);
      pcde::serving::GoldenProbe probe;
      probe.request = q;
      if (dist.ok()) {
        probe.has_reference = true;
        probe.reference = pcde::serving::SummarizeDistribution(
            dist.value(), q.stats, q.budget_seconds, q.quantiles);
        probe.reference.degradation = provenance.level;
        probe.reference.covered_fraction = provenance.covered_fraction;
      }
      probes.push_back(std::move(probe));
    }
    return probes;
  }

  double EvalCrps(const std::string& artifact, Quality* quality) const {
    EngineOptions options = BaseEngineOptions(*ctx_, 1, 0);
    options.model_path = artifact;
    Status status;
    auto engine = OpenEngine(options, &status);
    if (engine == nullptr) return std::numeric_limits<double>::infinity();
    Evaluation eval;
    pcde::Rng rng(DeriveSeed(ctx_->seed, 44));
    for (const EstimateRequest& q : eval_) {
      auto ex = ExplicitWithDistribution(*engine, q, q.path.edges);
      if (!ex.ok()) return std::numeric_limits<double>::infinity();
      eval.Add(*ctx_->world, q.path.edges, q.departure_time, q.budget_seconds,
               *ex->distribution, ctx_->sizes.eval_samples, &rng);
    }
    eval.Into(quality);
    return quality->crps_s;
  }

  static constexpr size_t kProbes = 8;

  Context* ctx_;
  bool census_;
  std::vector<Set> sets_;
  std::vector<EstimateRequest> eval_;
  std::unique_ptr<Engine> engine_;
  uint64_t epoch_ = 0;
  size_t cycles_ = 0;
  size_t swap_failures_ = 0;
  size_t epoch_errors_ = 0;
  size_t fingerprint_errors_ = 0;
};

}  // namespace

StatusOr<BuiltModel> BuildModel(
    const World& world, const std::vector<pcde::traj::MatchedTrajectory>& trips,
    const pcde::core::HybridParams& params, const std::string& artifact,
    Tracer* tracer) {
  std::optional<pcde::traj::TrajectoryStore> store;
  {
    ScopedSpan span(tracer, "traj.store", 0);
    store.emplace(trips);
  }
  pcde::core::WeightFunctionBuilder builder(
      pcde::core::TimeBinning(params.alpha_minutes));
  pcde::core::InstantiationStats stats;
  {
    const int32_t span =
        tracer == nullptr ? 0 : tracer->Begin("core.instantiate", 0);
    const Status status = pcde::core::InstantiateIntoBuilder(
        world.graph, *store, params, &builder, &stats);
    const double end = NowSeconds();
    if (tracer != nullptr) {
      {
        // The benchmark's own window census and fits: subtracted from the
        // refresh time when the tracing overhead is reckoned.
        ScopedSpan replay(tracer, "bench.replay_fits", 0);
        ReplayFits(trips, params, tracer);
      }
      tracer->EndAt(span, end);
    }
    if (!status.ok()) return status;
  }
  StatusOr<PathWeightFunction> frozen = Status::Internal("not frozen");
  {
    ScopedSpan span(tracer, "core.freeze", 0);
    frozen = std::move(builder).TryFreeze();
  }
  if (!frozen.ok()) return frozen.status();
  BuiltModel built;
  built.model =
      std::make_shared<const PathWeightFunction>(std::move(frozen).value());
  built.unit_from_trajectories = stats.unit_from_trajectories;
  built.unit_from_speed_limit = stats.unit_from_speed_limit;
  built.artifact = artifact;
  {
    ScopedSpan span(tracer, "core.save", 0);
    PCDE_RETURN_NOT_OK(
        pcde::core::SaveWeightFunctionBinary(*built.model, artifact));
  }
  built.artifact_mb =
      static_cast<double>(std::filesystem::file_size(artifact)) / 1e6;
  return built;
}

void RoundStats::AddLatency(double seconds) {
  ++calls;
  call_seconds += seconds;
  block_.push_back(seconds);
  if (block_.size() == kBlock) CloseBlock();
}

void RoundStats::CloseBlock() {
  block_p50_.push_back(Quantile(block_, 0.50));
  block_p99_.push_back(Quantile(block_, 0.99));
  block_.clear();
}

double RoundStats::LatencyQuantile(double q) {
  // Fewer calls than one block: the partial block is all there is.
  if (block_p50_.empty() && !block_.empty()) CloseBlock();
  return Median(q == 0.99 ? block_p99_ : block_p50_);
}

EngineOptions BaseEngineOptions(const Context& ctx, size_t num_threads,
                                size_t cache_bytes) {
  EngineOptions options;
  options.model_path = ctx.built.artifact;
  options.graph = &ctx.world->graph;
  options.num_threads = num_threads;
  options.query_cache_bytes = cache_bytes;
  return options;
}

Status SetupContext(Context* ctx, Tracer* tracer) {
  ctx->params.beta = ctx->sizes.beta;
  ctx->world = std::make_unique<World>();
  // The served model's trip history is the same for every run seed: drawn
  // from the seed, its size swung +-12% and with it the serving latencies
  // (od_serve p50 spread 0.24 over five seeds, against 0.06 for one seed
  // run five times). The seed draws the request streams and the build
  // workload's refresh batches.
  {
    ScopedSpan span(tracer, "traj.generate", 0);
    ctx->trips = SimulateTrips(
        *ctx->world,
        SampleDemand(*ctx->world, ctx->sizes.trips, DeriveSeed(kHistorySeed, 10)),
        DeriveSeed(kHistorySeed, 11));
  }
  ctx->edge_traversals.assign(ctx->world->graph.NumEdges(), 0);
  for (const auto& trip : ctx->trips) {
    for (auto e : trip.path) ++ctx->edge_traversals[e];
  }
  const double start = NowSeconds();
  auto built = BuildModel(*ctx->world, ctx->trips, ctx->params,
                          ctx->workdir + "/model.pcdewf", tracer);
  if (!built.ok()) return built.status();
  ctx->built = std::move(built).value();
  {
    ScopedSpan span(tracer, "core.load", 0);
    Status status;
    if (OpenEngine(BaseEngineOptions(*ctx, 1, 0), &status) == nullptr) {
      return status;
    }
  }
  ctx->build_seconds = NowSeconds() - start;
  return Status::OK();
}

StatusOr<std::unique_ptr<Phase>> MakePhase(PhaseKind kind, Context* ctx,
                                           bool census) {
  switch (kind) {
    case PhaseKind::kOd: {
      auto phase = std::make_unique<OdPhase>(ctx, census ? 1000 : 20000);
      PCDE_RETURN_NOT_OK(phase->Init());
      if (!census) PCDE_RETURN_NOT_OK(phase->WarmUp());
      return std::unique_ptr<Phase>(std::move(phase));
    }
    case PhaseKind::kBatch: {
      // The census keeps the full stream: it is only four 256-request batches.
      auto phase = std::make_unique<BatchPhase>(ctx, 1024);
      PCDE_RETURN_NOT_OK(phase->Init());
      if (!census) PCDE_RETURN_NOT_OK(phase->WarmUp());
      return std::unique_ptr<Phase>(std::move(phase));
    }
    case PhaseKind::kRoute: {
      auto phase = std::make_unique<RoutePhase>(ctx, census ? 20 : 1000);
      PCDE_RETURN_NOT_OK(phase->Init());
      if (!census) PCDE_RETURN_NOT_OK(phase->WarmUp());
      return std::unique_ptr<Phase>(std::move(phase));
    }
    case PhaseKind::kRefresh: {
      auto phase = std::make_unique<RefreshPhase>(ctx, census);
      PCDE_RETURN_NOT_OK(phase->Init());
      return std::unique_ptr<Phase>(std::move(phase));
    }
  }
  return Status::InvalidArgument("unknown phase");
}

}  // namespace perfbench
