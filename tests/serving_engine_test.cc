// Tests for the serving Engine facade (src/serving/engine.h): estimates
// served through the Engine — explicit-path and OD-pair request forms,
// with and without the attached caches, from an adopted model or a
// reloaded artifact — must be bit-identical to direct HybridEstimator
// wiring with the same options; the batch path must isolate per-request
// failures; Route must match the directly-wired DFS router.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/scoped_file.h"
#include "core/instantiation.h"
#include "core/serialization.h"
#include "hist/histogram_nd.h"
#include "roadnet/generators.h"
#include "roadnet/shortest_path.h"
#include "serving/engine.h"
#include "traj/store.h"

namespace pcde {
namespace serving {
namespace {

using core::EstimateOptions;
using core::HybridEstimator;
using core::PathWeightFunction;
using hist::Histogram1D;
using roadnet::Graph;
using roadnet::Path;
using roadnet::VertexId;

/// City-A speed-limit-fallback model, saved once as a binary artifact so
/// every test can Open independent engines over the same frozen model.
class ServingEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(roadnet::MakeCity(roadnet::CityAConfig()));
    wp_ = new PathWeightFunction(core::InstantiateWeightFunction(
        *graph_, traj::TrajectoryStore(), core::HybridParams()));
    artifact_ = MakeTempArtifactPath("pcde_engine_test");
    ASSERT_TRUE(core::SaveWeightFunctionBinary(*wp_, artifact_).ok());
  }
  static void TearDownTestSuite() {
    std::remove(artifact_.c_str());
    delete wp_;
    delete graph_;
    wp_ = nullptr;
    graph_ = nullptr;
  }

  /// Engine over the shared artifact; `cache_bytes` sizes the QueryCache
  /// (0 disables), single worker for determinism.
  static std::unique_ptr<Engine> OpenEngine(size_t cache_bytes,
                                            bool use_mmap = false) {
    EngineOptions options;
    options.model_path = artifact_;
    options.use_mmap = use_mmap;
    options.graph = graph_;
    options.num_threads = 1;
    options.query_cache_bytes = cache_bytes;
    auto engine = Engine::Open(std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  }

  static Path PathBetween(VertexId from, VertexId to) {
    auto p = roadnet::ShortestPath(*graph_, from, to,
                                   roadnet::FreeFlowWeight(*graph_));
    EXPECT_TRUE(p.ok());
    return p.ok() ? p.value() : Path();
  }

  static Graph* graph_;
  static PathWeightFunction* wp_;
  static std::string artifact_;
};

Graph* ServingEngineTest::graph_ = nullptr;
PathWeightFunction* ServingEngineTest::wp_ = nullptr;
std::string ServingEngineTest::artifact_;

constexpr double kDepart = 8 * 3600.0;

EstimateRequest WithDistribution(PathSpec spec) {
  EstimateRequest request;
  request.path = std::move(spec);
  request.departure_time = kDepart;
  request.want_distribution = true;
  return request;
}

// ---------------------------------------------------------------------------
// Bit-identity against direct HybridEstimator wiring
// ---------------------------------------------------------------------------

TEST_F(ServingEngineTest, ExplicitPathMatchesDirectWiringBitForBit) {
  auto engine = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(engine, nullptr);
  // Direct wiring over the engine's own model: same frozen arrays, same
  // options — the reference the facade must not perturb.
  HybridEstimator direct(engine->model(), engine->options().estimate);
  for (auto [from, to] : {std::pair<VertexId, VertexId>{0, 30},
                          {5, 40},
                          {2, 61}}) {
    const Path path = PathBetween(from, to);
    ASSERT_FALSE(path.empty());
    auto expected = direct.EstimateCostDistribution(path, kDepart);
    auto response = engine->Estimate(
        WithDistribution(PathSpec::ExplicitPath(path)));
    ASSERT_EQ(expected.ok(), response.ok());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response.value().distribution.has_value());
    EXPECT_TRUE(
        response.value().distribution->BitIdentical(expected.value()));
    EXPECT_EQ(response.value().resolved_path, path);
    EXPECT_FALSE(response.value().served_from_cache);
  }
}

TEST_F(ServingEngineTest, OdPairResolvesAndMatchesDirectWiring) {
  auto engine = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(engine, nullptr);
  const VertexId from = 0, to = 30;
  auto response =
      engine->Estimate(WithDistribution(PathSpec::OdPair(from, to)));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // The OD form resolves to the free-flow shortest path...
  const Path expected_path = PathBetween(from, to);
  EXPECT_EQ(response.value().resolved_path, expected_path);
  // ...and serves exactly what direct wiring over that path serves.
  HybridEstimator direct(engine->model(), engine->options().estimate);
  auto expected = direct.EstimateCostDistribution(expected_path, kDepart);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(response.value().distribution.has_value());
  EXPECT_TRUE(response.value().distribution->BitIdentical(expected.value()));
  // The explicit form of the resolved path is bit-identical too.
  auto explicit_response = engine->Estimate(
      WithDistribution(PathSpec::ExplicitPath(expected_path)));
  ASSERT_TRUE(explicit_response.ok());
  EXPECT_TRUE(explicit_response.value().distribution->BitIdentical(
      *response.value().distribution));
}

TEST_F(ServingEngineTest, CachedEngineIsBitIdenticalAndRecordsProvenance) {
  auto cached = OpenEngine(/*cache_bytes=*/size_t{8} << 20);
  auto uncached = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(cached, nullptr);
  ASSERT_NE(uncached, nullptr);
  ASSERT_NE(cached->query_cache(), nullptr);
  EXPECT_EQ(uncached->query_cache(), nullptr);
  const EstimateRequest request =
      WithDistribution(PathSpec::ExplicitPath(PathBetween(0, 30)));
  auto cold = cached->Estimate(request);
  auto warm = cached->Estimate(request);  // same decomposition: cache hit
  auto plain = uncached->Estimate(request);
  ASSERT_TRUE(cold.ok() && warm.ok() && plain.ok());
  EXPECT_FALSE(cold.value().served_from_cache);
  EXPECT_TRUE(warm.value().served_from_cache);
  EXPECT_GT(cached->query_cache()->stats().hits, 0u);
  EXPECT_TRUE(cold.value().distribution->BitIdentical(
      *plain.value().distribution));
  EXPECT_TRUE(warm.value().distribution->BitIdentical(
      *plain.value().distribution));
  EXPECT_TRUE(
      warm.value().summary.ExactlyEquals(plain.value().summary));
}

TEST_F(ServingEngineTest, AdoptedModelAndMmapLoadServeIdentically) {
  // Adopt a freshly-instantiated model (no artifact round trip)...
  EngineOptions adopt_options;
  adopt_options.graph = graph_;
  adopt_options.num_threads = 1;
  adopt_options.query_cache_bytes = 0;
  auto adopted = Engine::Open(
      core::InstantiateWeightFunction(*graph_, traj::TrajectoryStore(),
                                      core::HybridParams()),
      std::move(adopt_options));
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_EQ(adopted.value()->model().fingerprint(), wp_->fingerprint());
  // ...and open the saved artifact through the mmap path; both must serve
  // the exact same bytes as the buffered-read engine.
  auto mapped = OpenEngine(/*cache_bytes=*/0, /*use_mmap=*/true);
  auto buffered = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(mapped, nullptr);
  ASSERT_NE(buffered, nullptr);
  const EstimateRequest request =
      WithDistribution(PathSpec::ExplicitPath(PathBetween(5, 40)));
  auto a = adopted.value()->Estimate(request);
  auto m = mapped->Estimate(request);
  auto b = buffered->Estimate(request);
  ASSERT_TRUE(a.ok() && m.ok() && b.ok());
  EXPECT_TRUE(a.value().distribution->BitIdentical(*b.value().distribution));
  EXPECT_TRUE(m.value().distribution->BitIdentical(*b.value().distribution));
}

// ---------------------------------------------------------------------------
// CostSummary derivation
// ---------------------------------------------------------------------------

TEST_F(ServingEngineTest, SummaryStatsMatchTheDistribution) {
  auto engine = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(engine, nullptr);
  EstimateRequest request =
      WithDistribution(PathSpec::ExplicitPath(PathBetween(0, 30)));
  request.budget_seconds = 600.0;
  request.quantiles = {0.0, 0.25, 0.5, 0.95, 1.0};
  auto response = engine->Estimate(request);
  ASSERT_TRUE(response.ok());
  const Histogram1D& dist = *response.value().distribution;
  const CostSummary& s = response.value().summary;
  EXPECT_EQ(s.mean, dist.Mean());
  EXPECT_EQ(s.variance, dist.Variance());
  EXPECT_EQ(s.support_lo, dist.Min());
  EXPECT_EQ(s.support_hi, dist.Max());
  EXPECT_EQ(s.prob_within_budget, dist.ProbWithin(600.0));
  EXPECT_EQ(s.num_buckets, dist.NumBuckets());
  ASSERT_EQ(s.quantiles.size(), request.quantiles.size());
  for (size_t i = 0; i < s.quantiles.size(); ++i) {
    EXPECT_EQ(s.quantiles[i], dist.Quantile(request.quantiles[i]));
  }
}

TEST_F(ServingEngineTest, StatsMaskSkipsUnrequestedFields) {
  auto engine = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(engine, nullptr);
  EstimateRequest request;
  request.path = PathSpec::ExplicitPath(PathBetween(0, 30));
  request.departure_time = kDepart;
  request.stats = kStatMean;
  request.budget_seconds = 600.0;  // ignored: kStatCdfAtBudget not set
  auto response = engine->Estimate(request);
  ASSERT_TRUE(response.ok());
  const CostSummary& s = response.value().summary;
  EXPECT_FALSE(std::isnan(s.mean));
  EXPECT_TRUE(std::isnan(s.variance));
  EXPECT_TRUE(std::isnan(s.support_lo));
  EXPECT_TRUE(std::isnan(s.prob_within_budget));
  EXPECT_TRUE(s.quantiles.empty());
  EXPECT_FALSE(response.value().distribution.has_value());
}

// ---------------------------------------------------------------------------
// Batch: per-request status, one bad request never fails the batch
// ---------------------------------------------------------------------------

TEST_F(ServingEngineTest, BatchMixedValidityIsolatesFailuresPerRequest) {
  auto engine = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(engine, nullptr);
  const Path good1 = PathBetween(0, 30);
  const Path good2 = PathBetween(5, 40);
  std::vector<EstimateRequest> requests;
  requests.push_back(WithDistribution(PathSpec::ExplicitPath(good1)));
  requests.push_back(WithDistribution(PathSpec::ExplicitPath(Path())));
  requests.push_back(WithDistribution(
      PathSpec::ExplicitPath(Path({roadnet::EdgeId{999999}}))));
  requests.push_back(WithDistribution(PathSpec::OdPair(0, 0)));
  requests.push_back(WithDistribution(PathSpec::OdPair(5, 40)));
  requests.push_back(WithDistribution(PathSpec::ExplicitPath(good2)));
  auto responses = engine->EstimateBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());

  EXPECT_TRUE(responses[0].ok());
  EXPECT_EQ(responses[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(responses[2].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(responses[3].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[4].ok());
  EXPECT_TRUE(responses[5].ok());

  // The valid requests are served exactly as single Estimate serves them.
  for (size_t i : {size_t{0}, size_t{4}, size_t{5}}) {
    auto single = engine->Estimate(requests[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_TRUE(responses[i].value().distribution->BitIdentical(
        *single.value().distribution))
        << "request " << i;
    EXPECT_EQ(responses[i].value().resolved_path,
              single.value().resolved_path);
  }
}

TEST_F(ServingEngineTest, BatchMatchesSequentialAcrossWorkerCounts) {
  auto engine = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(engine, nullptr);
  std::vector<EstimateRequest> requests;
  for (auto [from, to] : {std::pair<VertexId, VertexId>{0, 30},
                          {5, 40},
                          {2, 61},
                          {0, 60}}) {
    requests.push_back(WithDistribution(PathSpec::ExplicitPath(
        PathBetween(from, to))));
  }
  auto batched = engine->EstimateBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    auto single = engine->Estimate(requests[i]);
    ASSERT_EQ(batched[i].ok(), single.ok());
    ASSERT_TRUE(batched[i].ok());
    EXPECT_TRUE(batched[i].value().distribution->BitIdentical(
        *single.value().distribution));
    EXPECT_GT(batched[i].value().serve_seconds, 0.0);
  }
}

TEST_F(ServingEngineTest, BatchResponsesCarryTheRequestedBreakdown) {
  auto engine = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(engine, nullptr);
  std::vector<EstimateRequest> requests;
  for (auto [from, to] : {std::pair<VertexId, VertexId>{0, 30},
                          {5, 40},
                          {2, 61}}) {
    EstimateRequest request = WithDistribution(
        PathSpec::ExplicitPath(PathBetween(from, to)));
    request.want_breakdown = true;
    requests.push_back(std::move(request));
  }
  auto batched = engine->EstimateBatch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    auto solo = engine->Estimate(requests[i]);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    // The batch serves through the same path as Estimate, so the
    // decomposition it reports is the solo serve's.
    EXPECT_GT(solo->breakdown.parts, 0u);
    EXPECT_EQ(batched[i]->breakdown.parts, solo->breakdown.parts);
    EXPECT_GE(batched[i]->breakdown.jc_seconds, 0.0);
  }
  // Without the flag the breakdown stays empty, batch or not.
  requests[0].want_breakdown = false;
  auto plain = engine->EstimateBatch(&requests[0], 1);
  ASSERT_TRUE(plain[0].ok());
  EXPECT_EQ(plain[0]->breakdown.parts, 0u);
}

// ---------------------------------------------------------------------------
// Routing through the Engine
// ---------------------------------------------------------------------------

TEST_F(ServingEngineTest, RouteMatchesDirectlyWiredRouter) {
  auto engine = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(engine, nullptr);
  const VertexId from = 0, to = 30;
  const double min_time = roadnet::ShortestPathCost(
      *graph_, from, to, roadnet::FreeFlowWeight(*graph_));
  ASSERT_LT(min_time, roadnet::kInfCost);
  RouteRequest request;
  request.from = from;
  request.to = to;
  request.departure_time = kDepart;
  request.budget_seconds = min_time * 1.3;
  auto response = engine->Route(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  routing::RouterConfig config;
  config.num_threads = 1;
  routing::DfsStochasticRouter direct(*graph_, engine->model(),
                                      engine->options().estimate, config);
  auto expected = direct.Route(from, to, kDepart, min_time * 1.3);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(response.value().best_path, expected.value().best_path);
  EXPECT_EQ(response.value().on_time_probability,
            expected.value().best_probability);
  EXPECT_EQ(response.value().candidate_paths,
            expected.value().candidate_paths);

  // Infeasible budgets surface the router's NotFound unchanged.
  request.budget_seconds = min_time * 0.1;
  EXPECT_EQ(engine->Route(request).status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Deadlines, cancellation, admission (ISSUE 7)
// ---------------------------------------------------------------------------

TEST_F(ServingEngineTest, ExpiredDeadlineReturnsCleanStatusNoPartialResponse) {
  auto engine = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(engine, nullptr);
  EstimateRequest request =
      WithDistribution(PathSpec::ExplicitPath(PathBetween(2, 61)));
  request.timeout_seconds = 1e-9;  // expired before the first checkpoint
  auto response = engine->Estimate(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine->stats().deadline_exceeded, 1u);

  // Route honours the same deadline contract.
  RouteRequest route;
  route.from = 0;
  route.to = 30;
  route.departure_time = kDepart;
  route.budget_seconds = 3600.0;
  route.timeout_seconds = 1e-9;
  EXPECT_EQ(engine->Route(route).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine->stats().deadline_exceeded, 2u);

  // The same requests without a deadline still serve normally — the
  // unwinds left no broken state behind.
  request.timeout_seconds = 0.0;
  EXPECT_TRUE(engine->Estimate(request).ok());
  route.timeout_seconds = 0.0;
  EXPECT_TRUE(engine->Route(route).ok());
}

TEST_F(ServingEngineTest, ExternalCancelTokenUnwindsWithCancelled) {
  auto engine = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(engine, nullptr);
  CancelToken token;
  token.Cancel();
  EstimateRequest request =
      WithDistribution(PathSpec::ExplicitPath(PathBetween(0, 30)));
  request.cancel = &token;
  auto response = engine->Estimate(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled);

  RouteRequest route;
  route.from = 0;
  route.to = 30;
  route.departure_time = kDepart;
  route.budget_seconds = 3600.0;
  route.cancel = &token;
  EXPECT_EQ(engine->Route(route).status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine->stats().cancelled, 2u);

  // A live (untripped) token is inert.
  CancelToken live;
  request.cancel = &live;
  EXPECT_TRUE(engine->Estimate(request).ok());
}

TEST_F(ServingEngineTest, BatchDeadlinesAndCancelAreScopedPerRequest) {
  auto engine = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(engine, nullptr);
  CancelToken tripped;
  tripped.Cancel();
  std::vector<EstimateRequest> requests;
  requests.push_back(WithDistribution(PathSpec::ExplicitPath(
      PathBetween(0, 30))));  // plain
  EstimateRequest dead =
      WithDistribution(PathSpec::ExplicitPath(PathBetween(5, 40)));
  dead.timeout_seconds = 1e-9;
  requests.push_back(dead);
  EstimateRequest cancelled =
      WithDistribution(PathSpec::ExplicitPath(PathBetween(2, 61)));
  cancelled.cancel = &tripped;
  requests.push_back(cancelled);
  requests.push_back(WithDistribution(PathSpec::ExplicitPath(
      PathBetween(0, 60))));  // plain again

  auto responses = engine->EstimateBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_TRUE(responses[0].ok());
  EXPECT_EQ(responses[1].status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(responses[2].status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(responses[3].ok());

  // The surviving requests serve exactly what single Estimate serves —
  // a neighbour's deadline or cancellation never bleeds into them.
  for (size_t i : {size_t{0}, size_t{3}}) {
    auto single = engine->Estimate(requests[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_TRUE(responses[i].value().summary.ExactlyEquals(
        single.value().summary))
        << "request " << i;
  }
}

TEST_F(ServingEngineTest, AdmissionCountersAndInflightStampOnResponses) {
  auto engine = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(engine, nullptr);
  const EstimateRequest request =
      WithDistribution(PathSpec::ExplicitPath(PathBetween(0, 30)));
  auto first = engine->Estimate(request);
  auto second = engine->Estimate(request);
  ASSERT_TRUE(first.ok() && second.ok());
  // Sequential single requests: exactly one in flight at admission.
  EXPECT_EQ(first.value().inflight_at_admit, 1u);
  EXPECT_EQ(second.value().inflight_at_admit, 1u);
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.inflight, 0u);  // both finished
  EXPECT_GE(stats.inflight_highwater, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST_F(ServingEngineTest, OverloadShedsWithResourceExhausted) {
  EngineOptions options;
  options.model_path = artifact_;
  options.graph = graph_;
  options.num_threads = 2;
  options.query_cache_bytes = 0;
  options.max_inflight_requests = 1;  // queue depth 0, timeout 0: hard shed
  auto opened = Engine::Open(std::move(options));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Engine& engine = *opened.value();

  const EstimateRequest request =
      WithDistribution(PathSpec::ExplicitPath(PathBetween(2, 61)));
  // Hammer the 1-slot engine from several concurrently looping threads
  // until a shed is observed (bounded iterations; individual requests are
  // microseconds, so the threads must loop to overlap reliably).
  constexpr int kThreads = 4;
  constexpr int kMaxItersPerThread = 20000;
  std::atomic<uint64_t> ok_count{0}, shed_count{0}, other_count{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kMaxItersPerThread && shed_count.load() == 0;
             ++i) {
          auto response = engine.Estimate(request);
          if (response.ok()) {
            ok_count.fetch_add(1);
          } else if (response.status().code() ==
                     StatusCode::kResourceExhausted) {
            shed_count.fetch_add(1);
          } else {
            other_count.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_GT(shed_count.load(), 0u);
  EXPECT_GT(ok_count.load(), 0u);  // shedding never starves everyone
  EXPECT_EQ(other_count.load(), 0u);  // only OK or clean shed, nothing else
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.admitted, ok_count.load());
  EXPECT_EQ(stats.shed, shed_count.load());
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.inflight_highwater, 1u);  // the cap held

  // After the storm the engine serves normally.
  auto calm = engine.Estimate(request);
  ASSERT_TRUE(calm.ok());
  EXPECT_EQ(calm.value().inflight_at_admit, 1u);
}

TEST_F(ServingEngineTest, GenerousLimitsAreBitIdenticalToNoLimits) {
  // The no-pressure contract: an engine with admission + deadlines
  // configured but not binding serves byte-for-byte what the default
  // engine serves.
  EngineOptions options;
  options.model_path = artifact_;
  options.graph = graph_;
  options.num_threads = 1;
  options.query_cache_bytes = 0;
  options.max_inflight_requests = 64;
  options.max_queue_depth = 16;
  options.queue_timeout_seconds = 10.0;
  auto limited = Engine::Open(std::move(options));
  ASSERT_TRUE(limited.ok());
  auto plain = OpenEngine(/*cache_bytes=*/0);
  ASSERT_NE(plain, nullptr);
  for (auto [from, to] : {std::pair<VertexId, VertexId>{0, 30}, {5, 40}}) {
    EstimateRequest request =
        WithDistribution(PathSpec::ExplicitPath(PathBetween(from, to)));
    request.timeout_seconds = 300.0;  // generous: never trips
    auto a = limited.value()->Estimate(request);
    request.timeout_seconds = 0.0;
    auto b = plain->Estimate(request);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(a.value().summary.ExactlyEquals(b.value().summary));
    EXPECT_TRUE(a.value().distribution->BitIdentical(*b.value().distribution));
  }
}

// ---------------------------------------------------------------------------
// Open / resolution error contract
// ---------------------------------------------------------------------------

TEST_F(ServingEngineTest, OpenAndResolutionErrors) {
  EngineOptions no_path;
  EXPECT_EQ(Engine::Open(std::move(no_path)).status().code(),
            StatusCode::kInvalidArgument);

  EngineOptions missing;
  missing.model_path = "/nonexistent/pcde-model.pcdewf";
  EXPECT_FALSE(Engine::Open(std::move(missing)).ok());

  // OD spec against an engine with no graph: FailedPrecondition.
  EngineOptions graphless;
  graphless.model_path = artifact_;
  graphless.num_threads = 1;
  auto engine = Engine::Open(std::move(graphless));
  ASSERT_TRUE(engine.ok());
  EstimateRequest od;
  od.path = PathSpec::OdPair(0, 30);
  EXPECT_EQ(engine.value()->Estimate(od).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.value()->Route([] {
                  RouteRequest r;
                  r.from = 0;
                  r.to = 30;
                  r.budget_seconds = 1e6;
                  return r;
                }())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Explicit paths still serve without a graph (no validation possible).
  auto response = engine.value()->Estimate(
      WithDistribution(PathSpec::ExplicitPath(PathBetween(0, 30))));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
}

}  // namespace
}  // namespace serving
}  // namespace pcde
