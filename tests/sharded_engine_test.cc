// Sharded serving: the shard compiler + manifest, served through the one
// Engine front door, tested against a monolithic Engine as ground truth.
//
//  * Equivalence: across 1/2/4 shards and buffered/mmap inner engines, a
//    path whose edges all fall in one shard's key range is served
//    EXACTLY (bit-identical CostSummary) like the monolithic Engine on
//    the unsplit artifact — the shard holds the same candidate rows in
//    the same order. A 1-shard split even reproduces the source model's
//    fingerprint.
//  * Stitch contract: cross-shard paths succeed, are flagged degradation
//    >= kSubpath with a length-weighted covered_fraction, stamp the
//    MANIFEST fingerprint, bump cross_shard_requests, and land within a
//    documented tolerance of the monolithic mean.
//  * Lazy attach + LRU: shards attach on first touch; max_resident_shards
//    evicts least-recently-touched; per-shard resident bytes stay
//    strictly below the monolithic model's.
//  * Refresh: Swap is a no-op on the same generation, reloads changed
//    shards on a new one, rejects re-sharding and corrupt/missing/short
//    shard files with the old manifest still published. A swap that fails
//    after some shards reloaded publishes nothing (no mixed generation),
//    also under concurrent serving; probes and rollback apply to sharded
//    generations.
//  * Corruption sweep (model_artifact_test pattern): byte-flips,
//    truncations, and version skew on the manifest all fail
//    LoadShardManifest/Open with clean Statuses.
//  * Concurrency: EstimateBatch across shards under ASan/TSan serves
//    bit-identically to sequential single-request serving; one admission
//    gate bounds the whole engine and counters survive LRU eviction.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "core/instantiation.h"
#include "core/serialization.h"
#include "core/shard_writer.h"
#include "core/weight_function.h"
#include "roadnet/shortest_path.h"
#include "serving/engine.h"
#include "traj/generator.h"
#include "traj/store.h"

namespace pcde {
namespace serving {
namespace {

using core::HybridParams;
using core::PathWeightFunction;
using core::ShardManifest;
using core::ShardWriteOptions;
using roadnet::Graph;
using roadnet::Path;
using roadnet::VertexId;

constexpr double kDepart = 8 * 3600.0;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ShardedEngineTest : public ::testing::Test {
 protected:
  static std::string Prefix() {
    return "pcde_sharded." + std::to_string(::getpid());
  }

  /// Splits wp_ into `num_shards` shards under a tagged prefix and records
  /// every file the generation owns for suite teardown.
  static std::string WriteGeneration(const PathWeightFunction& wp,
                                     const std::string& tag,
                                     size_t num_shards) {
    const std::string manifest = TempPath(Prefix() + "." + tag + ".pcdemf");
    ShardWriteOptions options;
    options.num_shards = num_shards;
    options.file_prefix = Prefix() + "." + tag;
    auto written = core::WriteModelShards(wp, manifest, options);
    EXPECT_TRUE(written.ok()) << written.status().ToString();
    files_->push_back(manifest);
    if (written.ok()) {
      for (const auto& shard : written.value().shards) {
        files_->push_back(TempPath(shard.file));
      }
    }
    return manifest;
  }

  static void SetUpTestSuite() {
    dataset_ = new traj::Dataset(traj::MakeDatasetA(800));
    graph_ = dataset_->graph.get();
    HybridParams params;
    params.beta = 8;  // low enough that trajectory windows qualify
    wp_ = new PathWeightFunction(core::InstantiateWeightFunction(
        *graph_, traj::TrajectoryStore(dataset_->MatchedSlice(1.0)), params));
    wp_alt_ = new PathWeightFunction(core::InstantiateWeightFunction(
        *graph_, traj::TrajectoryStore(), params));  // speed-limit-only gen
    ASSERT_NE(wp_->fingerprint(), wp_alt_->fingerprint());
    mono_bin_ = TempPath(Prefix() + ".mono.bin");
    ASSERT_TRUE(core::SaveWeightFunctionBinary(*wp_, mono_bin_).ok());
    files_->push_back(mono_bin_);
    manifest1_ = WriteGeneration(*wp_, "g1", 1);
    manifest2_ = WriteGeneration(*wp_, "g2", 2);
    manifest4_ = WriteGeneration(*wp_, "g4", 4);
  }

  static void TearDownTestSuite() {
    for (const std::string& p : *files_) std::remove(p.c_str());
    files_->clear();
    delete wp_alt_;
    delete wp_;
    delete dataset_;
    wp_alt_ = nullptr;
    wp_ = nullptr;
    dataset_ = nullptr;
    graph_ = nullptr;
  }

  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }
  std::string Track(std::string p) {
    cleanup_.push_back(p);
    return p;
  }

  static std::unique_ptr<Engine> OpenMono(bool use_mmap) {
    EngineOptions options;
    options.model_path = mono_bin_;
    options.graph = graph_;
    options.num_threads = 1;
    options.query_cache_bytes = 0;
    options.use_mmap = use_mmap;
    auto engine = Engine::Open(std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  }

  static EngineOptions ShardedOptions(const std::string& manifest,
                                      bool use_mmap,
                                      size_t max_resident_shards = 0,
                                      size_t num_threads = 1) {
    EngineOptions options;
    options.model_path = manifest;
    options.graph = graph_;
    options.num_threads = num_threads;
    options.query_cache_bytes = 0;
    options.use_mmap = use_mmap;
    options.max_resident_shards = max_resident_shards;
    return options;
  }

  static std::unique_ptr<Engine> OpenSharded(EngineOptions options) {
    auto engine = Engine::Open(std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  }

  static std::unique_ptr<Engine> OpenSharded(const std::string& manifest,
                                             bool use_mmap,
                                             size_t max_resident_shards = 0,
                                             size_t num_threads = 1) {
    return OpenSharded(ShardedOptions(manifest, use_mmap, max_resident_shards,
                                      num_threads));
  }

  static Path PathBetween(VertexId from, VertexId to) {
    auto p = roadnet::ShortestPath(*graph_, from, to,
                                   roadnet::FreeFlowWeight(*graph_));
    EXPECT_TRUE(p.ok());
    return p.ok() ? p.value() : Path();
  }

  static EstimateRequest RequestFor(Path path) {
    EstimateRequest request;
    request.path = PathSpec::ExplicitPath(std::move(path));
    request.departure_time = kDepart;
    return request;
  }

  static bool SingleShard(const ShardManifest& manifest, const Path& path) {
    const size_t owner = manifest.ShardOf(path[0]);
    for (size_t k = 1; k < path.size(); ++k) {
      if (manifest.ShardOf(path[k]) != owner) return false;
    }
    return true;
  }

  /// Scans shortest paths over a grid of OD pairs and splits them by
  /// whether every edge falls in one shard of `manifest`. The fixture
  /// models are dense enough that both buckets must be non-empty for
  /// any multi-shard split.
  static void ClassifyPaths(const ShardManifest& manifest,
                            std::vector<Path>* in_shard,
                            std::vector<Path>* cross_shard) {
    for (VertexId v = 0; v + 41 < graph_->NumVertices(); v += 7) {
      for (VertexId span : {17, 41}) {
        auto p = roadnet::ShortestPath(*graph_, v, v + span,
                                       roadnet::FreeFlowWeight(*graph_));
        if (!p.ok() || p.value().size() < 2) continue;
        (SingleShard(manifest, p.value()) ? in_shard : cross_shard)
            ->push_back(std::move(p).value());
      }
    }
  }

  static traj::Dataset* dataset_;
  static const Graph* graph_;
  static PathWeightFunction* wp_;      // trajectory-instantiated generation
  static PathWeightFunction* wp_alt_;  // speed-limit-only generation
  static std::string mono_bin_;
  static std::string manifest1_;
  static std::string manifest2_;
  static std::string manifest4_;
  static std::vector<std::string>* files_;
  std::vector<std::string> cleanup_;
};

traj::Dataset* ShardedEngineTest::dataset_ = nullptr;
const Graph* ShardedEngineTest::graph_ = nullptr;
PathWeightFunction* ShardedEngineTest::wp_ = nullptr;
PathWeightFunction* ShardedEngineTest::wp_alt_ = nullptr;
std::string ShardedEngineTest::mono_bin_;
std::string ShardedEngineTest::manifest1_;
std::string ShardedEngineTest::manifest2_;
std::string ShardedEngineTest::manifest4_;
std::vector<std::string>* ShardedEngineTest::files_ =
    new std::vector<std::string>();

// ---------------------------------------------------------------------------
// Shard compiler + manifest round trip
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, ManifestRoundTripsAndPartitionsTheKeySpace) {
  for (const std::string* manifest_path :
       {&manifest1_, &manifest2_, &manifest4_}) {
    auto loaded = core::LoadShardManifest(*manifest_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const ShardManifest& manifest = loaded.value();
    EXPECT_EQ(manifest.source_fingerprint, wp_->fingerprint());
    EXPECT_NE(manifest.fingerprint, 0u);
    ASSERT_FALSE(manifest.shards.empty());
    EXPECT_EQ(manifest.shards.front().key_lo, 0u);
    EXPECT_EQ(manifest.shards.back().key_hi, core::kMaxArtifactEdgeId - 1);
    for (size_t s = 1; s < manifest.shards.size(); ++s) {
      EXPECT_EQ(manifest.shards[s].key_lo, manifest.shards[s - 1].key_hi + 1);
    }
    // Every shard artifact exists next to the manifest with the declared
    // size and fingerprint.
    size_t total_vars = 0;
    for (const auto& shard : manifest.shards) {
      const std::string path = TempPath(shard.file);
      ASSERT_TRUE(std::filesystem::exists(path)) << path;
      EXPECT_EQ(std::filesystem::file_size(path), shard.bytes);
      auto peek = core::PeekBinaryArtifactFingerprint(path);
      ASSERT_TRUE(peek.ok()) << peek.status().ToString();
      EXPECT_EQ(peek.value(), shard.fingerprint);
      auto wp = core::LoadWeightFunctionBinary(path, /*use_mmap=*/false);
      ASSERT_TRUE(wp.ok()) << wp.status().ToString();
      total_vars += wp.value().NumVariables();
    }
    // The shards partition the variable set: no loss, no duplication.
    EXPECT_EQ(total_vars, wp_->NumVariables());
  }
}

TEST_F(ShardedEngineTest, SingleShardSplitReproducesTheSourceFingerprint) {
  auto loaded = core::LoadShardManifest(manifest1_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().shards.size(), 1u);
  // One shard holds every variable in id order: the re-frozen model is the
  // source model, fingerprint and all.
  EXPECT_EQ(loaded.value().shards[0].fingerprint, wp_->fingerprint());
}

TEST_F(ShardedEngineTest, WriterRejectsBadOptions) {
  const std::string manifest = Track(TempPath(Prefix() + ".bad.pcdemf"));
  ShardWriteOptions zero;
  zero.num_shards = 0;
  EXPECT_EQ(core::WriteModelShards(*wp_, manifest, zero).status().code(),
            StatusCode::kInvalidArgument);
  ShardWriteOptions nested;
  nested.file_prefix = "sub/shard";
  EXPECT_EQ(core::WriteModelShards(*wp_, manifest, nested).status().code(),
            StatusCode::kInvalidArgument);
  ShardWriteOptions too_many;
  too_many.num_shards = wp_->NumVariables() + 1;  // > distinct front edges
  EXPECT_EQ(core::WriteModelShards(*wp_, manifest, too_many).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(manifest));
}

// ---------------------------------------------------------------------------
// Equivalence: single-shard paths are bit-identical to the monolith
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, SingleShardPathsServeBitIdenticallyToMonolithic) {
  for (const std::string* manifest_path :
       {&manifest1_, &manifest2_, &manifest4_}) {
    auto loaded = core::LoadShardManifest(*manifest_path);
    ASSERT_TRUE(loaded.ok());
    std::vector<Path> in_shard;
    std::vector<Path> cross_shard;
    ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
    ASSERT_GE(in_shard.size(), 3u)
        << "fixture graph yields too few single-shard paths";
    if (loaded.value().shards.size() == 1) {
      EXPECT_TRUE(cross_shard.empty())
          << "one shard owns the whole key space";
    }
    for (const bool use_mmap : {false, true}) {
      SCOPED_TRACE(std::string("shards=") +
                   std::to_string(loaded.value().shards.size()) +
                   " mmap=" + std::to_string(use_mmap));
      auto mono = OpenMono(use_mmap);
      auto sharded = OpenSharded(*manifest_path, use_mmap);
      ASSERT_NE(mono, nullptr);
      ASSERT_NE(sharded, nullptr);
      for (const Path& path : in_shard) {
        EstimateRequest request = RequestFor(path);
        request.want_distribution = true;
        auto expected = mono->Estimate(request);
        auto got = sharded->Estimate(request);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(got->summary.ExactlyEquals(expected->summary))
            << "single-shard path must serve bit-identically";
        ASSERT_TRUE(got->distribution.has_value());
        EXPECT_TRUE(
            got->distribution->BitIdentical(expected->distribution.value()));
        EXPECT_EQ(got->resolved_path.edges(), expected->resolved_path.edges());
        // Provenance: the manifest generation and the sharded epoch, not
        // the inner shard's.
        EXPECT_EQ(got->model_fingerprint, loaded.value().fingerprint);
        EXPECT_EQ(got->epoch, 1u);
      }
      EXPECT_EQ(sharded->stats().cross_shard_requests, 0u);
    }
  }
}

TEST_F(ShardedEngineTest, OdRequestsResolveAndRouteIdentically) {
  auto mono = OpenMono(/*use_mmap=*/false);
  auto sharded = OpenSharded(manifest2_, /*use_mmap=*/false);
  ASSERT_NE(mono, nullptr);
  ASSERT_NE(sharded, nullptr);
  auto manifest = sharded->manifest_snapshot();
  const std::pair<VertexId, VertexId> ods[] = {{0, 30}, {5, 40}, {2, 61}};
  for (const auto& od : ods) {
    EstimateRequest request;
    request.path = PathSpec::OdPair(od.first, od.second);
    request.departure_time = kDepart;
    auto expected = mono->Estimate(request);
    auto got = sharded->Estimate(request);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Both front doors resolve the same deterministic free-flow path.
    EXPECT_EQ(got->resolved_path.edges(), expected->resolved_path.edges());
    if (SingleShard(*manifest, got->resolved_path)) {
      EXPECT_TRUE(got->summary.ExactlyEquals(expected->summary));
    } else {
      EXPECT_GE(got->summary.degradation, core::DegradationLevel::kSubpath);
    }
  }
  // Bad specs fail like the monolithic engine.
  EstimateRequest bad;
  bad.path = PathSpec::OdPair(0, 0);
  EXPECT_EQ(sharded->Estimate(bad).status().code(),
            StatusCode::kInvalidArgument);
  bad.path = PathSpec::ExplicitPath(Path());
  EXPECT_EQ(sharded->Estimate(bad).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Cross-shard stitch contract
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, CrossShardPathsStitchWithHonestProvenance) {
  auto loaded = core::LoadShardManifest(manifest2_);
  ASSERT_TRUE(loaded.ok());
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_GE(cross_shard.size(), 2u)
      << "fixture graph yields no cross-shard paths at 2 shards";

  auto mono = OpenMono(/*use_mmap=*/false);
  auto sharded = OpenSharded(manifest2_, /*use_mmap=*/false);
  ASSERT_NE(mono, nullptr);
  ASSERT_NE(sharded, nullptr);

  uint64_t expected_cross = 0;
  for (const Path& path : cross_shard) {
    EstimateRequest request = RequestFor(path);
    request.want_distribution = true;
    auto expected = mono->Estimate(request);
    auto got = sharded->Estimate(request);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ++expected_cross;
    // The stitch is explicitly degraded: never reported as exact, coverage
    // length-weighted over the segments.
    EXPECT_GE(got->summary.degradation, core::DegradationLevel::kSubpath);
    EXPECT_GT(got->summary.covered_fraction, 0.0);
    EXPECT_LE(got->summary.covered_fraction, 1.0);
    EXPECT_EQ(got->model_fingerprint, loaded.value().fingerprint);
    ASSERT_TRUE(got->distribution.has_value());
    // Documented accuracy contract: the boundary severs the decomposition,
    // so the stitched mean tracks — but need not equal — the monolithic
    // mean (docs/serving.md "Sharded serving").
    EXPECT_GT(got->summary.mean, 0.0);
    EXPECT_NEAR(got->summary.mean, expected->summary.mean,
                0.25 * expected->summary.mean);
    EXPECT_GE(got->summary.support_lo, 0.0);
    EXPECT_EQ(got->resolved_path.edges(), path.edges());
  }
  EXPECT_EQ(sharded->stats().cross_shard_requests, expected_cross);
  // The stitch is deterministic: repeating a request reproduces the answer
  // bit for bit.
  auto once = sharded->Estimate(RequestFor(cross_shard[0]));
  auto twice = sharded->Estimate(RequestFor(cross_shard[0]));
  ASSERT_TRUE(once.ok());
  ASSERT_TRUE(twice.ok());
  EXPECT_TRUE(once->summary.ExactlyEquals(twice->summary));
}

// ---------------------------------------------------------------------------
// Lazy attach, LRU cap, resident bytes
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, ShardsAttachLazilyAndLruCapEvicts) {
  auto loaded = core::LoadShardManifest(manifest4_);
  ASSERT_TRUE(loaded.ok());
  auto sharded = OpenSharded(manifest4_, /*use_mmap=*/false,
                             /*max_resident_shards=*/1);
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->manifest_snapshot()->shards.size(), 4u);
  // Open loads no payload: nothing resident until the first request.
  EXPECT_EQ(sharded->stats().shards_resident, 0u);
  EXPECT_EQ(sharded->ResidentBytes(), 0u);

  // Serve paths owned by at least two distinct shards.
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_GE(in_shard.size(), 2u);
  size_t distinct_owners = 0;
  std::vector<bool> seen(4, false);
  for (const Path& path : in_shard) {
    const size_t owner = loaded.value().ShardOf(path[0]);
    if (!seen[owner]) {
      seen[owner] = true;
      ++distinct_owners;
    }
    auto response = sharded->Estimate(RequestFor(path));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    // The cap holds at every step, not just at the end.
    EXPECT_LE(sharded->stats().shards_resident, 1u);
  }
  ASSERT_GE(distinct_owners, 2u)
      << "fixture paths all landed in one shard; widen the OD scan";

  const EngineStats stats = sharded->stats();
  EXPECT_EQ(stats.shards_resident, 1u);
  EXPECT_GE(stats.shard_attaches, distinct_owners);
  EXPECT_GE(stats.shard_evictions, distinct_owners - 1);
  // A cross-shard request under cap=1 still works: each segment's attach
  // evicts the other shard, in-flight segments finish on pinned engines.
  if (!cross_shard.empty()) {
    auto stitched = sharded->Estimate(RequestFor(cross_shard[0]));
    ASSERT_TRUE(stitched.ok()) << stitched.status().ToString();
    EXPECT_LE(sharded->stats().shards_resident, 1u);
  }
}

TEST_F(ShardedEngineTest, PerShardResidentBytesStayBelowMonolithic) {
  auto mono = OpenMono(/*use_mmap=*/false);
  ASSERT_NE(mono, nullptr);
  const size_t mono_bytes = mono->model().ResidentBytes();
  ASSERT_GT(mono_bytes, 0u);
  for (const std::string* manifest_path : {&manifest2_, &manifest4_}) {
    auto loaded = core::LoadShardManifest(*manifest_path);
    ASSERT_TRUE(loaded.ok());
    auto sharded = OpenSharded(*manifest_path, /*use_mmap=*/false);
    ASSERT_NE(sharded, nullptr);
    // Touch every shard so all are attached (unbounded cap).
    std::vector<Path> in_shard;
    std::vector<Path> cross_shard;
    ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
    for (const Path& path : in_shard) {
      ASSERT_TRUE(sharded->Estimate(RequestFor(path)).ok());
    }
    for (const Path& path : cross_shard) {
      ASSERT_TRUE(sharded->Estimate(RequestFor(path)).ok());
    }
    ASSERT_GT(sharded->stats().shards_resident, 1u);
    // The flat-memory claim sharding exists for: no single shard is as
    // large as the monolithic model.
    EXPECT_LT(sharded->MaxShardResidentBytes(), mono_bytes)
        << "at " << loaded.value().shards.size() << " shards";
    EXPECT_GT(sharded->MaxShardResidentBytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Per-shard refresh (Swap)
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, SwapIsNoOpOnSameGenerationAndReloadsOnNewOne) {
  auto sharded = OpenSharded(manifest2_, /*use_mmap=*/false);
  ASSERT_NE(sharded, nullptr);
  const uint64_t gen_a = sharded->manifest_snapshot()->fingerprint;
  // Attach both shards first so the swap exercises the reload path.
  auto loaded = core::LoadShardManifest(manifest2_);
  ASSERT_TRUE(loaded.ok());
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_FALSE(cross_shard.empty());
  ASSERT_TRUE(sharded->Estimate(RequestFor(cross_shard[0])).ok());
  ASSERT_EQ(sharded->stats().shards_resident, 2u);

  // Same generation: short-circuit, same epoch, nothing reloads.
  auto noop = sharded->Swap(manifest2_);
  ASSERT_TRUE(noop.ok()) << noop.status().ToString();
  EXPECT_EQ(noop.value(), 1u);
  EXPECT_EQ(sharded->epoch_sequence(), 1u);

  // A new generation (different model, same shard count, fresh files):
  // the swap publishes it and responses restamp.
  const std::string alt_manifest = WriteGeneration(*wp_alt_, "galt", 2);
  auto swapped = sharded->Swap(alt_manifest);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped.value(), 2u);
  EXPECT_NE(sharded->manifest_snapshot()->fingerprint, gen_a);

  // Served answers now ExactlyEqual a monolithic engine on the alt model
  // for single-shard paths of the NEW manifest.
  const std::string alt_bin = Track(TempPath(Prefix() + ".alt.bin"));
  ASSERT_TRUE(core::SaveWeightFunctionBinary(*wp_alt_, alt_bin).ok());
  EngineOptions mono_options;
  mono_options.model_path = alt_bin;
  mono_options.graph = graph_;
  mono_options.num_threads = 1;
  mono_options.query_cache_bytes = 0;
  auto mono_alt = Engine::Open(std::move(mono_options));
  ASSERT_TRUE(mono_alt.ok()) << mono_alt.status().ToString();
  auto alt_loaded = core::LoadShardManifest(alt_manifest);
  ASSERT_TRUE(alt_loaded.ok());
  size_t checked = 0;
  for (const Path& path : in_shard) {
    if (!SingleShard(alt_loaded.value(), path)) continue;
    auto expected = mono_alt.value()->Estimate(RequestFor(path));
    auto got = sharded->Estimate(RequestFor(path));
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->summary.ExactlyEquals(expected->summary));
    EXPECT_EQ(got->model_fingerprint, alt_loaded.value().fingerprint);
    EXPECT_EQ(got->epoch, 2u);
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "no single-shard path under the alt partition";

  // And back: the original generation republishes under epoch 3.
  auto back = sharded->Swap(manifest2_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), 3u);
  EXPECT_EQ(sharded->manifest_snapshot()->fingerprint, gen_a);
}

TEST_F(ShardedEngineTest, SwapRejectsReshardingWithOldManifestIntact) {
  auto sharded = OpenSharded(manifest2_, /*use_mmap=*/false);
  ASSERT_NE(sharded, nullptr);
  const uint64_t before = sharded->manifest_snapshot()->fingerprint;
  auto rejected = sharded->Swap(manifest4_);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().ToString().find("re-sharding"),
            std::string::npos)
      << rejected.status().ToString();
  EXPECT_EQ(sharded->manifest_snapshot()->fingerprint, before);
  EXPECT_EQ(sharded->epoch_sequence(), 1u);
  // Still serving.
  EXPECT_TRUE(sharded->Estimate(RequestFor(PathBetween(0, 30))).ok());
}

// ---------------------------------------------------------------------------
// Manifest + shard-file corruption (model_artifact_test pattern)
// ---------------------------------------------------------------------------

/// Opens an Engine on `manifest` expecting failure with a clean Status;
/// returns that Status.
Status OpenExpectingFailure(const std::string& manifest,
                            const roadnet::Graph* graph) {
  EngineOptions options;
  options.model_path = manifest;
  options.graph = graph;
  options.num_threads = 1;
  options.query_cache_bytes = 0;
  auto opened = Engine::Open(std::move(options));
  EXPECT_FALSE(opened.ok());
  return opened.ok() ? Status::OK() : opened.status();
}

TEST_F(ShardedEngineTest, ByteFlippedManifestsFailCleanly) {
  const std::vector<char> good = ReadAll(manifest2_);
  ASSERT_GE(good.size(), 64u + 2 * 48u);
  auto original = core::LoadShardManifest(manifest2_);
  ASSERT_TRUE(original.ok());
  const std::string flipped = Track(TempPath(Prefix() + ".flip.pcdemf"));
  // The header's reserved words [48, 64) are the only bytes outside the
  // checksum; a flip there must load as the SAME generation, a flip
  // anywhere else must be rejected with a clean Status.
  size_t rejected = 0;
  for (size_t off = 0; off < good.size(); ++off) {
    std::vector<char> bytes = good;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x5a);
    WriteAll(flipped, bytes);
    auto loaded = core::LoadShardManifest(flipped);
    if (off >= 48 && off < 64) {
      ASSERT_TRUE(loaded.ok()) << "reserved-byte flip at " << off << ": "
                               << loaded.status().ToString();
      EXPECT_EQ(loaded.value().fingerprint, original.value().fingerprint);
      continue;
    }
    ASSERT_FALSE(loaded.ok()) << "undetected flip at offset " << off;
    ++rejected;
    EXPECT_NE(loaded.status().code(), StatusCode::kOk);
  }
  EXPECT_EQ(rejected, good.size() - 16);
  // Spot-check the engine front door rejects a corrupted manifest too.
  std::vector<char> bytes = good;
  bytes[20] = static_cast<char>(bytes[20] ^ 0x5a);  // inside the checksum
  WriteAll(flipped, bytes);
  EXPECT_EQ(OpenExpectingFailure(flipped, graph_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardedEngineTest, TruncatedManifestsFailCleanly) {
  const std::vector<char> good = ReadAll(manifest2_);
  ASSERT_GE(good.size(), 64u + 2 * 48u);
  const std::string cut_path = Track(TempPath(Prefix() + ".cut.pcdemf"));
  const size_t cuts[] = {0,  1,  63,
                         64,  // header only, no records
                         64 + 48,
                         64 + 2 * 48,  // records but no name blob
                         good.size() - 1};
  for (const size_t cut : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    WriteAll(cut_path, std::vector<char>(good.begin(), good.begin() + cut));
    auto loaded = core::LoadShardManifest(cut_path);
    ASSERT_FALSE(loaded.ok()) << "undetected truncation at " << cut;
    EXPECT_FALSE(OpenExpectingFailure(cut_path, graph_).ok());
  }
  // A manifest that grew a trailing byte is equally torn.
  std::vector<char> grown = good;
  grown.push_back('\0');
  WriteAll(cut_path, grown);
  EXPECT_FALSE(core::LoadShardManifest(cut_path).ok());
}

TEST_F(ShardedEngineTest, VersionSkewNamesTheVersionInTheMessage) {
  std::vector<char> bytes = ReadAll(manifest2_);
  ASSERT_GT(bytes.size(), 64u);
  bytes[8] = 99;  // version field (little-endian u32 at offset 8)
  const std::string skewed = Track(TempPath(Prefix() + ".skew.pcdemf"));
  WriteAll(skewed, bytes);
  auto loaded = core::LoadShardManifest(skewed);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().ToString().find("version"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(ShardedEngineTest, MissingShortOrForeignShardFilesFailOpenAndSwap) {
  // A dedicated generation this test may corrupt freely.
  const std::string manifest = WriteGeneration(*wp_, "corrupt", 2);
  auto loaded = core::LoadShardManifest(manifest);
  ASSERT_TRUE(loaded.ok());
  const std::string shard0 = TempPath(loaded.value().shards[0].file);
  const std::vector<char> shard0_bytes = ReadAll(shard0);
  ASSERT_FALSE(shard0_bytes.empty());

  // An engine already serving a DIFFERENT generation: every failed Swap
  // below must leave it publishing that generation.
  auto sharded = OpenSharded(manifest2_, /*use_mmap=*/false);
  ASSERT_NE(sharded, nullptr);
  const uint64_t before = sharded->manifest_snapshot()->fingerprint;

  // (a) Missing shard file.
  ASSERT_EQ(std::remove(shard0.c_str()), 0);
  EXPECT_EQ(OpenExpectingFailure(manifest, graph_).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sharded->Swap(manifest).status().code(), StatusCode::kNotFound);

  // (b) Short (truncated) shard file: rejected by the size check alone.
  WriteAll(shard0, std::vector<char>(shard0_bytes.begin(),
                                     shard0_bytes.begin() +
                                         shard0_bytes.size() / 2));
  {
    const Status open_status = OpenExpectingFailure(manifest, graph_);
    EXPECT_EQ(open_status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(open_status.ToString().find("manifest declares"),
              std::string::npos)
        << open_status.ToString();
  }
  EXPECT_EQ(sharded->Swap(manifest).status().code(),
            StatusCode::kInvalidArgument);

  // (c) Right size, wrong content: flip a checksum byte so the header
  // fingerprint no longer matches the manifest record.
  std::vector<char> foreign = shard0_bytes;
  foreign[16] = static_cast<char>(foreign[16] ^ 0x5a);
  WriteAll(shard0, foreign);
  {
    const Status open_status = OpenExpectingFailure(manifest, graph_);
    EXPECT_EQ(open_status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(open_status.ToString().find("fingerprint"), std::string::npos)
        << open_status.ToString();
  }
  EXPECT_EQ(sharded->Swap(manifest).status().code(),
            StatusCode::kInvalidArgument);

  // The old generation survived every rejected swap.
  EXPECT_EQ(sharded->manifest_snapshot()->fingerprint, before);
  EXPECT_EQ(sharded->epoch_sequence(), 1u);
  EXPECT_TRUE(sharded->Estimate(RequestFor(PathBetween(0, 30))).ok());

  // (d) Restored bytes open cleanly again.
  WriteAll(shard0, shard0_bytes);
  auto reopened = OpenSharded(manifest, /*use_mmap=*/false);
  EXPECT_NE(reopened, nullptr);
}

// ---------------------------------------------------------------------------
// Concurrency: batched serving across shards (run under ASan/TSan in CI)
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, ConcurrentBatchMatchesSequentialServing) {
  auto loaded = core::LoadShardManifest(manifest4_);
  ASSERT_TRUE(loaded.ok());
  auto sharded = OpenSharded(manifest4_, /*use_mmap=*/false,
                             /*max_resident_shards=*/0, /*num_threads=*/4);
  auto mono = OpenMono(/*use_mmap=*/false);
  ASSERT_NE(sharded, nullptr);
  ASSERT_NE(mono, nullptr);

  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_FALSE(in_shard.empty());
  std::vector<EstimateRequest> batch;
  for (size_t i = 0; i < 32; ++i) {
    const std::vector<Path>& pool =
        (i % 2 == 0 || cross_shard.empty()) ? in_shard : cross_shard;
    batch.push_back(RequestFor(pool[i % pool.size()]));
  }

  // Sequential ground truth first (fresh engine state is irrelevant: the
  // serve path is stateless outside caches, which are disabled).
  std::vector<CostSummary> sequential;
  for (const EstimateRequest& request : batch) {
    auto response = sharded->Estimate(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    sequential.push_back(response.value().summary);
  }

  auto responses = sharded->EstimateBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
    EXPECT_TRUE(responses[i].value().summary.ExactlyEquals(sequential[i]))
        << "concurrent batch diverged from sequential serving";
    // Single-shard members must also equal the monolith exactly.
    if (SingleShard(loaded.value(), responses[i].value().resolved_path)) {
      auto expected = mono->Estimate(batch[i]);
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(
          responses[i].value().summary.ExactlyEquals(expected->summary));
    }
  }
}

// ---------------------------------------------------------------------------
// Generation atomicity: a multi-shard swap publishes all of it or nothing
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, FailedMidSwapLeavesTheOldGenerationServing) {
  auto loaded = core::LoadShardManifest(manifest2_);
  ASSERT_TRUE(loaded.ok());
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_FALSE(in_shard.empty());
  ASSERT_FALSE(cross_shard.empty());

  auto sharded = OpenSharded(manifest2_, /*use_mmap=*/false);
  ASSERT_NE(sharded, nullptr);
  // References from the old generation; the cross-shard request attaches
  // both shards, so the swap below must reload both.
  std::vector<EstimateRequest> requests;
  for (size_t i = 0; i < 4 && i < in_shard.size(); ++i) {
    requests.push_back(RequestFor(in_shard[i]));
  }
  for (size_t i = 0; i < 4 && i < cross_shard.size(); ++i) {
    requests.push_back(RequestFor(cross_shard[i]));
  }
  std::vector<CostSummary> reference;
  for (const EstimateRequest& request : requests) {
    auto response = sharded->Estimate(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    reference.push_back(response->summary);
  }
  ASSERT_EQ(sharded->stats().shards_resident, 2u);
  const uint64_t epoch_before = sharded->epoch_sequence();
  const uint64_t fingerprint_before = sharded->manifest_snapshot()->fingerprint;

  // A new generation whose every shard differs from the served one.
  const std::string alt_manifest = WriteGeneration(*wp_alt_, "midswap", 2);
  auto alt = core::LoadShardManifest(alt_manifest);
  ASSERT_TRUE(alt.ok());
  for (size_t s = 0; s < 2; ++s) {
    ASSERT_NE(alt.value().shards[s].fingerprint,
              loaded.value().shards[s].fingerprint);
  }
  {
    // The first changed shard reloads; the second shard's load fails.
    fault::ScopedFaultInjection injection;
    fault::FaultPlan plan;
    plan.fail_on_hit = 2;
    ASSERT_TRUE(injection.Arm("serving.swap.load", plan).ok());
    auto swapped = sharded->Swap(alt_manifest);
    ASSERT_FALSE(swapped.ok());
    EXPECT_EQ(swapped.status().code(), StatusCode::kInternal);
    EXPECT_EQ(fault::FaultSiteHits("serving.swap.load"), 2u);
  }
  EXPECT_EQ(sharded->epoch_sequence(), epoch_before);
  EXPECT_EQ(sharded->manifest_snapshot()->fingerprint, fingerprint_before);
  // Every answer — in-shard and stitched — is still the old generation's,
  // bit for bit: the reloaded first shard never became reachable.
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    auto response = sharded->Estimate(requests[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->summary.ExactlyEquals(reference[i]));
    EXPECT_EQ(response->model_fingerprint, fingerprint_before);
    EXPECT_EQ(response->epoch, epoch_before);
  }
  // With the fault gone the same swap publishes the whole new generation.
  auto retried = sharded->Swap(alt_manifest);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value(), epoch_before + 1);
  EXPECT_EQ(sharded->manifest_snapshot()->fingerprint, alt.value().fingerprint);
}

TEST_F(ShardedEngineTest, ConcurrentSwapAndServeNeverMixesGenerations) {
  // Two good generations (A: the trajectory model, B: the speed-limit-only
  // one) and, for each, a torn copy whose second shard has a corrupted
  // payload behind an intact header: it passes the swap's file validation
  // and fails only when the swap loads it, after the first shard reloaded.
  const std::string gen_a = manifest2_;
  const std::string gen_b = WriteGeneration(*wp_alt_, "concb", 2);
  auto tear = [](const std::string& manifest) {
    auto loaded = core::LoadShardManifest(manifest);
    EXPECT_TRUE(loaded.ok());
    const std::string shard1 = TempPath(loaded.value().shards[1].file);
    std::vector<char> bytes = ReadAll(shard1);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
    WriteAll(shard1, bytes);
    EXPECT_TRUE(core::PeekBinaryArtifactFingerprint(shard1).ok());
    EXPECT_FALSE(core::LoadWeightFunctionBinary(shard1, false).ok())
        << "the torn shard must fail its full load";
  };
  const std::string torn_a = WriteGeneration(*wp_, "conctorna", 2);
  const std::string torn_b = WriteGeneration(*wp_alt_, "conctornb", 2);
  tear(torn_a);
  tear(torn_b);

  // Requests mixing in-shard and cross-shard paths under either partition.
  auto loaded = core::LoadShardManifest(gen_a);
  ASSERT_TRUE(loaded.ok());
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_FALSE(cross_shard.empty());
  std::vector<EstimateRequest> requests;
  for (size_t i = 0; i < 6; ++i) {
    requests.push_back(RequestFor(in_shard[i % in_shard.size()]));
    requests.push_back(RequestFor(cross_shard[i % cross_shard.size()]));
  }
  // Per-generation references, keyed by the fingerprint responses stamp.
  std::unordered_map<uint64_t, std::vector<CostSummary>> references;
  for (const std::string* manifest : {&gen_a, &gen_b}) {
    auto engine = OpenSharded(*manifest, /*use_mmap=*/false);
    ASSERT_NE(engine, nullptr);
    std::vector<CostSummary>& ref =
        references[engine->manifest_snapshot()->fingerprint];
    for (const EstimateRequest& request : requests) {
      auto response = engine->Estimate(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ref.push_back(response->summary);
    }
  }
  ASSERT_EQ(references.size(), 2u);

  auto sharded = OpenSharded(gen_a, /*use_mmap=*/false, /*max_resident=*/0,
                             /*num_threads=*/2);
  ASSERT_NE(sharded, nullptr);
  // Attach both shards so every swap below reloads changed shards eagerly.
  ASSERT_TRUE(sharded->Estimate(requests[1]).ok());
  ASSERT_EQ(sharded->stats().shards_resident, 2u);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> mixed{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t k = c; !done.load(std::memory_order_acquire); ++k) {
        const size_t i = k % requests.size();
        auto response = sharded->Estimate(requests[i]);
        if (!response.ok()) {
          failed.fetch_add(1);
          continue;
        }
        served.fetch_add(1);
        auto ref = references.find(response->model_fingerprint);
        if (ref == references.end() ||
            !response->summary.ExactlyEquals(ref->second[i])) {
          mixed.fetch_add(1);
        }
      }
    });
  }
  // The swapper alternates good and torn generations: serving A it tries
  // torn B (fails mid-swap) then B; serving B it tries torn A then A.
  size_t good_swaps = 0;
  for (size_t round = 0; round < 6; ++round) {
    const bool serving_a = round % 2 == 0;
    auto torn = sharded->Swap(serving_a ? torn_b : torn_a);
    EXPECT_FALSE(torn.ok()) << "torn generation published in round " << round;
    auto good = sharded->Swap(serving_a ? gen_b : gen_a);
    EXPECT_TRUE(good.ok()) << good.status().ToString();
    good_swaps += good.ok() ? 1 : 0;
    // Let the clients serve a little on each generation.
    const uint64_t target = served.load() + 8;
    while (served.load() < target && failed.load() == 0) {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(good_swaps, 6u);
  EXPECT_EQ(sharded->epoch_sequence(), 1u + good_swaps);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(mixed.load(), 0u) << "a response mixed shard generations";
}

TEST_F(ShardedEngineTest, ProbesAndRollbackApplyToShardedGenerations) {
  auto loaded = core::LoadShardManifest(manifest2_);
  ASSERT_TRUE(loaded.ok());
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_FALSE(cross_shard.empty());
  EngineOptions options = ShardedOptions(manifest2_, /*use_mmap=*/false);
  options.swap_policy.rollback_capacity = 2;
  auto sharded = OpenSharded(std::move(options));
  ASSERT_NE(sharded, nullptr);
  const uint64_t gen_a = sharded->manifest_snapshot()->fingerprint;

  // A probe stamped on the served generation rejects a candidate that
  // answers it differently; nothing publishes. The probe is a cross-shard
  // path the two generations disagree on (paths without trajectory
  // coverage answer alike under both).
  const std::string alt_manifest = WriteGeneration(*wp_alt_, "probed", 2);
  auto alt_engine = OpenSharded(alt_manifest, /*use_mmap=*/false);
  ASSERT_NE(alt_engine, nullptr);
  GoldenProbe probe;
  probe.has_reference = true;
  bool found = false;
  for (const Path& path : cross_shard) {
    probe.request = RequestFor(path);
    auto stamped = sharded->Estimate(probe.request);
    auto other = alt_engine->Estimate(probe.request);
    ASSERT_TRUE(stamped.ok());
    ASSERT_TRUE(other.ok());
    probe.reference = stamped->summary;
    if (!other->summary.ExactlyEquals(probe.reference)) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no cross-shard path tells the generations apart";
  SwapOptions verified;
  verified.probes = {probe};
  auto rejected = sharded->Swap(alt_manifest, verified);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(sharded->epoch_sequence(), 1u);
  EXPECT_EQ(sharded->stats().probe_failures, 1u);

  // Unverified, the swap publishes; rollback republishes the old
  // generation under a new epoch and it answers as before.
  auto swapped = sharded->Swap(alt_manifest);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped.value(), 2u);
  EXPECT_EQ(sharded->rollback_depth(), 1u);
  auto rolled = sharded->RollbackToPrevious();
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_EQ(rolled.value(), 3u);
  EXPECT_EQ(sharded->manifest_snapshot()->fingerprint, gen_a);
  auto again = sharded->Estimate(probe.request);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->summary.ExactlyEquals(probe.reference));
  EXPECT_EQ(again->epoch, 3u);

  // Routing may cross shards, so it serves 1-shard generations only.
  RouteRequest route;
  route.from = 0;
  route.to = 30;
  route.departure_time = kDepart;
  route.budget_seconds = 3600.0;
  EXPECT_EQ(sharded->Route(route).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ShardedEngineTest, StatsCountOneAdmissionGateAndSurviveEviction) {
  auto loaded = core::LoadShardManifest(manifest4_);
  ASSERT_TRUE(loaded.ok());
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_FALSE(in_shard.empty());
  ASSERT_FALSE(cross_shard.empty());
  // One resident shard, four workers, and room for two requests at a time;
  // the rest queue (never shed) behind the one engine-wide gate.
  EngineOptions options = ShardedOptions(manifest4_, /*use_mmap=*/false,
                                         /*max_resident_shards=*/1,
                                         /*num_threads=*/4);
  options.max_inflight_requests = 2;
  options.max_queue_depth = 64;
  options.queue_timeout_seconds = 60.0;
  auto sharded = OpenSharded(std::move(options));
  ASSERT_NE(sharded, nullptr);

  std::vector<EstimateRequest> batch;
  size_t cross = 0;
  for (size_t i = 0; i < 24; ++i) {
    const bool stitched = i % 3 == 2;
    const std::vector<Path>& pool = stitched ? cross_shard : in_shard;
    batch.push_back(RequestFor(pool[i % pool.size()]));
    cross += stitched ? 1 : 0;
  }
  auto responses = sharded->EstimateBatch(batch);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << i << ": "
                                   << responses[i].status().ToString();
  }
  EngineStats stats = sharded->stats();
  EXPECT_EQ(stats.admitted, batch.size());
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_GE(stats.inflight_highwater, 1u);
  EXPECT_LE(stats.inflight_highwater, 2u)
      << "the high-water mark is one gate's, not a sum over shards";
  EXPECT_EQ(stats.cross_shard_requests, cross);
  EXPECT_LE(stats.shards_resident, 1u);
  ASSERT_GE(stats.shard_evictions, 1u);

  // Evicting shards does not drop what they served: the counters only
  // move forward.
  const EngineStats before = stats;
  for (const Path& path : in_shard) {
    ASSERT_TRUE(sharded->Estimate(RequestFor(path)).ok());
  }
  stats = sharded->stats();
  EXPECT_EQ(stats.admitted, before.admitted + in_shard.size());
  EXPECT_GE(stats.shard_evictions, before.shard_evictions);
  EXPECT_EQ(stats.cross_shard_requests, before.cross_shard_requests);
  EXPECT_LE(stats.inflight_highwater, 2u);
}

}  // namespace
}  // namespace serving
}  // namespace pcde
